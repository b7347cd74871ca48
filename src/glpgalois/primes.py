"""Primality, p-adic valuations, and prime enumeration in progressions.

`is_prime` reads a sieve below 2^16 and runs Miller-Rabin over the first
thirteen primes as witnesses above it.  No composite below psi_13 =
3317044064679887385961981 is a strong pseudoprime to all thirteen
(Sorenson and Webster, 2017), so the test is exact below it -- far beyond
anything this package produces.  Larger inputs get the same witnesses as a
strong pseudoprime test, high-confidence rather than proven.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import compress, count
from typing import Iterator, Union

from .errors import BadPrimeError, DomainError
from .polys import Poly

_SIEVE_LIMIT = 1 << 16
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# Pollard rho steps per split: about 47 times the most (210,593) that an
# input of glpbench's generic_certify or cli_batch corpora needed over 20
# seeds, shifts included; see _pollard_rho
RHO_BUDGET = 10_000_000


def _sieve() -> bytearray:
    """_SIEVE[m] is 1 iff m < 2^16 is prime."""
    sieve = bytearray([1]) * _SIEVE_LIMIT
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(_SIEVE_LIMIT) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return sieve


_SIEVE = _sieve()
SMALL_PRIMES = [2, *compress(range(3, _SIEVE_LIMIT, 2), _SIEVE[3::2])]


def _strong_probable_prime(n: int, a: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(a, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def is_prime(m: int) -> bool:
    if m < _SIEVE_LIMIT:
        return m >= 2 and _SIEVE[m] == 1
    return all(_strong_probable_prime(m, a) for a in _MR_WITNESSES)


def primes() -> Iterator[int]:
    """All primes, ascending."""
    yield from SMALL_PRIMES
    for m in count(_SIEVE_LIMIT + 1, 2):
        if is_prime(m):
            yield m


def _multiplicity(m: int, p: int) -> int:
    """The exponent of p in a nonzero integer m."""
    v = 0
    while m % p == 0:
        m //= p
        v += 1
    return v


def ord_p(q: Union[int, Fraction], p: int) -> int:
    """The p-adic valuation of a nonzero int or Fraction."""
    if not is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    num = q.numerator
    if num == 0:
        raise DomainError("0 has no finite valuation")
    return _multiplicity(num, p) - _multiplicity(q.denominator, p)


def primes_in_ap_interval(lam: int, mu: int, lo: int, hi: int) -> list[int]:
    """All primes p with lo <= p <= hi and p = lam (mod mu), ascending."""
    if mu < 1:
        raise DomainError("modulus must be positive")
    if math.gcd(lam, mu) != 1:
        raise DomainError(f"gcd({lam}, {mu}) != 1")
    if lo > hi:
        raise DomainError("empty interval: lo > hi")
    start = max(lo, 2)
    first = start + (lam - start) % mu
    return [m for m in range(first, hi + 1, mu) if is_prime(m)]


def _pollard_rho(n: int) -> int:
    """A proper divisor of an odd composite n with no factor below 2^16, by
    Floyd's cycle search on x -> x^2 + c for c = 1, 2, ...  The steps grow
    like the square root of n's smallest prime, so after RHO_BUDGET steps in
    all it raises DomainError instead of running on."""
    budget = RHO_BUDGET
    for c in count(1):
        x = y = 2
        for step in range(1, budget + 1):
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
            if d != 1:
                break
        else:
            raise DomainError(f"cannot factor {n}: no factor found in {RHO_BUDGET} Pollard rho steps")
        if d != n:
            return d
        budget -= step
    raise AssertionError("unreachable")


def _add_large_prime_factors(m: int, out: set[int]) -> None:
    """Add the primes of an m > 1 with no prime factor below 2^16 to out.
    The divisors that rho finds have none either, so they are not divided
    by the small primes again."""
    if is_prime(m):
        out.add(m)
        return
    d = _pollard_rho(m)
    _add_large_prime_factors(d, out)
    _add_large_prime_factors(m // d, out)


def prime_factors(m: int) -> set[int]:
    """The set of primes dividing |m|; m must be nonzero.  Each prime below
    2^16 is tried once; a cofactor left when p^2 > m is prime."""
    if m == 0:
        raise DomainError("0 has no prime factorization")
    m = abs(m)
    out: set[int] = set()
    for p in SMALL_PRIMES:
        if p * p > m:
            if m > 1:
                out.add(m)
            return out
        if m % p == 0:
            out.add(p)
            while m % p == 0:
                m //= p
    if m > 1:
        _add_large_prime_factors(m, out)
    return out


def candidate_primes(g: Poly) -> set[int]:
    """Primes dividing a_0 * a_n of a primitive integer polynomial; outside
    this set the Newton polygon is a single slope-0 segment."""
    if g.is_zero() or g[0] == 0:
        raise DomainError("constant term is zero; strip x-powers first")
    if any(c.denominator != 1 for c in g.coeffs):
        raise DomainError("candidate_primes expects an integer polynomial")
    return prime_factors(int(g[0]) * int(g.leading))
