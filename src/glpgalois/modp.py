"""Frobenius cycle types via distinct-degree factorization over F_p.

Only factor-degree multisets are ever needed, so the equal-degree stage of
factorization is skipped entirely: the degree-d block of x^(p^d) - x
contributes deg/d copies of d.  This keeps the whole module deterministic.
F_p[x] elements are trimmed lists of Python-int residues, lowest degree
first.  Products use Kronecker substitution: the coefficients are packed into
slots of one big integer, multiplied, and unpacked.  Slots of 1, 2, 4 or 8
bytes are packed and unpacked in bulk through `array`; wider ones (large p)
byte by byte.  Reduction mod fbar adds multiples of a packed table of x^k mod
fbar; h -> h^p adds multiples of a packed Frobenius table of x^(ip) mod fbar.
The h - x of a run of isqrt(n) consecutive d meet f in one gcd.  Whether p is
good is decided once, by the reduction itself, and p is not bounded."""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from math import isqrt
from operator import mul
from typing import Callable, Iterator, Optional

from ._record import Record
from .errors import BadPrimeError, DomainError
from .polys import Poly
from .primes import is_prime, primes

Residues = list[int]

# unsigned array typecodes by item size; arrays hold native-order items, so
# a big-endian host packs every slot byte by byte
_SLOT_CODES = {array(t).itemsize: t for t in "QLIHB"} if sys.byteorder == "little" else {}


class CycleType(Record):
    __slots__ = ("degrees", "prime")

    def __init__(self, degrees: tuple[int, ...], prime: int) -> None:
        # degrees: the sorted multiset of irreducible-factor degrees
        self._set("degrees", degrees)
        self._set("prime", prime)

    @property
    def n(self) -> int:
        return sum(self.degrees)

    @property
    def is_even(self) -> bool:
        return (self.n - len(self.degrees)) % 2 == 0


def is_good_prime(f: Poly, p: int) -> bool:
    """True iff f keeps its degree mod p and its reduction is square-free,
    i.e. iff p divides neither disc(f) nor the leading coefficient nor any
    coefficient denominator."""
    return _good_reduction(f, p) is not None


def good_primes(f: Poly) -> Iterator[int]:
    """The good primes of f, ascending."""
    for p in primes():
        if is_good_prime(f, p):
            yield p


def _trim(a: Residues) -> Residues:
    while a and not a[-1]:
        a.pop()
    return a


def _slot_bytes(bound: int) -> int:
    """Bytes per slot for values up to bound, rounded up to 1, 2, 4 or 8."""
    w = bound.bit_length() // 8 + 1
    return w if w > 8 else 1 << (w - 1).bit_length()


def _pack(a: Residues, w: int) -> int:
    code = _SLOT_CODES.get(w)
    if code is None:
        return int.from_bytes(b"".join(c.to_bytes(w, "little") for c in a), "little")
    return int.from_bytes(array(code, a), "little")


def _unpack(v: int, w: int, m: int, p: int) -> Residues:
    """The m w-byte slots of v, each reduced mod p."""
    b = v.to_bytes(m * w, "little")
    code = _SLOT_CODES.get(w)
    if code is None:
        return [int.from_bytes(b[i : i + w], "little") % p for i in range(0, m * w, w)]
    return [c % p for c in array(code, b)]


def _product(a: Residues, b: Residues, p: int) -> Residues:
    w = _slot_bytes(min(len(a), len(b)) * (p - 1) ** 2)
    return _unpack(_pack(a, w) * _pack(b, w), w, len(a) + len(b) - 1, p)


def _quotient_ring(fbar: Residues, p: int) -> tuple[Callable, Callable]:
    """Multiplication and the Frobenius map h -> h^p in F_p[x]/(fbar), for a
    monic fbar of degree n >= 1.  h^p = h(x^p) is F_p-linear, so it is the sum
    of h_i times the packed row x^(ip) mod fbar."""
    n = len(fbar) - 1
    # a slot collects at most n products from a multiplication or a Frobenius
    # sum and n - 1 from the reduction, each at most (p - 1)^2
    w = _slot_bytes(2 * n * (p - 1) ** 2)
    xn = [-c % p for c in fbar[:n]]  # x^n mod fbar
    table, t = [1 << 8 * w * k for k in range(n)], xn  # table[k] = x^k mod fbar, packed
    for _ in range(n - 1):
        table.append(_pack(t, w))
        t = [(lo + t[-1] * c) % p for lo, c in zip([0] + t[:-1], xn)]
    high_table, shift = table[n:], 8 * w * n

    def mulmod(a: Residues, b: Residues) -> Residues:
        pa = _pack(a, w)
        c = pa * (pa if b is a else _pack(b, w))
        high = _unpack(c >> shift, w, n - 1, p)
        r = (c & ((1 << shift) - 1)) + sum(map(mul, high, high_table))
        return _trim(_unpack(r, w, n, p))

    # rows x^(ip) mod fbar: from the table while ip <= 2n - 2, then by steps of x^p
    first = (2 * n - 2) // p + 1
    rows, xp = table[: first * p : p], [0, 1]
    for bit in bin(p)[3:] if first < n else "":  # x^p, once some row needs it
        xp = mulmod(mulmod(xp, xp), [0, 1]) if bit == "1" else mulmod(xp, xp)
    r = _trim(_unpack(rows[-1], w, n, p))
    for _ in range(first, n):
        r = mulmod(r, xp)
        rows.append(_pack(r, w))

    def frobenius(h: Residues) -> Residues:
        return _trim(_unpack(sum(map(mul, h, rows)), w, n, p))

    return mulmod, frobenius


def _divmod(a: Residues, b: Residues, p: int) -> tuple[Residues, Residues]:
    """Schoolbook quotient and remainder of a by a monic b."""
    a = a[:]
    n = len(b) - 1
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = q[i - n] = a[i]
        if c:
            a[i - n : i] = [(x - c * y) % p for x, y in zip(a[i - n : i], b)]
    return q, _trim(a[:n])


def _monic(a: Residues, p: int) -> Residues:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Residues, b: Residues, p: int) -> Residues:
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return _monic(a, p) if a else a


def _good_reduction(f: Poly, p: int) -> Optional[Residues]:
    """The monic reduction fbar of f mod p, or None when p is bad: when f
    drops degree mod p or gcd(fbar, fbar') != 1, i.e. when p divides a
    coefficient denominator, the leading numerator or disc(f)."""
    if f.degree < 1:
        raise DomainError("requires degree >= 1")
    if not is_prime(p):
        raise BadPrimeError(f"{p} is not prime")
    if f.leading.numerator % p == 0 or any(c.denominator % p == 0 for c in f.coeffs):
        return None
    inv = f.leading.denominator * pow(f.leading.numerator, -1, p)
    fbar = [c.numerator * pow(c.denominator, -1, p) * inv % p for c in f.coeffs]
    deriv = _trim([k * c % p for k, c in enumerate(fbar)][1:])
    return fbar if len(_gcd(fbar, deriv, p)) == 1 else None


def _exact_quotient(a: Residues, b: Residues, p: int) -> Residues:
    q, rest = _divmod(a, b, p)
    if rest:
        raise DomainError("division was not exact")
    return q


def _ddf_degrees(fbar: Residues, p: int) -> tuple[list[int], list[Residues]]:
    """Degrees of the irreducible factors of a square-free monic fbar, plus
    the per-degree blocks for the reconstruction check.  h = x^(p^d) is kept
    mod fbar itself: every cofactor divides fbar, so the gcd is the same.  A
    run's gcd g is split d by d only when it is not 1."""
    mulmod, frobenius = _quotient_ring(fbar, p)
    run = isqrt(len(fbar) - 1)
    degrees: list[int] = []
    blocks: list[Residues] = []
    fcur, h, d = fbar, [0, 1], 0
    while 2 * (d + 1) <= len(fcur) - 1:
        diffs = {}
        for d in range(d + 1, min(d + run, (len(fcur) - 1) // 2) + 1):
            h = frobenius(h)
            diff = h + [0] * (2 - len(h))
            diff[1] = (diff[1] - 1) % p  # h - x
            diffs[d] = _trim(diff)
        g = _gcd(fcur, reduce(mulmod, diffs.values()), p)
        # ascending, each block divided out of g first, as gcd(g, h - x) also
        # holds factors whose degree divides d; the last d takes the rest of g
        for e, diff in diffs.items():
            if len(g) == 1:
                break
            b = g if e == d else _gcd(g, diff, p)
            if len(b) > 1:
                degrees.extend([e] * ((len(b) - 1) // e))
                blocks.append(b)
                g = _exact_quotient(g, b, p)
                fcur = _exact_quotient(fcur, b, p)
    if len(fcur) > 1:  # no factor of degree <= deg/2 is left
        degrees.append(len(fcur) - 1)
        blocks.append(fcur)
    return degrees, blocks


def factor_degrees(f: Poly, p: int) -> CycleType:
    """Degree multiset of the irreducible factors of f mod a good prime p."""
    fbar = _good_reduction(f, p)
    if fbar is None:
        raise BadPrimeError(f"{p} is not a good prime for this polynomial")
    degrees, blocks = _ddf_degrees(fbar, p)
    # Reconstruction: the blocks multiply back to fbar, their degrees to n.
    prod = [1]
    for b in blocks:
        prod = _product(prod, b, p)
    if prod != fbar or sum(degrees) != f.degree:
        raise DomainError("factor blocks do not multiply back to f mod p")
    return CycleType(degrees=tuple(sorted(degrees)), prime=p)


def subset_sum_closure(degrees: tuple[int, ...]) -> frozenset[int]:
    total = sum(degrees)
    mask = 1
    for d in degrees:
        mask |= mask << d
    return frozenset(i for i in range(total + 1) if mask >> i & 1)


def degree_set_filter(f: Poly, primes_list: list[int]) -> set[int]:
    """Intersect the subset-sum closures of the factor-degree multisets over
    the given good primes; a superset of the degrees of rational factors of f.
    {0, n} always survives, so the primes after it reaches {0, n} are not
    factored; an output of exactly {0, n} proves irreducibility."""
    n = f.degree
    out = frozenset(range(n + 1))
    for p in primes_list:
        out &= subset_sum_closure(factor_degrees(f, p).degrees)
        if out == {0, n}:
            break
    return set(out)


CONTAINS_ODD = "contains-odd-permutation"
ALL_EVEN = "all-even-so-far"


def parity_evidence(samples: list[CycleType]) -> str:
    """An odd Frobenius cycle type proves the group is not inside A_n; all-even
    is only evidence, never proof."""
    if not samples:
        raise DomainError("need at least one sample")
    return CONTAINS_ODD if any(not ct.is_even for ct in samples) else ALL_EVEN
