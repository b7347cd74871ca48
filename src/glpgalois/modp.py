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
good is decided once, by the reduction itself, and p is not bounded.

Euclid (gcd and division) also runs on packed operands.  Eliminating the
leading slot of A adds t * (B << shift) with t = -lc(A) / lc(B) mod p, one
whole-integer operation per quotient coefficient; slots only grow and never
borrow.  After each remainder one slot-wise Barrett step,
R -= p * ((R * floor(2^k / p) >> k) & qmask), brings every slot below 2p
without unpacking.  Only the final gcd, a remainder and a quotient are
unpacked."""

from __future__ import annotations

import sys
from array import array
from functools import reduce
from math import isqrt, lcm
from operator import mul
from typing import Callable, Iterator, Optional

from ._record import Record
from .errors import BadPrimeError, DomainError
from .polys import Poly, primitive_scale
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
    """The good primes of f, ascending.  Raises DomainError once the bad
    primes met multiply past the bound of _bad_prime_bound, which proves that
    f is not square-free: such an f has no good prime at all."""
    bad, bound = 1, None
    for p in primes():
        if is_good_prime(f, p):
            yield p
            continue
        bad *= p
        bound = bound or _bad_prime_bound(f)
        if bad > bound:
            raise DomainError("polynomial is not square-free, so no prime is good")


def _bad_prime_bound(f: Poly) -> int:
    """An integer at least the product of the bad primes of a square-free f.
    Write f = c g with g primitive of degree n.  A prime dividing neither a
    coefficient denominator nor num(lc f) leaves c a unit mod p and keeps
    deg g, so it is bad only when gbar is not square-free, i.e. when p |
    disc(g), which is nonzero for a square-free f.  Every bad prime therefore
    divides lcm(denominators) * |num(lc f)| * lc(g) * |disc(g)|, and by
    Hadamard on the Sylvester matrix of g and g' (||g'|| <= n ||g||),
    |disc(g)| <= n^n * (sum g_i^2)^n."""
    g, _ = primitive_scale(f)
    n, lc = g.degree, int(g.leading)
    den = lcm(*(c.denominator for c in f.coeffs))
    return den * abs(f.leading.numerator) * lc * n**n * sum(int(c) ** 2 for c in g.coeffs) ** n


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


def _euclid_slots(n: int, p: int) -> tuple[int, int]:
    """Slot bytes w and Barrett width k for packed Euclid on operands of at
    most n coefficients mod p.  A slot starts below 2p and gains at most n
    multiples (below p) of a divisor slot (below 2p), so it stays below
    4np^2 < 2^k; a slot times floor(2^k / p) then fits 2k - bitlen(p) + 1
    bits, which the slot holds, so no slot ever carries."""
    k = (4 * n * p * p).bit_length()
    return _slot_bytes(1 << 2 * k - p.bit_length()), k


def _eliminate(A: int, da: int, B: int, db: int, p: int, W: int, quotient: Residues) -> int:
    """Reduce the packed A (degree da) below degree db by the packed B (degree
    db, slots W bits wide), slot i from the top, writing the quotient
    coefficients into quotient.  Eliminating slot i adds t * (B << (i - db) W)
    with t = -c / lc(B) mod p: slots only grow and never borrow.  Slots at and
    above db end as multiples of p."""
    M = (1 << W) - 1
    ninv = p - pow((B >> db * W) % p, -1, p)
    for i in range(da, db - 1, -1):
        c = (A >> i * W & M) % p
        if c:
            t = c * ninv % p
            A += t * B << (i - db) * W
            quotient[i - db] = p - t
    return A


def _divmod(a: Residues, b: Residues, p: int) -> tuple[Residues, Residues]:
    """Quotient and remainder of a by b, on Kronecker-packed operands."""
    da, db = len(a) - 1, len(b) - 1
    if da < db:
        return [], a[:]
    q = [0] * (da - db + 1)
    w, _ = _euclid_slots(da + 1, p)
    A = _eliminate(_pack(a, w), da, _pack(b, w), db, p, 8 * w, q)
    return q, _trim(_unpack(A & (1 << 8 * w * db) - 1, w, db, p))


def _monic(a: Residues, p: int) -> Residues:
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def _gcd(a: Residues, b: Residues, p: int) -> Residues:
    """The monic gcd of a and b (or [] when both are zero) by packed Euclid.
    Each remainder gets one slot-wise Barrett step, R -= p * floor(R m / 2^k)
    per slot with m = floor(2^k / p), which brings every slot below 2p with
    whole-integer operations; its slots above the true degree (0 or p) are
    masked off before it becomes the next divisor.  Only the last divisor is
    unpacked and made monic."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return _monic(a, p) if a else a
    n = len(a)
    w, k = _euclid_slots(n, p)
    W = 8 * w
    M, m = (1 << W) - 1, (1 << k) // p
    qmask = ((1 << W * n) - 1) // M * ((1 << W - k) - 1)  # 2^(W-k) - 1 in every slot
    A, da, B, db = _pack(a, w), n - 1, _pack(b, w), len(b) - 1
    while db:
        R = _eliminate(A, da, B, db, p, W, [0] * (da - db + 1)) & (1 << db * W) - 1
        R -= p * (R * m >> k & qmask)
        j = db - 1
        while j >= 0 and not (R >> j * W & M) % p:
            j -= 1
        if j < 0:
            break
        A, da, B, db = B, db, R & (1 << (j + 1) * W) - 1, j
    return _monic(_unpack(B, w, db + 1, p), p)


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
