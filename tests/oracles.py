"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: determinants are
computed by rational Gaussian elimination instead of Bareiss, hulls by an
all-pairs gift wrap or by testing each point against every segment instead of
a monotone chain, primality by trial division, Taylor shifts by Fraction
synthetic division, and mod-p factor shapes by exhaustive root search or trial division.  Good
primes are decided from the resultant-based discriminant, where the library
decides them from the reduction mod p.  Laguerre polynomials come from their
defining sum, where the library rescales its integral form.  The GLP drops
come from factoring each factor k*mu + lam on its own, where the library
sieves along the progression, and witness slopes are read from `Fraction`
slopes, where the library reads integer rises and runs.  The Newton index is
read from the Fraction coefficients of the primitive part, numerator and
denominator valuations both, where the library takes integer coefficients.
The library has no p-adic valuation of a coefficient: `ord_p` here is the
tests' own.  The criterion-prime shortcut, `lemma_key_check`, reads it on
every big c_j, where the library's `find_criterion_prime` reads the drops.
Subset sums of a factor-degree multiset come from listing its sub-multisets
or from growing a set, where the library shifts a bitmask and may stop a
prime at its roots.  Powers of x mod fbar come from schoolbook products,
where the library reads packed table and Frobenius rows.
"""

import math
from fractions import Fraction
from itertools import combinations, product

from glpgalois.errors import DomainError
from glpgalois.polys import Poly, discriminant


def gauss_det(matrix):
    """Determinant by fraction Gaussian elimination with partial pivoting."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    det = Fraction(1)
    for k in range(n):
        pivot = next((i for i in range(k, n) if a[i][k] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != k:
            a[k], a[pivot] = a[pivot], a[k]
            det = -det
        det *= a[k][k]
        for i in range(k + 1, n):
            factor = a[i][k] / a[k][k]
            for j in range(k, n):
                a[i][j] -= factor * a[k][j]
    return det


def sylvester_resultant(f: Poly, g: Poly) -> Fraction:
    n, m = f.degree, g.degree
    if n == 0:
        return f.coeffs[0] ** m
    if m == 0:
        return g.coeffs[0] ** n
    fd = list(reversed(f.coeffs))
    gd = list(reversed(g.coeffs))
    rows = []
    for i in range(m):
        rows.append([Fraction(0)] * i + fd + [Fraction(0)] * (m - 1 - i))
    for i in range(n):
        rows.append([Fraction(0)] * i + gd + [Fraction(0)] * (n - 1 - i))
    return gauss_det(rows)


def _on_or_above(points, a, b):
    (x1, y1), (x2, y2) = a, b
    for (x, y) in points:
        # y >= line(a,b) at x, cross-multiplied to stay in integers
        if (y - y1) * (x2 - x1) < (y2 - y1) * (x - x1):
            return False
    return True


def brute_lower_hull(points):
    """Gift-wrap the lower hull using the all-pairs on-or-above predicate."""
    points = sorted(points)
    hull = [points[0]]
    while hull[-1] != points[-1]:
        v = hull[-1]
        candidates = [w for w in points if w[0] > v[0] and _on_or_above(points, v, w)]
        hull.append(max(candidates))  # farthest support point: skips collinear interiors
    return hull


def extreme_point_hull(points):
    """The lower hull's vertices by definition: the first and last points, and
    each point strictly below every segment from a point on its left to a point
    on its right (x values distinct)."""
    points = sorted(points)

    def strictly_below(pt, a, b):
        (x1, y1), (x2, y2) = a, b
        return (pt[1] - y1) * (x2 - x1) < (y2 - y1) * (pt[0] - x1)

    last = len(points) - 1
    return [
        pt for i, pt in enumerate(points)
        if i in (0, last)
        or all(strictly_below(pt, a, b) for a in points[:i] for b in points[i + 1:])
    ]


def fraction_shift(f: Poly, mu) -> Poly:
    """f(x - mu) by repeated synthetic division in Fractions, one
    multiply-add per step."""
    t = -Fraction(mu)  # f(x - mu) = f(x + t)
    b = list(f.coeffs)
    n = len(b)
    for i in range(n - 1):
        for j in range(n - 2, i - 1, -1):
            b[j] += t * b[j + 1]
    return Poly.from_coeffs(b)


def laguerre_by_definition(n: int, alpha: Fraction) -> Poly:
    """L_n^(alpha) = sum_j binom(n+alpha, n-j) (-x)^j / j!, each binomial a
    product of Fractions."""
    coeffs = []
    for j in range(n + 1):
        binom = Fraction(1)
        for i in range(j + 1, n + 1):
            binom *= alpha + i
        binom /= math.factorial(n - j)
        coeffs.append((-1) ** j * binom / math.factorial(j))
    return Poly.from_coeffs(coeffs)


def is_good_prime_by_discriminant(f: Poly, p: int) -> bool:
    """p is good for f iff it divides neither the leading numerator, nor any
    coefficient denominator, nor disc(f)."""
    if f.leading.numerator % p == 0 or any(c.denominator % p == 0 for c in f.coeffs):
        return False
    return discriminant(f).numerator % p != 0


def trial_division_is_prime(m: int) -> bool:
    if m < 2:
        return False
    d = 2
    while d * d <= m:
        if m % d == 0:
            return False
        d += 1
    return True


def is_prime_factor_set(m, ps):
    """True iff ps is exactly the set of primes dividing m != 0, each
    member's primality decided by trial division."""
    m = abs(m)
    for p in ps:
        if not trial_division_is_prime(p) or m % p:
            return False
        while m % p == 0:
            m //= p
    return m == 1


def lucas_lehmer(q):
    """2^q - 1 is prime, for an odd prime q (the Lucas-Lehmer test)."""
    m, s = (1 << q) - 1, 4
    for _ in range(q - 2):
        s = (s * s - 2) % m
    return s == 0


def low_degree_factor_degrees(int_coeffs, p):
    """Factor-degree multiset of a square-free polynomial of degree <= 3 over
    F_p, by exhaustive root counting."""
    coeffs = [c % p for c in int_coeffs]
    n = len(coeffs) - 1
    if not (1 <= n <= 3 and coeffs[-1] != 0):
        raise ValueError("need degree 1..3 mod p")

    def ev(x):
        acc = 0
        for c in reversed(coeffs):
            acc = (acc * x + c) % p
        return acc

    roots = sum(1 for x in range(p) if ev(x) == 0)
    if n == 1:
        return (1,)
    if n == 2:
        return (1, 1) if roots == 2 else (2,)
    return {3: (1, 1, 1), 1: (1, 2), 0: (3,)}[roots]


def _has_monic_divisor_mod_p(coeffs, e, p):
    """True iff some monic polynomial of degree e divides coeffs (low first) mod p."""
    for tail in product(range(p), repeat=e):
        rem = list(coeffs)
        for i in range(len(rem) - 1, e - 1, -1):
            c = rem[i]
            for j in range(e):
                rem[i - e + j] = (rem[i - e + j] - c * tail[j]) % p
            rem[i] = 0
        if not any(rem):
            return True
    return False


def degree_multisets(n, largest=None):
    """Every multiset of positive degrees summing to n, as ascending tuples."""
    if n == 0:
        yield ()
        return
    for d in range(min(n, largest or n), 0, -1):
        for rest in degree_multisets(n - d, d):
            yield rest + (d,)


def subset_sums_by_enumeration(degrees):
    """The sums of all sub-multisets of degrees, each one listed."""
    return {sum(c) for k in range(len(degrees) + 1) for c in combinations(degrees, k)}


def subset_sum_closure(degrees):
    """The subset sums of degrees, grown one degree at a time as a set."""
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return frozenset(sums)


def is_irreducible_mod_p(int_coeffs, p):
    """Irreducibility over F_p of a monic polynomial (coefficients low first),
    by trial division by every monic polynomial of degree <= deg/2."""
    coeffs = [c % p for c in int_coeffs]
    if coeffs[-1] != 1:
        raise ValueError("need a monic polynomial mod p")
    n = len(coeffs) - 1
    return not any(_has_monic_divisor_mod_p(coeffs, e, p) for e in range(1, n // 2 + 1))


def schoolbook_divmod(a, b, p):
    """Quotient and remainder of a by a monic b over F_p (residue lists, low
    degree first), one coefficient row at a time."""
    a = a[:]
    n = len(b) - 1
    q = [0] * (len(a) - n)
    for i in range(len(a) - 1, n - 1, -1):
        c = q[i - n] = a[i]
        if c:
            a[i - n : i] = [(x - c * y) % p for x, y in zip(a[i - n : i], b)]
    rest = a[:n]
    while rest and not rest[-1]:
        rest.pop()
    return q, rest


def _schoolbook_monic(a, p):
    inv = pow(a[-1], -1, p)
    return [c * inv % p for c in a]


def schoolbook_gcd(a, b, p):
    """The monic gcd over F_p by Euclid with a monic divisor at every step."""
    while b:
        b = _schoolbook_monic(b, p)
        a, b = b, schoolbook_divmod(a, b, p)[1]
    return _schoolbook_monic(a, p) if a else a


def schoolbook_mulmod(a, b, fbar, p):
    """a * b mod a monic fbar over F_p: a schoolbook product reduced by
    schoolbook_divmod."""
    prod = [0] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += x * y
    return schoolbook_divmod([c % p for c in prod], fbar, p)[1]


def schoolbook_x_power(e, fbar, p):
    """x^e mod a monic fbar over F_p, by square-and-multiply with
    schoolbook_mulmod."""
    result, base = schoolbook_divmod([1], fbar, p)[1], schoolbook_divmod([0, 1], fbar, p)[1]
    while e:
        if e & 1:
            result = schoolbook_mulmod(result, base, fbar, p)
        base = schoolbook_mulmod(base, base, fbar, p)
        e >>= 1
    return result


def degree_one_settles(out, n, r):
    """The degree-1 settle rule by root count: r roots mod p leave subset sums
    [0, r] and [n - r, n] plus others only in (r, n - r) & [2, n - 2], as each
    other factor has degree >= 2; settled when the rest is one factor or none
    (n - r < 4), or when the surviving set out (a bitmask) meets none of
    those others."""
    lo, hi = max(r + 1, 2), min(n - r - 1, n - 2)
    return n - r < 4 or hi < lo or not out >> lo & (1 << hi - lo + 1) - 1


def drops_by_factoring(n, lam, mu):
    """{p: [(k, ord_p(k*mu + lam))]} over the k = 1..n with p | k*mu + lam,
    each factor factored on its own by `prime_factors`."""
    from glpgalois.primes import prime_factors

    drops = {}
    for k in range(1, n + 1):
        m = k * mu + lam
        for p in sorted(prime_factors(m)):
            e = 0
            while m % p == 0:
                m, e = m // p, e + 1
            drops.setdefault(p, []).append((k, e))
    return drops


def ord_p(q, p):
    """The p-adic valuation of a nonzero int or Fraction: the multiplicity of
    p in its numerator minus that in its denominator."""
    if q == 0:
        raise DomainError("0 has no finite valuation")
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num, v = num // p, v + 1
    while den % p == 0:
        den, v = den // p, v - 1
    return v


def lemma_key_check(n, c, p):
    """For f = sum binom(n,j) c_j x^j, the four-valuation shortcut that forces
    (0,1) and (p,0) to open the p-adic polygon (slope -1/p): n/2 < p < n-2;
    ord_p(c_j) >= 0 everywhere; = 1 for 1 <= j <= n-p; = 0 at j = p.  A zero
    c_j lies above every line.  It reads every c_j, where the library's
    criterion prime reads the drops."""
    if not trial_division_is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p <= 2 or p >= n:
        raise DomainError(f"prime {p} out of range for degree {n}")
    if len(c) != n + 1:
        raise DomainError("need coefficients c_0..c_n")
    vals = [ord_p(cj, p) if cj else None for cj in c]
    if not (2 * p > n and p < n - 2):
        return False
    if any(v < 0 for v in vals if v is not None):
        return False
    return all(vals[j] == 1 for j in range(1, n - p + 1)) and vals[p] == 0


def rational_newton_index(f: Poly):
    """(index, {p: hull vertices}) of f != 0 in Fractions: the x-powers
    dropped, the primitive part f / c with c = +-gcd(numerators) /
    lcm(denominators) (the sign of the leading coefficient), and at each prime
    of its a_0 * a_n, ascending, the extreme-point hull of the points
    (j, ord_p) of its nonzero coefficients; the index is the lcm of the
    slopes' denominators."""
    from glpgalois.primes import prime_factors

    cs = list(f.coeffs)
    while cs[0] == 0:
        cs.pop(0)
    c = Fraction(math.gcd(*(a.numerator for a in cs)), math.lcm(*(a.denominator for a in cs)))
    g = [a / (c if cs[-1] > 0 else -c) for a in cs]
    if any(a.denominator != 1 for a in g) or g[-1] < 0:
        raise AssertionError(f"primitive part of {f} is not a positive integer polynomial")
    index, vertices = 1, {}
    for p in sorted(prime_factors(g[0] * g[-1])) if len(g) > 1 else []:
        hull = extreme_point_hull([(j, ord_p(a, p)) for j, a in enumerate(g) if a])
        for a, b in zip(hull, hull[1:]):
            index = math.lcm(index, Fraction(b[1] - a[1], b[0] - a[0]).denominator)
        vertices[p] = tuple(hull)
    return index, vertices


def fraction_witnesses(vertices):
    """prime -> the slopes of denominator > 1 of its hull, left to right, each
    segment's slope built as a Fraction first."""
    out = {}
    for p, hull in vertices.items():
        slopes = [Fraction(b[1] - a[1], b[0] - a[0]) for a, b in zip(hull, hull[1:])]
        ramified = [s for s in slopes if s.denominator > 1]
        if ramified:
            out[p] = ramified
    return out


def fraction_witness(witnesses, q):
    """The first (p, slope) of fraction_witnesses' dict, primes ascending, with
    q dividing the slope's denominator; None if there is none."""
    for p in sorted(witnesses):
        for slope in witnesses[p]:
            if slope.denominator % q == 0:
                return p, slope
    return None
