"""Independent brute-force oracles used by the test suite.

These deliberately avoid the library's own code paths: determinants are
computed by rational Gaussian elimination instead of Bareiss, hulls by an
all-pairs gift wrap or by testing each point against every segment instead of
a monotone chain, primality by trial division, Taylor shifts by Fraction
synthetic division, and mod-p factor shapes by exhaustive root search or trial division.  Good
primes are decided from the resultant-based discriminant, where the library
decides them from the reduction mod p.  Laguerre polynomials come from their
defining sum, where the library rescales its integral form.
"""

import math
from fractions import Fraction
from itertools import product

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
