"""Independent output checker.

Nothing here imports glpgalois: valuations, lower hulls, Taylor shifts,
primality, the GLP coefficients and the Schur discriminant product are all
recomputed with this file's own code, and factorizations mod p come from
sympy.  Every function returns a list of problems; an empty list means the
output checks out.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

CONTAINS_AN = "contains_An"
PROOF_BASES = ("single_slope", "degree_set_filter")
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_LIMIT = 1 << 16
_REPLAY_PRIME_BUDGET = 40


# ---------------------------------------------------------------- numbers

def is_prime(m: int) -> bool:
    """Deterministic Miller-Rabin for m < 3.3e24 (the first twelve primes)."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x in (1, m - 1):
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


def valuation(x: Fraction, p: int) -> Optional[int]:
    """v_p(x) for a nonzero rational; None for zero."""
    x = Fraction(x)
    if x == 0:
        return None
    v = 0
    num, den = abs(x.numerator), x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def small_prime_factors(m: int) -> list[int]:
    """Prime factors of |m| found by trial division below 2^16, plus the
    cofactor when it is prime."""
    m = abs(m)
    out = []
    d = 2
    while d < _TRIAL_LIMIT and d * d <= m:
        if m % d == 0:
            out.append(d)
            while m % d == 0:
                m //= d
        d += 1 if d == 2 else 2
    if m > 1 and is_prime(m):
        out.append(m)
    return out


# ---------------------------------------------------------------- polygons

def hull_slopes(coeffs: Sequence[Fraction], p: int) -> list[Fraction]:
    """Slopes of the lower convex hull of (j, v_p(a_j)), left to right.

    Gift wrapping: from each vertex take the point of least slope, the
    farthest one on ties, so collinear points merge into one segment.
    """
    pts = [(j, valuation(c, p)) for j, c in enumerate(coeffs) if c != 0]
    slopes = []
    i = 0
    while i < len(pts) - 1:
        x0, y0 = pts[i]
        best, best_k = None, None
        for k in range(i + 1, len(pts)):
            s = Fraction(pts[k][1] - y0, pts[k][0] - x0)
            if best is None or s <= best:
                best, best_k = s, k
        slopes.append(best)
        i = best_k
    return slopes


def taylor_shift(coeffs: Sequence[Fraction], mu: Fraction) -> list[Fraction]:
    """Coefficients of g(x) = f(x - mu), expanded binomially."""
    n = len(coeffs) - 1
    out = [Fraction(0)] * (n + 1)
    for j, a in enumerate(coeffs):
        if a == 0:
            continue
        for i in range(j + 1):
            out[i] += a * math.comb(j, i) * (-mu) ** (j - i)
    return out


def primitive(coeffs: Sequence[Fraction]) -> list[int]:
    den = math.lcm(*(Fraction(c).denominator for c in coeffs))
    ints = [int(Fraction(c) * den) for c in coeffs]
    g = math.gcd(*ints)
    return [a // g for a in ints]


# ---------------------------------------------------------------- GLP

def glp_coeffs(n: int, alpha: Fraction) -> list[Fraction]:
    """mu^n n! L_n^(alpha)(-x/mu) from L_n^(alpha)(x) = sum_j binom(n+alpha, n-j) (-x)^j / j!."""
    alpha = Fraction(alpha)
    mu = alpha.denominator
    out = []
    for j in range(n + 1):
        binom = Fraction(1)
        for i in range(n - j):
            binom = binom * (n + alpha - i) / (i + 1)
        out.append(Fraction(mu) ** (n - j) * math.factorial(n) / math.factorial(j) * binom)
    return out


def schur_product(n: int, alpha: Fraction) -> Fraction:
    alpha = Fraction(alpha)
    out = Fraction(1)
    for j in range(2, n + 1):
        out *= Fraction(j) ** j * (alpha + j) ** (j - 1)
    return out


def is_square(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(x) ** 2 == x for x in (q.numerator, q.denominator))


# ---------------------------------------------------------------- mod p

def mod_p_degrees(coeffs: Sequence[int], p: int) -> Optional[list[int]]:
    """Irreducible-factor degrees of an integer polynomial mod p by sympy, or
    None when p divides the leading coefficient or f mod p is not square-free."""
    from sympy import GF, Poly, symbols

    if coeffs[-1] % p == 0:
        return None
    poly = Poly(list(reversed([int(c) for c in coeffs])), symbols("x"), domain=GF(p))
    _, factors = poly.factor_list()
    if any(m > 1 for _, m in factors):
        return None
    return sorted(f.degree() for f, _ in factors)


def subset_sums(degrees: Sequence[int]) -> set[int]:
    sums = {0}
    for d in degrees:
        sums |= {s + d for s in sums}
    return sums


def proves_irreducible(coeffs: Sequence[Fraction]) -> bool:
    """Replay a degree-set irreducibility proof with sympy's factorizations
    over the first good primes."""
    g = primitive(coeffs)
    n = len(g) - 1
    surviving = set(range(n + 1))
    tried = 0
    p = 1
    while tried < _REPLAY_PRIME_BUDGET:
        p += 1
        if not (is_prime(p) and sqfree_mod(g, p)):
            continue
        degrees = mod_p_degrees(g, p)
        if degrees is None:
            continue
        tried += 1
        surviving &= subset_sums(degrees)
        if surviving == {0, n}:
            return True
    return False


def single_slope_prime(coeffs: Sequence[Fraction]) -> Optional[int]:
    """A prime whose polygon is one segment with slope denominator n."""
    g = primitive(coeffs)
    n = len(g) - 1
    for p in small_prime_factors(g[0] * g[-1]):
        slopes = hull_slopes(g, p)
        if len(slopes) == 1 and slopes[0].denominator == n:
            return p
    return None


# ---------------------------------------------------------------- replays

def check_certificate(coeffs: Sequence[Fraction], cert: dict, bases=PROOF_BASES,
                      replay_filter: bool = True) -> list[str]:
    """Replay a certificate dict (glpgalois JSON field names).  A degree-set
    irreducibility proof costs sympy factorizations, so callers may skip it."""
    n = len(coeffs) - 1
    problems = []
    if cert["n"] != n:
        problems.append(f"certificate degree {cert['n']} != {n}")
    if cert["verdict"] != CONTAINS_AN:
        if cert["window_prime"] is not None:
            problems.append("window prime on a certificate that claims nothing")
        return problems
    q, p = cert["window_prime"], cert["valuation_prime"]
    slope = Fraction(cert["slope"])
    if q is None or not is_prime(q):
        problems.append(f"window prime {q} is not prime")
    elif not (n < 2 * q and q < n - 2):
        problems.append(f"window prime {q} outside (n/2, n-2) for n={n}")
    elif cert["newton_index"] % q or slope.denominator % q:
        problems.append(f"window prime {q} does not divide both the index and the slope denominator")
    if p is None or not is_prime(p):
        problems.append(f"valuation prime {p} is not prime")
    elif slope not in hull_slopes(taylor_shift(coeffs, Fraction(cert["shift"])), p):
        problems.append(f"slope {slope} is not on the {p}-adic hull at shift {cert['shift']}")
    basis = cert["irreducibility_basis"]
    if basis not in bases:
        problems.append(f"claim rests on irreducibility basis {basis!r}")
    elif basis == "single_slope" and single_slope_prime(coeffs) is None:
        problems.append("no single-slope prime replays")
    elif basis == "degree_set_filter" and replay_filter and not proves_irreducible(coeffs):
        problems.append("degree-set irreducibility proof does not replay")
    return problems


def check_glp(n: int, alpha: Fraction, out: dict, golden: Optional[list],
              replay_filter: bool = True) -> list[str]:
    """Check one classification dict against the golden (group, square, basis)
    entry: a claim may go beyond the table (it is then replayed), but may not
    contradict it, and a group claim or an irreducibility proof the table holds
    may not be lost."""
    problems = []
    square = is_square(schur_product(n, alpha))
    if out["n"] != n or Fraction(out["alpha"]) != alpha:
        problems.append("classification is for another (n, alpha)")
    if out["disc_is_square"] != square:
        problems.append(f"disc_is_square={out['disc_is_square']} but the Schur product says {square}")
    group = out["group"]
    claims = group in ("A_n", "S_n")
    if claims and (group == "A_n") != square:
        problems.append(f"group {group} contradicts discriminant squareness")
    if claims != (out["certificate"]["verdict"] == CONTAINS_AN):
        problems.append(f"group {group} with certificate verdict {out['certificate']['verdict']}")
    if golden is None:
        problems.append("no golden entry")
    else:
        if claims and golden[0] not in ("inconclusive", group):
            problems.append(f"group {group} contradicts golden {golden[0]}")
        if not claims and golden[0] != "inconclusive":
            problems.append(f"group {group} where the golden table certifies {golden[0]}")
        if golden[2] in PROOF_BASES and out["irreducibility_basis"] not in PROOF_BASES:
            problems.append(f"irreducibility basis {out['irreducibility_basis']!r} where the "
                            f"golden table proves it by {golden[2]}")
    if claims and not problems:
        problems += check_certificate(glp_coeffs(n, alpha), out["certificate"],
                                      replay_filter=replay_filter)
    return problems


def check_index(coeffs: Sequence[Fraction], index: int, witnesses: dict) -> list[str]:
    """Witness slopes lie on the hulls; the index is their denominators' lcm;
    no prime found by trial division on a_0 * a_n is missing."""
    g = primitive(coeffs)
    problems = []
    denoms = [1]
    for p, slopes in witnesses.items():
        ramified = [s for s in hull_slopes(g, int(p)) if s.denominator > 1]
        if [Fraction(s) for s in slopes] != ramified:
            problems.append(f"witness slopes at {p} differ from the hull's {ramified}")
        denoms += [Fraction(s).denominator for s in slopes]
    if index != math.lcm(*denoms):
        problems.append(f"index {index} is not the lcm of the witness denominators")
    for p in small_prime_factors(g[0] * g[-1]):
        if str(p) not in witnesses and any(s.denominator > 1 for s in hull_slopes(g, p)):
            problems.append(f"prime {p} has ramified slopes but no witness")
    return problems


def sqfree_mod(coeffs: Sequence[int], p: int) -> bool:
    """f mod p keeps its degree and is square-free (gcd(f, f') = 1 in F_p[x])."""
    a = [c % p for c in coeffs]
    if a[-1] == 0:
        return False
    b = [(j * c) % p for j, c in enumerate(a)][1:]

    def trim(v):
        while v and v[-1] == 0:
            v.pop()
        return v

    a, b = trim(a), trim(b)
    while b:
        inv = pow(b[-1], -1, p)
        while len(a) >= len(b):
            q = a[-1] * inv % p
            shift = len(a) - len(b)
            for i, c in enumerate(b):
                a[shift + i] = (a[shift + i] - q * c) % p
            trim(a)
            if not a:
                break
        a, b = b, a
    return len(a) == 1


def check_frobenius(coeffs: Sequence[Fraction], samples: list[tuple[int, list[int]]],
                    verdict: str, want: int, cross_check: bool) -> list[str]:
    """The samples are the first `want` good primes, ascending; every cycle
    type sums to n; the parity verdict follows; optionally each cycle type
    equals sympy's factorization mod p.  Inputs are integer polynomials."""
    g = [int(c) for c in coeffs]
    n = len(g) - 1
    problems = []
    primes = [p for p, _ in samples]
    if len(primes) != want:
        problems.append(f"{len(primes)} samples, wanted {want}")
    expected, p = [], 1
    while len(expected) < len(primes):
        p += 1
        if is_prime(p) and sqfree_mod(g, p):
            expected.append(p)
    if primes != expected:
        problems.append(f"sample primes {primes} are not the first good primes {expected}")
    odd = False
    for p, degrees in samples:
        if sum(degrees) != n:
            problems.append(f"cycle type {degrees} mod {p} does not sum to {n}")
        odd |= (n - len(degrees)) % 2 == 1
        if cross_check and mod_p_degrees(g, p) != sorted(degrees):
            problems.append(f"cycle type {degrees} mod {p} differs from sympy")
    if verdict != ("contains-odd-permutation" if odd else "all-even-so-far"):
        problems.append(f"parity verdict {verdict} does not follow from the samples")
    return problems


def check_polygon(coeffs: Sequence[Fraction], p: int, out: dict) -> list[str]:
    slopes = [Fraction(s["slope"]) for s in out["segments"]]
    if slopes != hull_slopes(coeffs, p):
        return [f"polygon slopes {slopes} at {p} differ from the hull"]
    return []


def check_disc(n: int, alpha: Fraction, out: dict) -> list[str]:
    delta = schur_product(n, alpha)
    if Fraction(out["discriminant"]) != delta or out["square"] != is_square(delta):
        return [f"glp-disc n={n} alpha={alpha} disagrees with the Schur product"]
    return []
