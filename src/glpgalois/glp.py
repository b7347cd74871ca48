"""Generalized Laguerre Polynomials and the A_n / S_n classifier.

L_n^(a)(x) = sum_j binom(n+a, n-j) (-x)^j / j! for rational a that is not an
integer in [-n, -1], where x divides it.  The classifier works with the monic
integral normalization f(x) = mu^n n! L_n^(lam/mu)(-x/mu) = sum_j binom(n,j)
c_j x^j with c_j = prod_{k=j+1}^n (k*mu + lam).  It reads off the n small
factors k*mu + lam, never building the c_j, the p-adic Newton polygons of f,
the valuations behind the criterion-prime shortcut in the Jordan window, and
the squareness of the discriminant product Delta = prod_{j=2}^n j^j
(a+j)^(j-1), which resolves A_n vs S_n.  The coefficients of f are built only
when the mod-p degree-set filter needs f itself, and Delta only on request.

The polygon atlas holds each candidate prime's hull vertices and nothing
else; the index and its witnesses need only those.  Every height of f's
polygons is >= 0 and the last point is (n, 0), so a vertex is (n, 0) or a
strict prefix minimum of the heights, and at p > n, where p divides at
most one factor k*mu + lam, the vertices are known without a hull.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, islice
from typing import Optional, Union

from .certify import (
    ASSUMED,
    CONTAINS_AN,
    DEGREE_SET_FILTER,
    SINGLE_SLOPE,
    GaloisCertificate,
    _lemma_key_holds,
    certificate_to_dict,
    certify_from_reports,
    jordan_window_primes,
)
from ._record import Record
from .errors import DomainError
from .modp import degree_set_filter
from .newton import NewtonIndexReport, _lower_hull, index_report
from .polys import Poly
from .primes import _multiplicity, prime_factors, primes, primes_in_ap_interval

GROUP_AN = "A_n"
GROUP_SN = "S_n"
GROUP_INCONCLUSIVE = "inconclusive"

_EVIDENCE_PRIME_BUDGET = 10


class GlpParams(Record):
    __slots__ = ("n", "lam", "mu")

    def __init__(self, n: int, lam: int, mu: int) -> None:
        self._set("n", n)
        self._set("lam", lam)
        self._set("mu", mu)
        if n < 1:
            raise DomainError("degree must be positive")
        if mu < 1:
            raise DomainError("mu must be >= 1")
        if math.gcd(lam, mu) != 1:
            raise DomainError("lam/mu must be in lowest terms")
        if mu == 1 and -n <= lam <= -1:
            raise DomainError(
                "alpha must not be an integer in [-n, -1] (x divides the polynomial)"
            )

    @staticmethod
    def from_alpha(n: int, alpha: Union[int, Fraction, str]) -> "GlpParams":
        a = Fraction(alpha)
        return GlpParams(n=n, lam=a.numerator, mu=a.denominator)

    @property
    def alpha(self) -> Fraction:
        return Fraction(self.lam, self.mu)


class Classification(Record):
    __slots__ = (
        "group",
        "discriminant_is_square",
        "certificate",
        "criterion_prime",
        "ell",
        "params",
    )

    def __init__(
        self,
        group: str,
        discriminant_is_square: bool,
        certificate: GaloisCertificate,
        criterion_prime: Optional[int],
        ell: Optional[int],
        params: GlpParams,
    ) -> None:
        self._set("group", group)
        self._set("discriminant_is_square", discriminant_is_square)
        self._set("certificate", certificate)
        self._set("criterion_prime", criterion_prime)
        self._set("ell", ell)
        self._set("params", params)
        if group in (GROUP_AN, GROUP_SN):
            if certificate.verdict != CONTAINS_AN:
                raise DomainError(f"group {group} claimed without a contains_An certificate")
            if discriminant_is_square != (group == GROUP_AN):
                raise DomainError(f"group {group} contradicts the discriminant's squareness")

    @property
    def discriminant(self) -> Fraction:
        """Schur's product Delta, built on access; `classify` needs only its
        squareness."""
        return schur_discriminant(self.params.n, self.params.alpha)


def glp(params: GlpParams) -> Poly:
    """L_n^(alpha) with exact rational coefficients: glp_normalized(params) is
    f(x) = mu^n n! L_n^(alpha)(-x/mu), so L_n^(alpha)(x) = f(-mu x) / (mu^n n!)."""
    n, mu = params.n, params.mu
    return glp_normalized(params).scale_x(-mu) * Fraction(1, mu**n * math.factorial(n))


def normalized_coefficient_products(params: GlpParams) -> list[int]:
    """c_j = prod_{k=j+1}^n (k*mu + lam) for j = 0..n (c_n = 1)."""
    n, lam, mu = params.n, params.lam, params.mu
    c = [1] * (n + 1)
    for j in range(n - 1, -1, -1):
        c[j] = c[j + 1] * ((j + 1) * mu + lam)
    return c


def glp_normalized(params: GlpParams) -> Poly:
    """The monic integral form mu^n n! L_n^(lam/mu)(-x/mu)."""
    n = params.n
    c = normalized_coefficient_products(params)
    return Poly.from_coeffs([math.comb(n, j) * c[j] for j in range(n + 1)])


def glp_newton_index(params: GlpParams) -> NewtonIndexReport:
    """newton_index(glp_normalized(params)), hull for hull, from the n small
    factors k*mu + lam instead of the coefficients binom(n,j) c_j.

    The candidate primes are the primes of c_0 = prod_k (k*mu + lam).  At p
    every height ord_p(binom(n,j) c_j) is >= 0 and the last point is (n, 0),
    so the hull falls from (0, h_0) until it reaches height 0: every vertex is
    (n, 0) or a strict prefix minimum of the heights, and the hull is taken
    over those alone.  At p > n there is no hull to take: p does not divide
    mu (lam/mu is in lowest terms), so it divides at most one factor, at
    some k, since 1 <= k <= n < p; the heights are e = ord_p(k*mu + lam) for
    j < k and 0 from k on, and the vertices are (0, e), (k, 0) and (n, 0)."""
    n, lam, mu = params.n, params.lam, params.mu
    drops: dict[int, list[tuple[int, int]]] = {}  # p -> [(k, ord_p(k*mu + lam))]
    for k in range(1, n + 1):
        factor = k * mu + lam
        for p in prime_factors(factor):
            drops.setdefault(p, []).append((k, _multiplicity(factor, p)))
    hulls = {}
    for p in sorted(drops):
        if p > n:
            ((k, e),) = drops[p]
            hulls[p] = ((0, e), (k, 0), (n, 0)) if k < n else ((0, e), (n, 0))
        else:
            hulls[p] = _lower_hull(_prefix_minima(_glp_heights(n, p, drops[p])))
    return index_report(hulls)


def _glp_heights(n: int, p: int, drops: list[tuple[int, int]]) -> list[int]:
    """ord_p(binom(n,j) c_j) for j = 0..n, from drops = [(k, ord_p(k*mu + lam))]
    over the k with p | k*mu + lam: ord_p(n!) - ord_p(j!) - ord_p((n-j)!)
    (Legendre) plus the sum of the drops at k > j."""
    at = [0] * n
    for k, e in drops:
        at[k - 1] = e
    heights = _suffix_sums(at)
    legendre = [0] * (n + 1)
    for m in range(p, n + 1, p):
        legendre[m] = _multiplicity(m, p)
    fact = list(accumulate(legendre))  # ord_p(m!)
    top = fact[n]
    return [h + top - a - b for h, a, b in zip(heights, fact, reversed(fact))]


def _prefix_minima(heights: list[int]) -> list[tuple[int, int]]:
    """The strict prefix minima (j, h_j) of heights that are >= 0 and end in
    0, up to the first 0, then the last point: among them is every vertex
    of the lower hull of all the points."""
    points, low = [], heights[0] + 1
    for j, h in enumerate(heights):
        if h < low:
            points.append((j, h))
            low = h
            if not h:  # no later height is lower
                break
    last = len(heights) - 1
    if points[-1][0] != last:
        points.append((last, 0))
    return points


def _suffix_sums(drops: list[int]) -> list[int]:
    """ord_p(c_j) for j = 0..n, from drops = [ord_p(k*mu + lam) for k = 1..n]:
    the sum of the drops over k > j."""
    sums = list(accumulate(reversed(drops), initial=0))
    sums.reverse()
    return sums


def schur_discriminant(n: int, alpha: Union[int, Fraction]) -> Fraction:
    """Delta = prod_{j=2}^n j^j (alpha+j)^(j-1); defined as 1 for n = 1.  With
    alpha = lam/mu each alpha + j is (j*mu + lam)/mu, so Delta is one integer
    product over mu^(n(n-1)/2), taken in a balanced product tree."""
    if n < 1:
        raise DomainError("degree must be positive")
    a = Fraction(alpha)
    lam, mu = a.numerator, a.denominator
    terms = [j**j * (j * mu + lam) ** (j - 1) for j in range(2, n + 1)]
    return Fraction(_product_tree(terms), mu ** (n * (n - 1) // 2))


def _product_tree(terms: list[int]) -> int:
    """prod(terms), multiplying neighbours pairwise level by level, so that
    the operands of each product are of about equal size."""
    while len(terms) > 1:
        terms = [math.prod(terms[i : i + 2]) for i in range(0, len(terms), 2)]
    return terms[0] if terms else 1


def is_schur_square(params: GlpParams) -> bool:
    """is_rational_square(schur_discriminant(n, alpha)) from the n small
    factors.  Delta * mu^(n(n-1)) = mu^(n(n-1)/2) prod_j j^j (j*mu + lam)^(j-1)
    is a square exactly when Delta is, and dropping its even powers leaves
    M = prod_{odd j} j * prod_{even j} (j*mu + lam), times mu when n(n-1)/2
    is odd: Delta is a square iff M is a non-negative square."""
    n, lam, mu = params.n, params.lam, params.mu
    m = math.prod(range(3, n + 1, 2)) * math.prod(range(2 * mu + lam, n * mu + lam + 1, 2 * mu))
    if n * (n - 1) // 2 % 2:
        m *= mu
    return m >= 0 and math.isqrt(m) ** 2 == m


def is_rational_square(q: Union[int, Fraction]) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    return (
        math.isqrt(q.numerator) ** 2 == q.numerator
        and math.isqrt(q.denominator) ** 2 == q.denominator
    )


def find_criterion_prime(params: GlpParams) -> Optional[tuple[int, int]]:
    """Largest prime p = mu*ell + lam in the search window that passes the
    coefficient-valuation shortcut (lemma_key_check on the c_j, whose
    valuations are read off the factors k*mu + lam); returns (p, ell) or None.
    For alpha < -n every factor k*mu + lam with k <= n is negative, so there
    is none."""
    n, lam, mu = params.n, params.lam, params.mu
    if n < 5 or lam < -n * mu:
        return None
    lo = -((-(n * mu + mu + lam)) // (mu + 1))  # ceil
    if lo > n - 3:
        return None
    for p in reversed(primes_in_ap_interval(lam, mu, lo, n - 3)):
        drops = [_multiplicity(k * mu + lam, p) for k in range(1, n + 1)]
        if _lemma_key_holds(n, p, _suffix_sums(drops)):
            return p, (p - lam) // mu
    return None


def _irreducibility_evidence(
    params: GlpParams, report: NewtonIndexReport, assume: bool
) -> Optional[str]:
    """The irreducibility basis of f = glp_normalized(params), whose polygons
    are in report.  For this monic integral f, p is good exactly when p does
    not divide disc(f) = mu^(n(n-1)/2) prod_{j=2}^n j^j (j*mu + lam)^(j-1):
    for n >= 2, when p > n and p divides neither mu nor any j*mu + lam."""
    if report.single_slope:
        return SINGLE_SLOPE
    n, lam, mu = params.n, params.lam, params.mu
    bad = mu * math.prod(range(2 * mu + lam, n * mu + lam + 1, mu)) if n > 1 else 1
    sample = list(islice((p for p in primes() if p > n and bad % p), _EVIDENCE_PRIME_BUDGET))
    if degree_set_filter(glp_normalized(params), sample) == {0, n}:
        return DEGREE_SET_FILTER
    return ASSUMED if assume else None


def classify(params: GlpParams, assume_irreducible: bool = False) -> Classification:
    """Decide A_n vs S_n for L_n^(alpha) from a certificate whose preferred window
    prime is the criterion prime, and the squareness of the discriminant; honest
    `inconclusive` otherwise, also when irreducibility is neither proved nor assumed."""
    n = params.n
    square = is_schur_square(params)
    report = glp_newton_index(params)
    basis = _irreducibility_evidence(params, report, assume_irreducible)

    crit = find_criterion_prime(params)
    window = ([crit[0]] if crit else []) + jordan_window_primes(n)
    cert = certify_from_reports(n, [(Fraction(0), report)], basis, window)

    if cert.verdict == CONTAINS_AN:
        group = GROUP_AN if square else GROUP_SN
    else:
        group = GROUP_INCONCLUSIVE
    return Classification(
        group=group,
        discriminant_is_square=square,
        certificate=cert,
        criterion_prime=crit[0] if crit else None,
        ell=crit[1] if crit else None,
        params=params,
    )


def classification_to_dict(c: Classification) -> dict:
    return {
        "n": c.params.n,
        "alpha": str(c.params.alpha),
        "group": c.group,
        "disc_is_square": c.discriminant_is_square,
        "criterion_prime": c.criterion_prime,
        "ell": c.ell,
        "certificate": certificate_to_dict(c.certificate),
        "irreducibility_basis": c.certificate.irreducibility_basis,
    }
