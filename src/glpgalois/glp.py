"""Generalized Laguerre Polynomials and the A_n / S_n classifier.

L_n^(a)(x) = sum_j binom(n+a, n-j) (-x)^j / j! for rational a that is not an
integer in [-n, -1], where x divides it.  The classifier works with the monic
integral normalization f(x) = mu^n n! L_n^(lam/mu)(-x/mu) = sum_j binom(n,j)
c_j x^j with c_j = prod_{k=j+1}^n (k*mu + lam), reads its p-adic Newton
polygons off the n small factors k*mu + lam (never building the c_j), hunts
for a criterion prime in the Jordan window via the coefficient-valuation
shortcut, and resolves A_n vs S_n by the squareness of the discriminant
product Delta = prod_{j=2}^n j^j (a+j)^(j-1).  The coefficients of f are
built only when the mod-p degree-set filter needs f itself.
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
    certificate_to_dict,
    certify_from_reports,
    jordan_window_primes,
    lemma_key_check,
)
from ._record import Record
from .errors import DomainError
from .modp import degree_set_filter
from .newton import NewtonIndexReport, index_report, polygon_from_points
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
        "discriminant",
        "discriminant_is_square",
        "certificate",
        "criterion_prime",
        "ell",
        "params",
    )

    def __init__(
        self,
        group: str,
        discriminant: Fraction,
        discriminant_is_square: bool,
        certificate: GaloisCertificate,
        criterion_prime: Optional[int],
        ell: Optional[int],
        params: GlpParams,
    ) -> None:
        self._set("group", group)
        self._set("discriminant", discriminant)
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


def glp(params: GlpParams) -> Poly:
    """L_n^(alpha) with exact rational coefficients."""
    n, a = params.n, params.alpha
    coeffs = []
    for j in range(n + 1):
        binom = Fraction(1)
        for i in range(j + 1, n + 1):
            binom *= a + i
        binom /= math.factorial(n - j)
        coeffs.append((-1) ** j * binom / math.factorial(j))
    return Poly.from_coeffs(coeffs)


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
    """newton_index(glp_normalized(params)), polygon for polygon, from the n
    small factors k*mu + lam instead of the coefficients binom(n,j) c_j.

    The candidate primes are the primes of c_0 = prod_k (k*mu + lam).  At p
    the height at j is ord_p(n!) - ord_p(j!) - ord_p((n-j)!) (Legendre) plus
    the suffix sum of ord_p(k*mu + lam) over k > j."""
    n, lam, mu = params.n, params.lam, params.mu
    drops: dict[int, list[int]] = {}  # p -> ord_p(k*mu + lam) at index k - 1
    for k in range(1, n + 1):
        factor = k * mu + lam
        for p in prime_factors(factor):
            drops.setdefault(p, [0] * (n + 1))[k - 1] = _multiplicity(factor, p)
    polygons = {}
    for p in sorted(drops):
        heights = list(accumulate(reversed(drops[p])))
        heights.reverse()
        if p <= n:
            legendre = [0] * (n + 1)
            for m in range(p, n + 1, p):
                legendre[m] = _multiplicity(m, p)
            fact = list(accumulate(legendre))  # ord_p(m!)
            top = fact[n]
            heights = [h + top - a - b for h, a, b in zip(heights, fact, reversed(fact))]
        polygons[p] = polygon_from_points(p, list(enumerate(heights)))
    return index_report(polygons)


def schur_discriminant(n: int, alpha: Union[int, Fraction]) -> Fraction:
    """Delta = prod_{j=2}^n j^j (alpha+j)^(j-1); defined as 1 for n = 1.  With
    alpha = lam/mu each alpha + j is (j*mu + lam)/mu, so Delta is one integer
    product over mu^(n(n-1)/2)."""
    if n < 1:
        raise DomainError("degree must be positive")
    a = Fraction(alpha)
    lam, mu = a.numerator, a.denominator
    num = 1
    for j in range(2, n + 1):
        num *= j**j * (j * mu + lam) ** (j - 1)
    return Fraction(num, mu ** (n * (n - 1) // 2))


def normalized_discriminant(params: GlpParams) -> Fraction:
    """Discriminant of glp_normalized: the x -> -x/mu rescaling multiplies the
    Schur product by mu^(n(n-1))."""
    n = params.n
    return params.mu ** (n * (n - 1)) * schur_discriminant(n, params.alpha)


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
    coefficient-valuation shortcut; returns (p, ell) or None.  For alpha < -n
    every factor k*mu + lam with k <= n is negative, so there is none."""
    n, lam, mu = params.n, params.lam, params.mu
    if n < 5 or lam < -n * mu:
        return None
    c = normalized_coefficient_products(params)
    lo = -((-(n * mu + mu + lam)) // (mu + 1))  # ceil
    if lo > n - 3:
        return None
    for p in reversed(primes_in_ap_interval(lam, mu, lo, n - 3)):
        if p <= 2:  # lemma_key_check needs an odd prime; e.g. mu=3, alpha=-10/3, n=5 gives 2
            continue
        if lemma_key_check(n, c, p):
            return p, (p - lam) // mu
    return None


def _irreducibility_evidence(
    params: GlpParams, report: NewtonIndexReport, delta: Fraction, assume: bool
) -> Optional[str]:
    """The irreducibility basis of glp_normalized(params), whose polygons are
    in report and whose discriminant is mu^(n(n-1)) * delta.  For this monic
    integral f, p is good exactly when p does not divide the discriminant."""
    if report.single_slope:
        return SINGLE_SLOPE
    n = params.n
    f = glp_normalized(params)
    disc = int(params.mu ** (n * (n - 1)) * delta)  # = normalized_discriminant(params)
    sample = list(islice((p for p in primes() if disc % p), _EVIDENCE_PRIME_BUDGET))
    if degree_set_filter(f, sample) == {0, n}:
        return DEGREE_SET_FILTER
    return ASSUMED if assume else None


def classify(params: GlpParams, assume_irreducible: bool = False) -> Classification:
    """Decide A_n vs S_n for L_n^(alpha) from a certificate whose preferred window
    prime is the criterion prime, and the squareness of the discriminant; honest
    `inconclusive` otherwise, also when irreducibility is neither proved nor assumed."""
    n = params.n
    delta = schur_discriminant(n, params.alpha)
    square = is_rational_square(delta)
    report = glp_newton_index(params)
    basis = _irreducibility_evidence(params, report, delta, assume_irreducible)

    crit = find_criterion_prime(params)
    window = ([crit[0]] if crit else []) + jordan_window_primes(n)
    cert = certify_from_reports(n, [(Fraction(0), report)], basis, window)

    if cert.verdict == CONTAINS_AN:
        group = GROUP_AN if square else GROUP_SN
    else:
        group = GROUP_INCONCLUSIVE
    return Classification(
        group=group,
        discriminant=delta,
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
