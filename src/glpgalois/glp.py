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
else; the index and its witnesses need only those.  It is built from the
drops {p: [(k, ord_p(k*mu + lam))]}, which also decide the criterion prime,
sieved along the progression: a prime p <= B = min(2^16, isqrt(max |k*mu +
lam|)) not dividing mu divides exactly the factors with k = -lam/mu (mod p).
A cofactor r > 1 left has no prime factor <= B, so it is prime if r <
(B+1)^2 and is split like `prime_factors`' large cofactors otherwise.
At every p the heights h_j = ord_p(binom(n,j)) + S(j), with S(j) the drops
at k > j, are >= 0 and h_n = 0, so a vertex is (n, 0) or a strict prefix
minimum.  With n = Np + r, by Kummer ord_p(binom(n, mp+t)) for 0 <= t < p
is c_m = ord_p(binom(N,m)) if t <= r, else c_m + 1 + ord_p(N-m), and the
drops sit at one offset t = s in every block [mp, mp+p).  When p^2 > n,
N < p, so the binomial adds just [t > r].  If then every drop is simple,
the lowest height of block m is H - m at its start, H the number of drops,
or H - m - 1 at its drop when 0 < s <= r.  So the hull is a staircase fixed
by H, s and r: (0, H), (Hp, 0), (n, 0) when s = 0 or s > r, and (0, H),
(s, H-1), ((H-1)p + s, 0), (n, 0) when 0 < s <= r, without (s, H-1) when
H = 1 and without a last (n, 0) that repeats the vertex before it.  At
p > n one drop (k, e) gives the second shape with H = 1 and any e:
(0, e), (k, 0), (n, 0).
`newton.index_report` writes these down from (H, s, e) and reads their
slope denominators off them.  The atlas walks the blocks only at the other
primes, p <= isqrt(n) or p <= n with p^2 dividing some k*mu + lam: there a
new minimum starts a block or is its drop, so it visits these points,
O(n/p) steps per prime, not n + 1 heights, and pushes each new minimum onto
the hull as it finds it.  Written down, the hulls at isqrt(n) < p <= n take
`_atlas` at n = 10^4 from about 20 to 16 ms (alpha = 0, one pinned CPU of a
2-vCPU Xeon VM).

`glp` imports neither `certify` nor `newton` (nor `modp`), so `glp-disc`
loads none of them: the classifier reaches them as attributes of the lazy
package namespace, which imports each on first use and is then a plain
attribute read, not an import statement per call.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from itertools import compress, islice
from typing import TYPE_CHECKING, Optional, Union

import glpgalois  # certify, newton and modp are read as its attributes

from ._record import Record
from .errors import DomainError
from .polys import Poly
from .primes import _SIEVE, _add_large_prime_factors, _balanced, _multiplicity, primes

if TYPE_CHECKING:  # for annotations only
    from .certify import GaloisCertificate
    from .newton import NewtonIndexReport

GROUP_AN = "A_n"
GROUP_SN = "S_n"
GROUP_INCONCLUSIVE = "inconclusive"

_EVIDENCE_PRIME_BUDGET = 10
# the largest degree that a function looping over k = 1..n accepts; at
# n = 10^5 the atlas and the squareness test each take a few seconds
N_BUDGET = 100_000
# the largest degree at which `classify` runs the mod-p degree-set filter on
# f's coefficients: it took 0.3, 2.0, 11.2 and 29.7 s at n = 200, 400, 600
# and 1000 (alpha = 5/3), and past it the basis is left unproved
FILTER_N_BUDGET = 1000


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
            if certificate.verdict != glpgalois.certify.CONTAINS_AN:
                raise DomainError(f"group {group} claimed without a contains_An certificate")
            if discriminant_is_square != (group == GROUP_AN):
                raise DomainError(f"group {group} contradicts the discriminant's squareness")

    @property
    def discriminant(self) -> Fraction:
        """Schur's product Delta, built on access; `classify` needs only its
        squareness."""
        return schur_discriminant(self.params.n, self.params.alpha)


def _check_effort(n: int) -> None:
    """DomainError past N_BUDGET.  The mod-p filter on f has its own, lower
    bound: past FILTER_N_BUDGET `classify` does not run it."""
    if n > N_BUDGET:
        raise DomainError(f"degree {n} is over the effort budget N_BUDGET = {N_BUDGET}")


def glp(params: GlpParams) -> Poly:
    """L_n^(alpha) with exact rational coefficients: glp_normalized(params) is
    f(x) = mu^n n! L_n^(alpha)(-x/mu), so L_n^(alpha)(x) = f(-mu x) / (mu^n n!)."""
    n, mu = params.n, params.mu
    return glp_normalized(params).scale_x(-mu) * Fraction(1, mu**n * math.factorial(n))


def normalized_coefficient_products(params: GlpParams) -> list[int]:
    """c_j = prod_{k=j+1}^n (k*mu + lam) for j = 0..n (c_n = 1)."""
    _check_effort(params.n)
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
    """newton_index(glp_normalized(params)) from the n small factors k*mu + lam."""
    _check_effort(params.n)
    return _atlas(params.n, _drops(params))


def _drops(params: GlpParams) -> dict[int, list[tuple[int, int]]]:
    """{p: [(k, ord_p(k*mu + lam))]} over the k = 1..n with p | k*mu + lam,
    ascending in k, by a sieve along the progression (see the module)."""
    n, lam, mu = params.n, params.lam, params.mu
    rest = [abs(k * mu + lam) for k in range(n + 1)]
    bound = min(1 << 16, math.isqrt(max(rest[1], rest[n])))
    rest[0] = 1  # k = 0 is no factor
    drops: dict[int, list[tuple[int, int]]] = {}
    for p in compress(range(bound + 1), _SIEVE):
        if mu % p:
            ks = []
            for k in range((-lam * pow(mu, -1, p) - 1) % p + 1, n + 1, p):
                m, e = rest[k] // p, 1
                while not m % p:
                    m //= p
                    e += 1
                rest[k] = m
                ks.append((k, e))
            if ks:
                drops[p] = ks
    big = bound * (bound + 2)  # (bound+1)^2 - 1: a cofactor up to it is prime
    for k, m in enumerate(rest):
        if m > big:  # no prime factor <= bound, so split as prime_factors does
            large: set[int] = set()
            _add_large_prime_factors(m, large)
            for q in large:
                drops.setdefault(q, []).append((k, _multiplicity(m, q)))
        elif m > 1:  # a prime above bound, whose square exceeds every factor
            drops.setdefault(m, []).append((k, 1))
    return drops


def _atlas(n: int, drops: dict[int, list[tuple[int, int]]]) -> NewtonIndexReport:
    """The Newton index report of f from its drops.  At p > n, and at p with
    p^2 > n whose drops are all simple, the hull is a staircase that
    `newton.index_report` writes down from (H, s, e): the number of drops,
    the offset k mod p of the first and its e (see the module).  At the
    other p the blocks are walked."""
    hulls: dict = {}
    for p in sorted(drops):
        ks = drops[p]
        if p * p > n and (p > n or all(e == 1 for _, e in ks)):
            hulls[p] = (len(ks), ks[0][0] % p, ks[0][1])
        else:
            hulls[p] = _block_hull(n, p, ks)
    return glpgalois.newton.index_report(hulls, n)


def _block_hull(n: int, p: int, ks: list[tuple[int, int]]) -> list[tuple[int, int]]:
    """The hull at p of f from its drops ks at p, by the walk over the blocks
    (see the module).  It keeps c = ord_p binom(N, m), which changes by
    ord_p(N-m+1) - ord_p(m) from block m-1 to block m, and v = ord_p(N-m),
    which also lifts the drop of block m when s > r; both are divided out
    inline.  Each strict prefix minimum goes onto the hull as it is found."""
    push = glpgalois.newton._hull_push
    N, r = divmod(n, p)
    s = ks[0][0] % p  # each block [mp, mp + p) has its drop at mp + s
    h = sum(e for _, e in ks)  # S(j), the drops at k > j
    hull, low, c, v = [(0, h)], h, 0, 0  # c = ord_p binom(N, m), v = ord_p(N - m)
    for m in range(N + 1):
        if m:  # the start of block m
            x = m
            c += v
            while not x % p:
                x //= p
                c -= 1
            if not s:
                h -= ks[m - 1][1]
            if c + h < low:
                low = c + h
                push(hull, m * p, low)
        if m < N:
            x, v = N - m, 0
            while not x % p:
                x //= p
                v += 1
        if s and (s <= r or m < N):  # the drop of block m
            h -= ks[m][1]
            t = h + c if s <= r else h + c + 1 + v
            if t < low:
                low = t
                push(hull, m * p + s, low)
    push(hull, n, 0)  # replaces a last (n, 0)
    return hull


def schur_discriminant(n: int, alpha: Union[int, Fraction]) -> Fraction:
    """Delta = prod_{j=2}^n j^j (alpha+j)^(j-1); defined as 1 for n = 1.  With
    alpha = lam/mu each alpha + j is (j*mu + lam)/mu, so Delta is one integer
    product over mu^(n(n-1)/2), taken in a balanced product tree."""
    if n < 1:
        raise DomainError("degree must be positive")
    _check_effort(n)
    a = Fraction(alpha)
    lam, mu = a.numerator, a.denominator
    terms = [j**j * (j * mu + lam) ** (j - 1) for j in range(2, n + 1)]
    return Fraction(_balanced(operator.mul, terms), mu ** (n * (n - 1) // 2))


def is_schur_square(params: GlpParams) -> bool:
    """is_rational_square(schur_discriminant(n, alpha)) from the n small
    factors.  Delta * mu^(n(n-1)) = mu^(n(n-1)/2) prod_j j^j (j*mu + lam)^(j-1)
    is a square exactly when Delta is, and dropping its even powers leaves
    M = prod_{odd j} j * prod_{even j} (j*mu + lam), times mu when n(n-1)/2
    is odd: Delta is a square iff M is a non-negative square."""
    _check_effort(params.n)
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


def find_criterion_prime(
    params: GlpParams, drops: Optional[dict] = None
) -> Optional[tuple[int, int]]:
    """Largest prime p = mu*ell + lam in the search window that passes the
    coefficient-valuation shortcut on the c_j, read from the drops (built
    here when not given); returns (p, ell) or None.  ord_p(c_j) sums the
    drops at k > j and must be 1 at 1 <= j <= n - p and 0 at j = p: among
    k = 2..n one k has p | k*mu + lam, to the first power, with n - p < k <= p.
    For alpha < -n every factor k*mu + lam with k <= n is negative, so there
    is none."""
    _check_effort(params.n)
    n, lam, mu = params.n, params.lam, params.mu
    lo = -((-(n * mu + mu + lam)) // (mu + 1))  # ceil
    if n < 5 or lam < -n * mu or lo > n - 3:
        return None
    drops = _drops(params) if drops is None else drops
    for p in sorted(drops, reverse=True):
        if lo <= p <= n - 3 and 2 * p > n and (p - lam) % mu == 0:
            if [e * (n - p < k <= p) for k, e in drops[p] if k > 1] == [1]:
                return p, (p - lam) // mu
    return None


def _irreducibility_evidence(
    params: GlpParams, report: NewtonIndexReport, assume: bool
) -> Optional[str]:
    """The irreducibility basis of f = glp_normalized(params), whose polygons
    are in report.  For this monic integral f, p is good exactly when p does
    not divide disc(f) = mu^(n(n-1)/2) prod_{j=2}^n j^j (j*mu + lam)^(j-1):
    for n >= 2, when p > n and p divides neither mu nor any j*mu + lam.
    Past FILTER_N_BUDGET the filter does not run, and the basis is what a
    failed filter leaves: `assumed` when assumed, None otherwise."""
    certify = glpgalois.certify
    if report.single_slope:
        return certify.SINGLE_SLOPE
    n, lam, mu = params.n, params.lam, params.mu
    if n <= FILTER_N_BUDGET:
        bad = mu * math.prod(range(2 * mu + lam, n * mu + lam + 1, mu)) if n > 1 else 1
        sample = list(islice((p for p in primes() if p > n and bad % p), _EVIDENCE_PRIME_BUDGET))
        if glpgalois.modp.degree_set_filter(glp_normalized(params), sample) == {0, n}:  # loads modp
            return certify.DEGREE_SET_FILTER
    return certify.ASSUMED if assume else None


def classify(params: GlpParams, assume_irreducible: bool = False) -> Classification:
    """Decide A_n vs S_n for L_n^(alpha) from a certificate whose preferred window
    prime is the criterion prime, and the squareness of the discriminant; honest
    `inconclusive` otherwise, also when irreducibility is neither proved nor assumed."""
    certify = glpgalois.certify
    n = params.n
    square = is_schur_square(params)
    drops = _drops(params)
    report = _atlas(n, drops)
    basis = _irreducibility_evidence(params, report, assume_irreducible)
    crit = find_criterion_prime(params, drops)
    window = ([crit[0]] if crit else []) + certify.jordan_window_primes(n)
    cert = certify.certify_from_reports(n, [(Fraction(0), report)], basis, window)

    if cert.verdict == certify.CONTAINS_AN:
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
        "certificate": glpgalois.certify.certificate_to_dict(c.certificate),
        "irreducibility_basis": c.certificate.irreducibility_basis,
    }
