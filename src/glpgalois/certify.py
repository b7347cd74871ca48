"""Large-Galois-group certification from Newton indices.

For an irreducible f of degree n, the Newton index of any translate
g(x) = f(x - mu) divides the order of the Galois group of f; if the index has
a prime divisor q with n/2 < q < n - 2, the group contains a q-cycle and hence
A_n (Jordan).  The certificate records the full witness chain (shift,
valuation prime, slope, window prime) so a verdict can be replayed.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

from ._record import Record
from .errors import DomainError
from .newton import NewtonIndexReport, newton_index
from .polys import Poly
from .primes import is_prime, ord_p

CONTAINS_AN = "contains_An"
INDEX_DIVIDES = "index_divides_order_only"
INCONCLUSIVE = "inconclusive"

# how irreducibility was established; None means "not established"
IrreducibilityBasis = Optional[str]
ASSUMED = "assumed"
SINGLE_SLOPE = "single_slope"
DEGREE_SET_FILTER = "degree_set_filter"


class GaloisCertificate(Record):
    __slots__ = (
        "verdict",
        "n",
        "shift_used",
        "newton_index",
        "irreducibility_basis",
        "witness_prime_q",
        "valuation_prime_p",
        "slope",
    )

    def __init__(
        self,
        verdict: str,
        n: int,
        shift_used: Fraction,
        newton_index: int,
        irreducibility_basis: IrreducibilityBasis,
        witness_prime_q: Optional[int] = None,
        valuation_prime_p: Optional[int] = None,
        slope: Optional[Fraction] = None,
    ) -> None:
        self._set("verdict", verdict)
        self._set("n", n)
        self._set("shift_used", shift_used)
        self._set("newton_index", newton_index)
        self._set("irreducibility_basis", irreducibility_basis)
        self._set("witness_prime_q", witness_prime_q)
        self._set("valuation_prime_p", valuation_prime_p)
        self._set("slope", slope)
        # Explicit raises, not asserts, so that `python -O` keeps the check.
        if verdict == CONTAINS_AN:
            q = witness_prime_q
            if q is None or not is_prime(q):
                raise DomainError(f"window prime {q} is not prime")
            if not (2 * q > n and q < n - 2):
                raise DomainError(f"window prime {q} is outside (n/2, n-2) for n={n}")
            if newton_index % q:
                raise DomainError(f"window prime {q} does not divide the index {newton_index}")


def certificate_to_dict(cert: GaloisCertificate) -> dict:
    return {
        "verdict": cert.verdict,
        "n": cert.n,
        "shift": str(cert.shift_used),
        "valuation_prime": cert.valuation_prime_p,
        "slope": None if cert.slope is None else str(cert.slope),
        "window_prime": cert.witness_prime_q,
        "newton_index": cert.newton_index,
        "irreducibility_basis": cert.irreducibility_basis,
    }


def jordan_window_primes(n: int) -> list[int]:
    """Primes q with n/2 < q < n - 2, descending."""
    return [q for q in range(n - 3, n // 2, -1) if 2 * q > n and is_prime(q)]


def lemma_key_check(n: int, c: Sequence[Union[int, Fraction]], p: int) -> bool:
    """For f = sum binom(n,j) c_j x^j, check the four-valuation shortcut that
    forces (0,1) and (p,0) to open the p-adic polygon (slope -1/p):
    n/2 < p < n-2; ord_p(c_j) >= 0 everywhere; = 1 for 1 <= j <= n-p; = 0 at j=p.
    """
    if not is_prime(p):
        raise DomainError(f"{p} is not prime")
    if p <= 2 or p >= n:
        raise DomainError(f"prime {p} out of range for degree {n}")
    if len(c) != n + 1:
        raise DomainError("need coefficients c_0..c_n")
    if not (2 * p > n and p < n - 2):
        return False
    vals = {j: ord_p(cj, p) for j, cj in enumerate(c) if cj}  # a zero c_j lies above every line
    if any(v < 0 for v in vals.values()):
        return False
    if any(vals.get(j) != 1 for j in range(1, n - p + 1)):
        return False
    return vals.get(p) == 0


def certify_large_galois(
    f: Poly,
    shifts: Sequence[Union[int, Fraction]] = (0,),
    irreducibility: IrreducibilityBasis = ASSUMED,
) -> GaloisCertificate:
    """Scan translates f(x - mu) for mu in `shifts` (in order) and certify.

    Returns contains_An on the first shift whose Newton index has a prime
    divisor in the Jordan window; otherwise index_divides_order_only carrying
    the largest index found, or inconclusive if every index is 1.  contains_An
    is never claimed when irreducibility is neither established nor asserted.
    """
    reports = ((Fraction(mu), newton_index(f.shift(mu))) for mu in shifts)
    return certify_from_reports(f.degree, reports, irreducibility, jordan_window_primes(f.degree))


def certify_from_reports(
    n: int,
    reports: Iterable[tuple[Fraction, NewtonIndexReport]],
    irreducibility: IrreducibilityBasis,
    window: Sequence[int],
) -> GaloisCertificate:
    """The certificate for the first (shift, report) pair whose index has a
    divisor among the window primes, tried in the given order; see
    certify_large_galois.  Pairs are consumed lazily, up to the first hit."""
    if n < 2:
        raise DomainError("certification requires degree >= 2")
    best_index, best_shift = 1, None
    for mu, report in reports:
        if irreducibility is not None:
            for q in window:
                if report.index % q == 0:
                    p, slope = _witness_for(report.witnesses, q)
                    return GaloisCertificate(
                        verdict=CONTAINS_AN,
                        n=n,
                        shift_used=mu,
                        newton_index=report.index,
                        irreducibility_basis=irreducibility,
                        witness_prime_q=q,
                        valuation_prime_p=p,
                        slope=slope,
                    )
        if best_shift is None or report.index > best_index:
            best_index, best_shift = report.index, mu
    if best_shift is None:
        raise DomainError("shift list must be nonempty")
    return GaloisCertificate(
        verdict=INDEX_DIVIDES if best_index > 1 else INCONCLUSIVE,
        n=n,
        shift_used=best_shift,
        newton_index=best_index,
        irreducibility_basis=irreducibility,
    )


def _witness_for(witnesses: dict[int, list[Fraction]], q: int) -> tuple[int, Fraction]:
    for p in sorted(witnesses):
        for slope in witnesses[p]:
            if slope.denominator % q == 0:
                return p, slope
    raise DomainError(f"no witness slope for window prime {q}")
