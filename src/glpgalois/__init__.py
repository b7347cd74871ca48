"""Exact-arithmetic Newton polygons, Newton indices, and Galois group
certificates, with an end-to-end A_n / S_n classifier for Generalized
Laguerre Polynomials."""

from .certify import (
    GaloisCertificate,
    certificate_to_dict,
    certify_large_galois,
    jordan_window_primes,
    lemma_key_check,
)
from .errors import BadPrimeError, DomainError, ZeroPolynomialError
from .glp import (
    Classification,
    GlpParams,
    classification_to_dict,
    classify,
    find_criterion_prime,
    glp,
    glp_newton_index,
    glp_normalized,
    is_rational_square,
    is_schur_square,
    normalized_discriminant,
    schur_discriminant,
)
from .modp import (
    CycleType,
    degree_set_filter,
    factor_degrees,
    good_primes,
    is_good_prime,
    parity_evidence,
)
from .newton import (
    NewtonIndexReport,
    NewtonPolygon,
    newton_index,
    newton_polygon,
    single_slope_irreducibility_evidence,
    strip_x_powers,
)
from .polys import (
    Poly,
    discriminant,
    parse_poly,
    poly_from_coeffs,
    primitive_scale,
    render_poly,
    resultant,
)
from .primes import candidate_primes, is_prime, ord_p, primes_in_ap_interval

__all__ = [
    "BadPrimeError",
    "Classification",
    "CycleType",
    "DomainError",
    "GaloisCertificate",
    "GlpParams",
    "NewtonIndexReport",
    "NewtonPolygon",
    "Poly",
    "ZeroPolynomialError",
    "candidate_primes",
    "certificate_to_dict",
    "certify_large_galois",
    "classification_to_dict",
    "classify",
    "degree_set_filter",
    "discriminant",
    "factor_degrees",
    "find_criterion_prime",
    "glp",
    "glp_newton_index",
    "glp_normalized",
    "good_primes",
    "is_good_prime",
    "is_prime",
    "is_rational_square",
    "is_schur_square",
    "jordan_window_primes",
    "lemma_key_check",
    "newton_index",
    "newton_polygon",
    "normalized_discriminant",
    "ord_p",
    "parity_evidence",
    "parse_poly",
    "poly_from_coeffs",
    "primes_in_ap_interval",
    "primitive_scale",
    "render_poly",
    "resultant",
    "schur_discriminant",
    "single_slope_irreducibility_evidence",
    "strip_x_powers",
]
