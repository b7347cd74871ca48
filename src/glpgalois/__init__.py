"""Exact-arithmetic Newton polygons, Newton indices, and Galois group
certificates, with an end-to-end A_n / S_n classifier for Generalized
Laguerre Polynomials.

The namespace is lazy (PEP 562): `import glpgalois` loads no submodule, and
a public name imports its home module on first access and is then cached
here.  A submodule is also reached as an attribute, e.g. `glpgalois.modp`;
`glpgalois.glp` is the module, and the function is `glpgalois.glp.glp`.
"""

# each public name and its home module, the one list of the public API
_HOMES = {
    "BadPrimeError": "errors",
    "Classification": "glp",
    "CycleType": "modp",
    "DomainError": "errors",
    "GaloisCertificate": "certify",
    "GlpParams": "glp",
    "NewtonIndexReport": "newton",
    "NewtonPolygon": "newton",
    "Poly": "polys",
    "ZeroPolynomialError": "errors",
    "certificate_to_dict": "certify",
    "certify_large_galois": "certify",
    "classification_to_dict": "glp",
    "classify": "glp",
    "degree_set_filter": "modp",
    "discriminant": "polys",
    "factor_degrees": "modp",
    "find_criterion_prime": "glp",
    "glp_newton_index": "glp",
    "glp_normalized": "glp",
    "good_primes": "modp",
    "is_good_prime": "modp",
    "is_prime": "primes",
    "is_rational_square": "glp",
    "is_schur_square": "glp",
    "jordan_window_primes": "certify",
    "newton_index": "newton",
    "newton_polygon": "newton",
    "parity_evidence": "modp",
    "parse_poly": "polys",
    "primitive_scale": "polys",
    "render_poly": "polys",
    "resultant": "polys",
    "schur_discriminant": "glp",
    "single_slope_irreducibility_evidence": "newton",
}
_SUBMODULES = frozenset({"certify", "cli", "errors", "glp", "modp", "newton", "polys", "primes"})

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None and name not in _SUBMODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    module = import_module(f"{__name__}.{home or name}")
    if home is None:
        return module  # the import system has bound it here already
    value = globals()[name] = getattr(module, name)
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
