import importlib
from fractions import Fraction

import check
import corpus

glp = importlib.import_module("glpgalois.glp")


def classification(n, alpha):
    params = glp.GlpParams.from_alpha(n, Fraction(alpha))
    return glp.classification_to_dict(glp.classify(params, assume_irreducible=False))


def test_genuine_glp_classifications_pass():
    for n, alpha in ((9, "0"), (13, "5/3"), (20, "-1/2"), (30, "1")):
        out = classification(n, alpha)
        golden = [out["group"], out["disc_is_square"], out["irreducibility_basis"]]
        assert check.check_glp(n, Fraction(alpha), out, golden) == []


def test_window_prime_outside_the_jordan_window_is_rejected():
    out = classification(13, "0")
    coeffs = check.glp_coeffs(13, Fraction(0))
    assert check.check_certificate(coeffs, out["certificate"]) == []
    for q in (5, 11, 13):  # q <= n/2, q >= n - 2
        cert = dict(out["certificate"], window_prime=q)
        assert any("outside" in p for p in check.check_certificate(coeffs, cert))


def test_slope_off_the_hull_is_rejected():
    out = classification(13, "0")
    coeffs = check.glp_coeffs(13, Fraction(0))
    cert = dict(out["certificate"], slope="-2/7")
    assert any("hull" in p for p in check.check_certificate(coeffs, cert))


def test_wrong_group_and_unproved_basis_are_rejected():
    out = classification(9, "0")
    golden = [out["group"], out["disc_is_square"], out["irreducibility_basis"]]
    flipped = dict(out, group="A_n" if out["group"] == "S_n" else "S_n")
    assert check.check_glp(9, Fraction(0), flipped, golden)
    assumed = dict(out, certificate=dict(out["certificate"], irreducibility_basis="assumed"))
    assert check.check_glp(9, Fraction(0), assumed, golden)


def test_lost_group_claim_and_lost_proof_are_rejected():
    out = classification(9, "0")
    golden = [out["group"], out["disc_is_square"], out["irreducibility_basis"]]
    assert golden[0] in ("A_n", "S_n") and golden[2] in check.PROOF_BASES
    gave_up = dict(out, group="inconclusive",
                   certificate=dict(out["certificate"], verdict="inconclusive"))
    assert any("certifies" in p for p in check.check_glp(9, Fraction(0), gave_up, golden))
    unproved = dict(out, irreducibility_basis="assumed")
    assert any("golden table proves" in p for p in check.check_glp(9, Fraction(0), unproved, golden))


def test_hull_matches_known_polygons():
    # x^2 - 4x + 2 at p = 2: points (0,1), (1,2), (2,0): one segment of slope -1/2
    assert check.hull_slopes([2, -4, 1], 2) == [Fraction(-1, 2)]
    # Eisenstein-type crafted polynomials have a single segment of slope -1/n at r
    import random
    rng = random.Random(3)
    for n in (8, 13, 24):
        assert check.single_slope_prime(corpus.make_poly(rng, "crafted", n)) is not None


def test_frobenius_checks():
    coeffs = [Fraction(c) for c in (1, 1, 0, 1)]  # x^3 + x + 1
    assert check.check_frobenius(coeffs, [(2, [3])], "all-even-so-far", 1, cross_check=True) == []
    assert check.check_frobenius(coeffs, [(2, [1, 2])], "contains-odd-permutation", 1,
                                 cross_check=True)
    assert check.check_frobenius(coeffs, [(3, [3])], "all-even-so-far", 1, cross_check=False)
