import importlib
import math
import random
from fractions import Fraction
from itertools import islice

import pytest

from glpgalois.certify import (
    ASSUMED,
    CONTAINS_AN,
    INCONCLUSIVE,
    GaloisCertificate,
    certify_large_galois,
)
from glpgalois.errors import DomainError
from glpgalois.glp import (
    GROUP_AN,
    GROUP_INCONCLUSIVE,
    GROUP_SN,
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
    normalized_coefficient_products,
    schur_discriminant,
)
from glpgalois.modp import good_primes
from glpgalois.newton import NewtonIndexReport, newton_index, newton_polygon
from glpgalois.polys import discriminant, parse_poly
from glpgalois.primes import ord_p

from oracles import extreme_point_hull, laguerre_by_definition

glp_module = importlib.import_module("glpgalois.glp")  # the attribute glpgalois.glp is the function
certify_module = importlib.import_module("glpgalois.certify")
primes_module = importlib.import_module("glpgalois.primes")


class TestParams:
    def test_valid(self):
        p = GlpParams.from_alpha(5, Fraction(-7, 3))
        assert (p.lam, p.mu) == (-7, 3)

    def test_negative_integer_alpha_rejected(self):
        with pytest.raises(DomainError):
            GlpParams.from_alpha(4, -3)

    def test_integer_alpha_rejected_only_where_x_divides(self):
        with pytest.raises(DomainError, match=r"\[-n, -1\]"):
            GlpParams.from_alpha(6, -6)
        for alpha in (-7, -8, -40):
            assert GlpParams.from_alpha(6, alpha).lam == alpha

    def test_lowest_terms_enforced(self):
        with pytest.raises(DomainError):
            GlpParams(4, 2, 4)


class TestGlp:
    def test_n2_alpha0(self):
        assert glp(GlpParams(2, 0, 1)) == parse_poly("1,-2,1/2")

    def test_n1_alpha3(self):
        assert glp(GlpParams(1, 3, 1)) == parse_poly("4,-1")

    def test_n3_alpha0(self):
        assert glp(GlpParams(3, 0, 1)) == parse_poly("1,-3,3/2,-1/6")


class TestNormalized:
    def test_examples(self):
        assert glp_normalized(GlpParams(2, 0, 1)) == parse_poly("2,4,1")
        assert glp_normalized(GlpParams(3, 0, 1)) == parse_poly("6,18,9,1")
        assert glp_normalized(GlpParams(2, 1, 2)) == parse_poly("15,10,1")

    def test_monic_integral(self):
        rng = random.Random(71)
        for _ in range(30):
            mu = rng.randint(1, 5)
            lam = rng.choice([l for l in range(-3 * mu, 3 * mu + 1) if math.gcd(l, mu) == 1])
            if mu == 1 and lam < 0:
                continue
            f = glp_normalized(GlpParams(rng.randint(1, 10), lam, mu))
            assert f.leading == 1
            assert all(c.denominator == 1 for c in f.coeffs)

    def test_coherence_with_glp(self):
        # mu^n n! L(-x/mu) equals the normalized form, exactly
        rng = random.Random(73)
        for _ in range(30):
            mu = rng.randint(1, 4)
            lam = rng.choice([l for l in range(-2 * mu, 2 * mu + 1) if math.gcd(l, mu) == 1])
            if mu == 1 and lam < 0:
                continue
            n = rng.randint(1, 8)
            params = GlpParams(n, lam, mu)
            rescaled = glp(params).scale_x(Fraction(-1, mu)) * (
                Fraction(mu) ** n * math.factorial(n)
            )
            assert rescaled == glp_normalized(params)

    def test_matches_the_definition(self):
        # L_n^(alpha) = sum_j binom(n+alpha, n-j) (-x)^j / j!, term by term
        rng = random.Random(79)
        for _ in range(60):
            mu = rng.randint(1, 9)
            n = rng.randint(1, 40)
            lam = rng.choice([l for l in range(-3 * n * mu, 30 * mu + 1) if math.gcd(l, mu) == 1])
            if mu == 1 and -n <= lam <= -1:
                continue
            params = GlpParams(n, lam, mu)
            assert glp(params) == laguerre_by_definition(n, params.alpha), params


class TestSchurDiscriminant:
    def test_examples(self):
        assert schur_discriminant(2, 0) == 8
        assert schur_discriminant(3, 1) == 5184
        assert schur_discriminant(3, 0) == 1944

    def test_n1_convention(self):
        assert schur_discriminant(1, Fraction(5, 3)) == 1

    def test_nonpositive_degree_rejected(self):
        for n in (0, -1, -3):
            with pytest.raises(DomainError, match="degree must be positive"):
                schur_discriminant(n, Fraction(1, 2))

    def test_vanishes_at_repeated_root_alphas(self):
        for n in range(2, 8):
            for a in range(-n, -1):
                assert schur_discriminant(n, a) == 0

    def test_matches_resultant_discriminant(self):
        for n in range(2, 7):
            for alpha in (0, 1, 2, Fraction(-1, 2), Fraction(5, 3)):
                params = GlpParams.from_alpha(n, alpha)
                monic = glp(params) * ((-1) ** n * math.factorial(n))
                assert discriminant(monic) == schur_discriminant(n, alpha)

    def test_normalized_discriminant(self):
        # the x -> -x/mu rescaling multiplies the Schur product by mu^(n(n-1))
        for n, lam, mu in [(2, 0, 1), (2, 1, 2), (3, 0, 1), (4, 1, 3)]:
            params = GlpParams(n, lam, mu)
            expected = mu ** (n * (n - 1)) * schur_discriminant(n, params.alpha)
            assert discriminant(glp_normalized(params)) == expected


class TestSchurSquare:
    def test_parity_rule_matches_the_product(self):
        fixed = (0, 1, Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 3), Fraction(4, 9),
                 Fraction(9, 4), Fraction(25, 4), Fraction(1000001, 7))
        squares = 0
        for n in range(1, 121):
            for alpha in (*fixed, -1 - n, -5 * n):
                want = is_rational_square(schur_discriminant(n, alpha))
                assert is_schur_square(GlpParams.from_alpha(n, alpha)) == want, (n, alpha)
                squares += want
        assert squares > 100  # both answers occur

    def test_discriminant_on_access(self):
        c = classify(GlpParams.from_alpha(9, Fraction(5, 3)))
        assert "discriminant" not in Classification.__slots__
        assert c.discriminant == schur_discriminant(9, Fraction(5, 3))


class TestRationalSquare:
    def test_examples(self):
        assert is_rational_square(5184)
        assert not is_rational_square(8)
        assert is_rational_square(0)
        assert is_rational_square(Fraction(4, 9))
        assert not is_rational_square(-4)
        assert not is_rational_square(Fraction(2, 9))


class TestCriterionPrime:
    def test_examples(self):
        assert find_criterion_prime(GlpParams(9, 0, 1)) == (5, 5)
        assert find_criterion_prime(GlpParams(20, 1, 2)) == (17, 8)
        assert find_criterion_prime(GlpParams(7, 0, 1)) is None

    def test_descending_search(self):
        # largest valid prime is returned
        p, _ = find_criterion_prime(GlpParams(40, 0, 1))
        assert p == 37

    def test_returned_prime_passes_lemma(self):
        for n, lam, mu in [(9, 0, 1), (20, 1, 2), (30, 0, 1), (25, 2, 1), (33, -1, 2)]:
            found = find_criterion_prime(GlpParams(n, lam, mu))
            if found is None:
                continue
            p, ell = found
            assert p == mu * ell + lam
            assert 2 * p > n and p < n - 2
            np = newton_polygon(glp_normalized(GlpParams(n, lam, mu)), p)
            assert np.vertices[0] == (0, 1) and np.vertices[1] == (p, 0)


def seeded_params(seed: int, count: int) -> list[GlpParams]:
    """n 1..120, mu 1..9, lam from -(n+3)*mu (alpha < -n) to 12*mu."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n, mu = rng.choice((rng.randint(1, 30), rng.randint(31, 120))), rng.randint(1, 9)
        lam = rng.randint(-(n + 3) * mu, 12 * mu)
        if math.gcd(lam, mu) == 1 and not (mu == 1 and -n <= lam <= -1):
            out.append(GlpParams(n, lam, mu))
    return out


class TestGlpNewtonIndex:
    # (n, lam, mu): p^2 and p^3 divide some k*mu + lam (4, 8, 9, 25, 27, 49,
    # -4, -49) or some k <= n; 3 | mu (mu 9, 6) or 2 | mu; alpha < -n and
    # alpha = -1-n; a factor k*mu + lam = +-1; n = 1; seven-digit factors
    EXPLICIT = [
        (60, 0, 1), (30, 0, 1), (40, 7, 2), (100, -7, 3), (50, 1, 9), (30, 5, 6),
        (20, -50, 1), (24, -25, 1), (49, -50, 1), (9, -10, 1), (120, -1, 2),
        (1, 0, 1), (1, 5, 3), (2, -3, 1), (12, 1_000_001, 7), (81, 2, 1),
    ]

    def check(self, params: GlpParams):
        want = newton_index(glp_normalized(params))
        got = glp_newton_index(params)
        assert got == want, params  # the index, the witnesses and each prime's vertices
        assert list(got.vertices) == list(want.vertices), params  # the candidate primes, in order
        assert list(got.witnesses) == list(want.witnesses), params

    def test_explicit_cases(self):
        for n, lam, mu in self.EXPLICIT:
            self.check(GlpParams(n, lam, mu))

    def test_seeded_params(self):
        for params in seeded_params(9009, 140):
            self.check(params)

    def test_primes_of_mu_are_not_candidates(self):
        # p | mu never divides k*mu + lam, so p is no candidate even when p <= n
        for n, lam, mu in [(50, 1, 9), (30, 5, 6), (40, 7, 2)]:
            vertices = glp_newton_index(GlpParams(n, lam, mu)).vertices
            assert not any(mu % p == 0 for p in vertices)

    def test_heights_from_small_factors(self):
        # n = 12, alpha = 7/2: the factors 2k + 7 are 9, 11, ..., 31, and 3 divides
        # 9 = 3^2, 15, 21 and 27 = 3^3 (k = 1, 4, 7, 10); the height at j is
        # ord_3(binom(12, j)) + sum_{k > j} ord_3(2k + 7)
        binom3 = [0, 1, 1, 0, 2, 2, 1, 2, 2, 0, 1, 1, 0]
        suffix = [7, 5, 5, 5, 4, 4, 4, 3, 3, 3, 0, 0, 0]
        heights = glp_module._glp_heights(12, 3, [(1, 2), (4, 1), (7, 1), (10, 3)])
        assert heights == [b + s for b, s in zip(binom3, suffix)]
        points = list(enumerate(heights))
        assert glp_newton_index(GlpParams(12, 7, 2)).vertices[3] == tuple(extreme_point_hull(points))

    # mu > 1; p^2 | k*mu + lam at p <= n (9, 27, 25) and at p > n (121 = 11^2 at
    # n = 10, 49 = 7^2 at n = 6); alpha < -n, also with mu > 1; alpha = -1-n; n = 1
    HULL_CASES = [
        (12, 7, 2), (30, 5, 6), (40, 7, 2), (10, 116, 1), (6, 34, 5), (20, -50, 1),
        (15, -52, 3), (24, -25, 1), (40, -41, 1), (1, 0, 1), (1, 5, 3), (1, -5, 2),
    ]

    def test_hull_matches_extreme_points(self):
        # the atlas takes the hull over the prefix minima (p <= n) or writes it
        # down (p > n); compare it with the extreme points of all n + 1 points,
        # read off the coefficients of glp_normalized
        cases = [GlpParams(*c) for c in self.HULL_CASES]
        cases += [params for params in seeded_params(4242, 120) if params.n <= 60][:60]
        for params in cases:
            n, lam, mu = params.n, params.lam, params.mu
            coeffs = glp_normalized(params).coeffs
            for p, vertices in glp_newton_index(params).vertices.items():
                points = [(j, ord_p(c, p)) for j, c in enumerate(coeffs)]
                assert vertices == tuple(extreme_point_hull(points)), (params, p)
                if p > n:
                    # at most two segments, bending at the one k with p | k*mu + lam
                    (k,) = [k for k in range(1, n + 1) if (k * mu + lam) % p == 0]
                    assert len(vertices) <= 3 and vertices[1] == (k, 0), (params, p)


class TestClassify:
    def test_n9_alpha0(self):
        c = classify(GlpParams(9, 0, 1))
        assert c.group == GROUP_SN
        assert c.criterion_prime == 5 and c.ell == 5
        assert not c.discriminant_is_square
        assert c.certificate.verdict == CONTAINS_AN

    def test_n51_alpha1(self):
        c = classify(GlpParams(51, 1, 1))
        assert c.group == GROUP_AN
        assert c.discriminant_is_square
        assert c.criterion_prime is not None
        assert 26 < c.criterion_prime < 49

    def test_n7_alpha0_inconclusive(self):
        c = classify(GlpParams(7, 0, 1))
        assert c.group == GROUP_INCONCLUSIVE
        assert c.criterion_prime is None
        assert c.certificate.newton_index > 1  # partial evidence still reported

    def test_no_assumption_no_claim(self):
        # evidence still establishes irreducibility here, so the claim survives
        c = classify(GlpParams(9, 0, 1), assume_irreducible=False)
        assert c.certificate.irreducibility_basis in ("single_slope", "degree_set_filter")
        assert c.group == GROUP_SN

    def test_default_does_not_assume_irreducibility(self):
        # neither polygon nor degree-set evidence proves L_46^(5/3) irreducible
        params = GlpParams.from_alpha(46, Fraction(5, 3))
        c = classify(params)
        assert c.group == GROUP_INCONCLUSIVE and c.certificate.irreducibility_basis is None
        c = classify(params, assume_irreducible=True)
        assert c.group == GROUP_SN and c.certificate.irreducibility_basis == ASSUMED

    def test_evidence_primes_are_the_first_good_primes(self, monkeypatch):
        # the evidence skips the primes dividing disc(f), read off mu and the
        # factors j*mu + lam, instead of testing the reduction mod p; for the
        # monic integral f they agree (alpha = 1/67: p = 67 divides mu only)
        samples = []

        def record(f, primes_list):
            samples.append(primes_list)
            return set()

        monkeypatch.setattr(glp_module, "degree_set_filter", record)
        no_single_slope = NewtonIndexReport(index=1, witnesses={}, vertices={})
        for n in range(2, 41):
            for alpha in (0, 1, Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 3), Fraction(7, 2),
                          Fraction(1, 67)):
                params = GlpParams.from_alpha(n, alpha)
                glp_module._irreducibility_evidence(params, no_single_slope, False)
                f = glp_normalized(params)
                assert samples.pop() == list(islice(good_primes(f), 10)), (n, alpha)

    def test_criterion_prime_is_preferred_window_prime(self):
        # certify_large_galois alone tries the window primes largest first
        cases = [
            (34, Fraction(5, 3), (29, 29, Fraction(-1, 29)), (31, 31, Fraction(-1, 31))),
            (24, Fraction(-7, 3), (17, 17, Fraction(-1, 17)), (19, 5, Fraction(-5, 19))),
        ]
        for n, alpha, from_classify, from_certify in cases:
            params = GlpParams.from_alpha(n, alpha)
            c = classify(params, assume_irreducible=True)
            generic = certify_large_galois(glp_normalized(params))
            for cert, want in [(c.certificate, from_classify), (generic, from_certify)]:
                assert cert.verdict == CONTAINS_AN
                assert (cert.witness_prime_q, cert.valuation_prime_p, cert.slope) == want
            assert c.criterion_prime == from_classify[0]
            assert c.certificate.newton_index == generic.newton_index

    def test_group_claim_invariants(self):
        params = GlpParams(9, 0, 1)
        weak = GaloisCertificate(INCONCLUSIVE, 9, Fraction(0), 1, ASSUMED)
        strong = classify(params).certificate
        for group, square, cert in [(GROUP_SN, False, weak), (GROUP_AN, False, strong),
                                    (GROUP_SN, True, strong)]:
            with pytest.raises(DomainError):
                Classification(group, square, cert, 5, 5, params)

    def test_single_slope_cases_build_no_big_integer(self, monkeypatch):
        # Delta, the c_j, their squareness test and ord_p on them are never
        # needed when a polygon proves irreducibility
        cases = [GlpParams.from_alpha(n, alpha) for n in range(9, 61) for alpha in (0, "5/3")]
        cases = [params for params in cases if glp_newton_index(params).single_slope]
        want = [classification_to_dict(classify(params)) for params in cases]

        def forbidden(*args):
            raise AssertionError("big-integer path taken")

        for module, name in [(glp_module, "schur_discriminant"),
                             (glp_module, "normalized_coefficient_products"),
                             (glp_module, "is_rational_square"),
                             (primes_module, "ord_p"), (certify_module, "ord_p")]:
            monkeypatch.setattr(module, name, forbidden)
        assert [classification_to_dict(classify(params)) for params in cases] == want
        assert len(cases) > 50

    def test_certificate_replay(self):
        c = classify(GlpParams(10, 0, 1))
        f = glp_normalized(GlpParams(10, 0, 1)).shift(c.certificate.shift_used)
        np = newton_polygon(f, c.certificate.valuation_prime_p)
        assert c.certificate.slope in np.slopes

    def test_json_field_names(self):
        d = classification_to_dict(classify(GlpParams(9, 0, 1)))
        assert set(d) == {
            "n",
            "alpha",
            "group",
            "disc_is_square",
            "criterion_prime",
            "ell",
            "certificate",
            "irreducibility_basis",
        }


class TestSchurTruncatedExponential:
    # alpha = -1-n gives L_n = (-1)^n e_n(x), e_n(x) = sum_{j<=n} x^j / j!, whose
    # Galois group is A_n exactly when 4 | n (Schur): an independent oracle.
    def test_polynomial_is_truncated_exponential(self):
        for n in range(1, 16):
            e_n = [Fraction((-1) ** n, math.factorial(j)) for j in range(n + 1)]
            assert glp(GlpParams(n, -1 - n, 1)).coeffs == tuple(e_n)

    def test_group_matches_schur(self):
        certified = 0
        for n in range(8, 41):
            c = classify(GlpParams(n, -1 - n, 1))
            if c.group == GROUP_INCONCLUSIVE:
                continue
            assert c.group == (GROUP_AN if n % 4 == 0 else GROUP_SN), n
            certified += 1
        assert certified >= 30

    def test_no_criterion_prime_below_minus_n(self):
        # for alpha < -n every factor k + alpha with k <= n is negative, so no
        # prime p = ell + alpha with ell <= n exists; the window primes certify
        for n in range(8, 41):
            c = classify(GlpParams(n, -1 - n, 1))
            assert (c.criterion_prime, c.ell) == (None, None), n
            assert c.group == (GROUP_AN if n % 4 == 0 else GROUP_SN), n
        for alpha in (-50, Fraction(-31, 3)):
            assert find_criterion_prime(GlpParams.from_alpha(10, alpha)) is None


class TestCoefficientProducts:
    def test_values(self):
        assert normalized_coefficient_products(GlpParams(3, 0, 1)) == [6, 6, 3, 1]
        assert normalized_coefficient_products(GlpParams(2, 1, 2)) == [15, 5, 1]
