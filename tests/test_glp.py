import importlib
import math
import os
import random
import subprocess
import sys
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
from glpgalois.primes import is_prime

from oracles import (
    drops_by_factoring,
    extreme_point_hull,
    fraction_witness,
    fraction_witnesses,
    laguerre_by_definition,
    lemma_key_check,
    ord_p,
)

glp_module = importlib.import_module("glpgalois.glp")
newton_module = importlib.import_module("glpgalois.newton")
modp_module = importlib.import_module("glpgalois.modp")


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

    ALPHAS = (0, 1, 2, 13, Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 3), Fraction(7, 2),
              Fraction(1, 9), Fraction(-5, 4))

    def test_agrees_with_lemma_key_check(self):
        # the largest prime p = mu*ell + lam <= n - 3 with ell > n - p on which
        # lemma_key_check passes for the big c_j, against the rule on the drops
        found = 0
        for n in range(1, 130):
            for alpha in self.ALPHAS:
                params = GlpParams.from_alpha(n, alpha)
                lam, mu = params.lam, params.mu
                c = normalized_coefficient_products(params)
                want = None
                for p in range(n - 3, 2, -1):
                    ell, rest = divmod(p - lam, mu)
                    if not rest and ell > n - p and is_prime(p) and lemma_key_check(n, c, p):
                        want = (p, ell)
                        break
                assert find_criterion_prime(params) == want, (n, alpha)
                found += want is not None
        assert found > 500

    def test_classify_calls_it_through_the_module(self, monkeypatch):
        # classify finds its criterion prime by the module attribute, once, on
        # the drops it has already sieved, so a wrapper of the public name sees it
        calls = []
        real = glp_module.find_criterion_prime

        def recording(params, drops=None):
            calls.append((params, drops))
            return real(params, drops)

        monkeypatch.setattr(glp_module, "find_criterion_prime", recording)
        cases = [GlpParams.from_alpha(n, alpha) for n in (7, 9, 20, 34) for alpha in (0, "5/3")]
        for params in cases:
            c = classify(params)
            ((got, drops),) = calls
            calls.clear()
            assert got is params and drops == glp_module._drops(params), params
            assert (c.criterion_prime, c.ell) == (real(params) or (None, None)), params

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
        # ord_3(binom(12, j)) + sum_{k > j} ord_3(2k + 7).  The atlas walks only
        # the j where a height changes; its hull is the hull of all 13 heights
        binom3 = [0, 1, 1, 0, 2, 2, 1, 2, 2, 0, 1, 1, 0]
        suffix = [7, 5, 5, 5, 4, 4, 4, 3, 3, 3, 0, 0, 0]
        params = GlpParams(12, 7, 2)
        points = [(j, b + s) for j, (b, s) in enumerate(zip(binom3, suffix))]
        assert [(j, ord_p(c, 3)) for j, c in enumerate(glp_normalized(params).coeffs)] == points
        vertices = glp_newton_index(params).vertices[3]
        assert vertices == tuple(extreme_point_hull(points)) == ((0, 7), (1, 6), (10, 1), (12, 0))

    # mu > 1; p^2 | k*mu + lam at p <= n (9, 27, 25) and at p > n (121 = 11^2 at
    # n = 10, 49 = 7^2 at n = 6); alpha < -n, also with mu > 1; alpha = -1-n; n = 1
    HULL_CASES = [
        (12, 7, 2), (30, 5, 6), (40, 7, 2), (10, 116, 1), (6, 34, 5), (20, -50, 1),
        (15, -52, 3), (24, -25, 1), (40, -41, 1), (1, 0, 1), (1, 5, 3), (1, -5, 2),
    ]

    def test_hull_matches_extreme_points(self):
        # the atlas takes the hull over the prefix minima (p^2 <= n, or a drop
        # e > 1 at p <= n) or writes it down; compare it with the extreme points
        # of all n + 1 points, read off the coefficients of glp_normalized
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

    # (n, lam, mu, p, vertices): p^2 > n and every drop at p simple, or p > n,
    # so the atlas writes the hull down; r = n mod p and s = k mod p of the first
    # drop k.  One case for each shape
    STAIRCASES = [
        (30, 0, 1, 7, ((0, 4), (28, 0), (30, 0))),  # s = 0
        (30, 1, 1, 7, ((0, 4), (28, 0), (30, 0))),  # s = 6 > r = 2
        (30, 1, 1, 17, ((0, 1), (17, 0), (30, 0))),  # s = 16 > r = 13, H = 1
        (34, 2, 1, 7, ((0, 5), (5, 4), (33, 0), (34, 0))),  # 0 < s = 5 <= r = 6, H = 5
        (30, 5, 3, 11, ((0, 3), (2, 2), (24, 0), (30, 0))),  # mu > 1: s = 2 <= r = 8
        (20, -50, 1, 11, ((0, 2), (6, 1), (17, 0), (20, 0))),  # alpha < -n
        (30, 5, 1, 31, ((0, 1), (26, 0), (30, 0))),  # p > n: 0 < s <= r, H = 1
        (10, 116, 1, 11, ((0, 2), (5, 0), (10, 0))),  # p > n: one drop of e = 2 (121)
        (20, -50, 1, 47, ((0, 1), (3, 0), (20, 0))),  # p > n, alpha < -n
        (34, 1, 1, 7, ((0, 5), (6, 4), (34, 0))),  # the last drop at k = n, H = 5
        (30, 1, 1, 31, ((0, 1), (30, 0))),  # the last drop at k = n, p > n
    ]
    # (n, lam, mu, p, vertices) where the atlas walks the blocks: n // p >= p,
    # and isqrt(n) < p <= n with p^2 | k*mu + lam (-49 at k = 1)
    WALKED = [
        (30, 0, 1, 5, ((0, 7), (25, 1), (30, 0))),
        (20, -50, 1, 7, ((0, 4), (1, 2), (15, 0), (20, 0))),
    ]

    def atlas_hulls(self, params: GlpParams) -> dict:
        """What `_atlas` hands to `newton.index_report`: {p: (H, s, e)} for a
        hull written down, {p: vertices} for a walked one."""
        seen = {}
        real = newton_module.index_report

        def spy(hulls, n=None):
            seen.update(hulls)
            return real(hulls, n)

        with pytest.MonkeyPatch.context() as m:
            m.setattr(newton_module, "index_report", spy)
            glp_newton_index(params)
        return seen

    @pytest.mark.parametrize("case", STAIRCASES + WALKED)
    def test_staircase_or_walk(self, case):
        n, lam, mu, p, want = case
        params = GlpParams(n, lam, mu)
        written = isinstance(self.atlas_hulls(params)[p][0], int)
        assert written == (case in self.STAIRCASES)
        points = [(j, ord_p(c, p)) for j, c in enumerate(glp_normalized(params).coeffs)]
        assert glp_newton_index(params).vertices[p] == tuple(extreme_point_hull(points)) == want
        self.check(params)

    def test_staircases_match_the_block_walk(self):
        # n up to 2,000, from the drops alone: at every prime that the atlas
        # writes down, its hull and index equal the block walk's on the same
        # drops; p^2 | k*mu + lam at p > n in the fixed cases
        # (331^2 at n = 300, 2003^2 at n = 2000)
        rng = random.Random(2027)
        cases = [GlpParams(300, 331**2 - 300, 1), GlpParams(2000, 2003**2 - 5 * 1999, 5)]
        while len(cases) < 40:
            n, mu = rng.randint(1, 2000), rng.randint(1, 9)
            lam = rng.randint(-(n + 3) * mu, 12 * mu)
            if math.gcd(lam, mu) == 1 and not (mu == 1 and -n <= lam <= -1):
                cases.append(GlpParams(n, lam, mu))
        shapes = set()
        for params in cases:
            n = params.n
            drops = glp_module._drops(params)
            for p, hull in self.atlas_hulls(params).items():
                if isinstance(hull[0], int):
                    walked = newton_module.index_report({p: glp_module._block_hull(n, p, drops[p])})
                    written = newton_module.index_report({p: hull}, n)
                    assert written == walked, (params, p, hull)
                    H, s, e = hull
                    shapes.add((p > n, 0 < s <= n % p, H > 1, e > 1))
        # p <= n: s = 0 or s > r, with H = 1 and H > 1; 0 < s <= r, where H > 1;
        # p > n: 0 < s <= r with H = 1, and e = 1 and e > 1
        assert {(False, False, False, False), (False, False, True, False),
                (False, True, True, False), (True, True, False, False),
                (True, True, False, True)} <= shapes, shapes

    # staircases at p = 7, n = 30 (r = 2) that break one check each: H < 1,
    # s < 0, s >= p, e < 1, e > 1 with H > 1, the bend past n (Hp = 35 when
    # s = 0, (H - 1)p + s = 36 when 0 < s <= r), n not given; and a walked
    # hull that ends before n
    BAD_STAIRCASES = [
        ((0, 0, 1), 30), ((2, -1, 1), 30), ((2, 7, 1), 30), ((2, 3, 0), 30), ((2, 3, 2), 30),
        ((5, 0, 1), 30), ((6, 1, 1), 30), ((2, 3, 1), None), (((0, 1), (20, 0)), 30),
    ]

    @pytest.mark.parametrize("hull, n", BAD_STAIRCASES)
    def test_bad_staircase_rejected(self, hull, n):
        with pytest.raises(DomainError):
            newton_module.index_report({7: hull}, n)

    def test_bad_staircases_rejected_under_python_optimize(self):
        code = (
            "from glpgalois.errors import DomainError\n"
            "from glpgalois.newton import index_report\n"
            f"for hull, n in {self.BAD_STAIRCASES!r}:\n"
            "    try:\n"
            "        index_report({7: hull}, n)\n"
            "    except DomainError:\n"
            "        print('rejected')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(newton_module.__file__)))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "rejected\n" * len(self.BAD_STAIRCASES), out.stderr

    # n up to 300: p^2 | k*mu + lam at p <= n (169 = 13^2 at n = 200, 27 = 3^3
    # at n = 250) and at p > n (331^2 at n = 300, 307^2 at n = 250); alpha < -n,
    # also with mu > 1; mu > 1; n = 1
    LARGE_HULL_CASES = [
        (300, 0, 1), (200, 169 - 2 * 7, 7), (250, 27 - 5 * 2, 5), (300, 331**2 - 300, 1),
        (250, 307**2 - 4 * 250, 4), (300, -307, 1), (260, -799, 3), (1, 331**2, 7),
    ]

    def test_event_hulls_up_to_n_300(self):
        # the event walk against newton_index on the big coefficients, and against
        # the extreme points of all n + 1 valuations at the two smallest and the
        # two largest primes p <= n and the largest p <= n whose square divides
        # a factor (the oracle is cubic in n; p > n is covered above)
        rng = random.Random(16300)
        cases = [GlpParams(*c) for c in self.LARGE_HULL_CASES]
        while len(cases) < 12:
            n, mu = rng.randint(61, 300), rng.randint(1, 9)
            lam = rng.randint(-(n + 3) * mu, 12 * mu)
            if math.gcd(lam, mu) == 1 and not (mu == 1 and -n <= lam <= -1):
                cases.append(GlpParams(n, lam, mu))
        squares = set()
        for params in cases:
            n, lam, mu = params.n, params.lam, params.mu
            f = glp_normalized(params)
            got, want = glp_newton_index(params), newton_index(f)
            assert got == want and list(got.vertices) == list(want.vertices), params
            small = [p for p in got.vertices if p <= n]
            square = {p for p in got.vertices
                      if any((k * mu + lam) % p**2 == 0 for k in range(1, n + 1))}
            squares |= {p <= n for p in square}
            for p in set(small[:2] + small[-2:] + sorted(p for p in square if p <= n)[-1:]):
                points = [(j, ord_p(c, p)) for j, c in enumerate(f.coeffs)]
                assert got.vertices[p] == tuple(extreme_point_hull(points)), (params, p)
        assert squares == {True, False}


class TestDropsSieve:
    # alpha < -n (negative factors) and alpha = -1-n (a factor -1); a factor 1;
    # p | mu (3 | 9, 2 | 6); p^2 | k*mu + lam at p <= n (4, 8, 9, 25, 27, 49) and
    # at p > n (49 = 7^2 at n = 5, 121 = 11^2 at n = 10); lam = 1_000_001; the
    # large-cofactor split past 2^32: a prime 2^61 - 1, 65537 * 65539 and
    # 65537^2; n = 1
    EXPLICIT = [
        (60, 0, 1), (81, 2, 1), (50, 1, 9), (30, 5, 6), (20, -50, 1), (24, -25, 1),
        (9, -10, 1), (12, 0, 1), (5, 48, 1), (10, 116, 1), (12, 1_000_001, 7),
        (4, 2**61 - 3, 1), (3, 65537 * 65539 - 1, 1), (2, 65537**2 - 2, 1),
        (6, -(65537 * 65539) - 2, 3), (1, 0, 1), (1, 5, 3), (1, -3, 2),
    ]

    def check(self, params: GlpParams):
        want = drops_by_factoring(params.n, params.lam, params.mu)
        assert glp_module._drops(params) == want, params  # each list ascending in k

    def test_explicit_cases(self):
        for n, lam, mu in self.EXPLICIT:
            self.check(GlpParams(n, lam, mu))

    def test_grid(self):
        for n in range(1, 41):
            for alpha in (0, 1, Fraction(5, 3), Fraction(-1, 2), Fraction(-7, 3), Fraction(7, 2),
                          Fraction(1, 9), -n - 1, -n - 3, Fraction(-3 * n - 1, 3)):
                self.check(GlpParams.from_alpha(n, alpha))

    def test_seeded_params(self):
        for params in seeded_params(1717, 200):
            self.check(params)


class TestWitnessesFromIntegers:
    # the witness slopes that a report reads off its vertices in integers equal
    # those built as a Fraction for every segment
    def check(self, report: NewtonIndexReport, qs) -> None:
        want = fraction_witnesses(report.vertices)
        assert report.witnesses == want and list(report.witnesses) == list(want)
        assert report.index == math.lcm(1, *(s.denominator for sl in want.values() for s in sl))
        for q in qs:
            expected = fraction_witness(want, q)
            if expected is None:
                with pytest.raises(DomainError):
                    report.witness(q)
            else:
                assert report.witness(q) == expected, q

    def test_glp_atlases(self):
        for n in range(1, 301):
            alphas = (0, Fraction(5, 3)) + ((Fraction(-1, 2), Fraction(-7, 3)) if n <= 100 else ())
            for alpha in alphas:
                window = [q for q in range(n // 2 + 1, n - 2) if is_prime(q)]
                report = glp_newton_index(GlpParams.from_alpha(n, alpha))
                self.check(report, [2, 3, 4, 6, n + 1] + window)

    def test_single_slope_classify_builds_one_slope_fraction(self, monkeypatch):
        # only the certificate's witness slope becomes a Fraction
        cases = [GlpParams.from_alpha(n, alpha) for n in range(9, 61)
                 for alpha in (0, 1, Fraction(5, 3), Fraction(-1, 2))]
        cases = [params for params in cases if glp_newton_index(params).single_slope]
        want = [classification_to_dict(classify(params)) for params in cases]
        built = []

        def counted(*args):
            built.append(args)
            return Fraction(*args)

        monkeypatch.setattr(newton_module, "Fraction", counted)
        for params, expected in zip(cases, want):
            built.clear()
            assert classification_to_dict(classify(params)) == expected
            assert len(built) <= 1, (params, built)
        assert len(cases) > 100


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

    @pytest.mark.parametrize("alpha", ["0", "1", "5/3", "-1/2", "-7/3", "2"])
    def test_degree_one_is_inconclusive(self, alpha):
        # L_1^(alpha) is in the paper's domain; its group is trivial, so no
        # Jordan window and index 1: an answer, not a certification error
        c = classify(GlpParams.from_alpha(1, alpha))
        assert c.group == GROUP_INCONCLUSIVE
        assert c.certificate.verdict == INCONCLUSIVE
        assert c.certificate.newton_index == 1
        assert c.certificate.witness_prime_q is None
        # generic certification still refuses degree 1
        with pytest.raises(DomainError, match="degree >= 2"):
            certify_large_galois(glp_normalized(GlpParams.from_alpha(1, alpha)))

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

        monkeypatch.setattr(modp_module, "degree_set_filter", record)
        no_single_slope = NewtonIndexReport(index=1, vertices={})
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
        # Delta, the c_j and their squareness test are never needed when a
        # polygon proves irreducibility
        cases = [GlpParams.from_alpha(n, alpha) for n in range(9, 61) for alpha in (0, "5/3")]
        cases = [params for params in cases if glp_newton_index(params).single_slope]
        want = [classification_to_dict(classify(params)) for params in cases]

        def forbidden(*args):
            raise AssertionError("big-integer path taken")

        for module, name in [(glp_module, "schur_discriminant"),
                             (glp_module, "normalized_coefficient_products"),
                             (glp_module, "is_rational_square")]:
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


class TestEffortBudget:
    def test_every_loop_over_k_stops_past_the_budget(self, monkeypatch):
        monkeypatch.setattr(glp_module, "N_BUDGET", 40)
        calls = [glp, normalized_coefficient_products, glp_normalized, glp_newton_index,
                 is_schur_square, find_criterion_prime, classify,
                 lambda params: schur_discriminant(params.n, params.alpha)]
        for call in calls:
            call(GlpParams(40, 0, 1))
            with pytest.raises(DomainError, match="effort budget N_BUDGET = 40"):
                call(GlpParams(41, 0, 1))

    def test_no_filter_past_its_budget(self, monkeypatch):
        # L_9^(5/3) has no single-slope polygon and the mod-p filter proves it;
        # one past FILTER_N_BUDGET the filter does not run and the basis is
        # what a failed filter leaves
        params = GlpParams.from_alpha(9, Fraction(5, 3))
        monkeypatch.setattr(glp_module, "FILTER_N_BUDGET", 9)
        assert classify(params).certificate.irreducibility_basis == "degree_set_filter"

        def no_filter(f, primes_list):
            raise AssertionError("filter ran past FILTER_N_BUDGET")

        monkeypatch.setattr(glp_module, "FILTER_N_BUDGET", 8)
        monkeypatch.setattr(modp_module, "degree_set_filter", no_filter)
        c = classify(params)
        assert (c.group, c.certificate.irreducibility_basis) == (GROUP_INCONCLUSIVE, None)
        c = classify(params, assume_irreducible=True)
        assert c.group in (GROUP_AN, GROUP_SN) and c.certificate.irreducibility_basis == ASSUMED

    def test_huge_degree_is_refused_at_once(self):
        for n in (glp_module.N_BUDGET + 1, 10**8):
            with pytest.raises(DomainError, match=f"degree {n} is over the effort budget"):
                classify(GlpParams(n, 0, 1))


class TestCoefficientProducts:
    def test_values(self):
        assert normalized_coefficient_products(GlpParams(3, 0, 1)) == [6, 6, 3, 1]
        assert normalized_coefficient_products(GlpParams(2, 1, 2)) == [15, 5, 1]
