import math
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from glpgalois import primes as primes_module
from glpgalois.errors import DomainError
from glpgalois.newton import (
    NewtonPolygon,
    index_report,
    newton_index,
    newton_polygon,
    single_slope_irreducibility_evidence,
)
from glpgalois.polys import Poly, parse_poly, primitive_scale

from oracles import (
    brute_lower_hull,
    extreme_point_hull,
    fraction_witness,
    fraction_witnesses,
    rational_newton_index,
)


def rand_nonzero_constant_poly(rng, max_deg=12, span=10**4):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg + 1)]
    coeffs[0] = rng.choice([1, -1]) * rng.randint(1, span)
    coeffs[-1] = rng.choice([1, -1]) * rng.randint(1, span)
    return Poly.from_coeffs(coeffs)


def assert_matches_the_oracle(f):
    """newton_index(f) equals the Fraction oracle's index and vertices, primes
    in the same (ascending) order; returns the report."""
    index, vertices = rational_newton_index(f)
    r = newton_index(f)
    assert (r.index, r.vertices, list(r.vertices)) == (index, vertices, list(vertices)), f
    return r


class TestPolygon:
    def test_quadratic_example(self):
        np = newton_polygon(parse_poly("2,4,1"), 2)
        assert np.points == ((0, 1), (1, 2), (2, 0))
        assert np.vertices == ((0, 1), (2, 0))
        assert len(np.segments) == 1
        assert np.segments[0].slope == Fraction(-1, 2)
        assert np.segments[0].length == 2

    def test_hull_invariants_raise(self):
        np = newton_polygon(parse_poly("6,18,9,1"), 3)
        with pytest.raises(DomainError):
            NewtonPolygon(np.prime, np.points, ((0, 0), (3, 0)))
        with pytest.raises(DomainError):
            NewtonPolygon(np.prime, np.points, ((0, 1), (1, 2), (3, 0)))

    def test_cubic_example(self):
        np = newton_polygon(parse_poly("6,18,9,1"), 3)
        assert np.vertices == ((0, 1), (3, 0))
        assert np.slopes == [Fraction(-1, 3)]

    def test_flat_example(self):
        np = newton_polygon(parse_poly("1,1,1"), 5)
        assert np.slopes == [Fraction(0)]

    def test_negative_heights_and_zero_coefficients(self):
        # 4 - x/2 + 16x^4 at 2: a negative numerator, 2 divides a denominator
        # (height -1), and the zero coefficients of x^2 and x^3 are omitted
        np = newton_polygon(parse_poly("4,-1/2,0,0,16"), 2)
        assert np.points == ((0, 2), (1, -1), (4, 4))
        assert np.vertices == np.points
        assert np.slopes == [Fraction(-3), Fraction(5, 3)]
        assert all(type(h) is int for _, h in np.points)
        np = newton_polygon(parse_poly("1/4,-3,0,8"), 2)
        assert np.points == ((0, -2), (1, 0), (3, 3))
        assert np.vertices == ((0, -2), (3, 3))
        assert np.slopes == [Fraction(5, 3)]

    def test_preconditions(self):
        with pytest.raises(DomainError):
            newton_polygon(parse_poly("0,1"), 2)
        with pytest.raises(DomainError):
            newton_polygon(Poly(()), 2)
        with pytest.raises(DomainError):
            newton_polygon(parse_poly("1,1"), 4)

    def test_hull_matches_brute_force(self):
        rng = random.Random(43)
        for _ in range(200):
            f = rand_nonzero_constant_poly(rng, max_deg=12, span=10**4)
            p = rng.choice([2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47])
            np = newton_polygon(f, p)
            assert list(np.vertices) == brute_lower_hull(list(np.points))

    def test_hull_on_plateaus_matches_extreme_points(self):
        # long runs of equal heights, as in the GLP polygons above n, with x
        # gaps where zero coefficients are omitted; the hull skips the points
        # inside a run, the record keeps them all; each point (j, h) is the
        # coefficient 5^h of x^j
        rng = random.Random(47)
        for _ in range(300):
            points, x = [], 0
            for _ in range(rng.randint(1, 8)):
                h = rng.randint(-3, 12)
                for _ in range(rng.choice((1, 2, rng.randint(3, 20)))):
                    points.append((x, h))
                    x += rng.choice((1, 1, 1, 2, 7))
            coeffs = [0] * (points[-1][0] + 1)
            for j, h in points:
                coeffs[j] = Fraction(5) ** h
            np = newton_polygon(Poly.from_coeffs(coeffs), 5)
            assert np.points == tuple(points)
            assert list(np.vertices) == extreme_point_hull(points), points


class TestNewtonIndex:
    def test_examples(self):
        assert newton_index(parse_poly("-2,0,1")).index == 2
        r = newton_index(parse_poly("6,18,9,1"))
        assert r.index == 6
        assert r.witnesses[3] == [Fraction(-1, 3)]
        assert r.witnesses[2] == [Fraction(-1, 2)]
        # the atlas keeps the hull vertices of every candidate prime, ramified or not
        assert r.vertices == {
            p: newton_polygon(parse_poly("6,18,9,1"), p).vertices for p in (2, 3)
        }
        unramified = newton_index(parse_poly("2,3,1"))
        assert unramified.witnesses == {} and set(unramified.vertices) == {2}
        assert newton_index(parse_poly("-1,0,1")).index == 1

    def test_divides_lcm(self):
        rng = random.Random(47)
        for _ in range(100):
            f = rand_nonzero_constant_poly(rng, max_deg=8, span=100)
            n = f.degree
            assert math.lcm(*range(1, n + 1)) % newton_index(f).index == 0

    def test_scaling_invariance(self):
        rng = random.Random(53)
        for _ in range(60):
            f = rand_nonzero_constant_poly(rng, max_deg=8, span=100)
            c = Fraction(rng.choice([1, -1]) * rng.randint(1, 60), rng.randint(1, 60))
            assert newton_index(f).index == newton_index(f * c).index

    def test_x_powers_do_not_change_the_report(self):
        # newton_index(x^k * h) == newton_index(h): the x-powers are dropped
        assert newton_index(parse_poly("0,0,3,1")) == newton_index(parse_poly("3,1"))
        rng = random.Random(73)
        for _ in range(60):
            h = rand_nonzero_constant_poly(rng, max_deg=8, span=100)
            for k in (1, 2, 3):
                assert newton_index(Poly.from_coeffs([0] * k + list(h.coeffs))) == newton_index(h)

    def test_matches_the_rational_oracle(self):
        # the integer path (primitive integers, numerator valuations only)
        # against Fractions all the way: rational coefficients, 0-3 factors
        # of x, negative leading coefficients, degrees 0 and 1 included
        rng = random.Random(79)
        for i in range(600):
            deg = i % 11
            coeffs = [Fraction(rng.randint(-10**4, 10**4), rng.choice((1, 1, 2, 3, 12, 35, 98)))
                      for _ in range(deg + 1)]
            coeffs[0] = coeffs[0] or Fraction(rng.choice((-7, 1, 10)), rng.choice((1, 5)))
            coeffs[-1] = coeffs[-1] or Fraction(rng.choice((-9, 2)))
            assert_matches_the_oracle(Poly.from_coeffs([0] * rng.randint(0, 3) + coeffs))

    # hulls from the ends, each against the oracle, which factors a_0 * a_n
    # and hulls every point: p = 3 dividing both ends with one unit (lo = hi),
    # zero coefficients in the left run, the right run and the flat middle,
    # x-powers, rational coefficients and negative leading coefficients
    END_CASES = [
        ("9,3,6,1,3,18,27", {3: ((0, 2), (1, 1), (3, 0), (6, 3))}),
        ("-40,4,0,2,0,0,1,0,6,0,24", {2: ((0, 3), (1, 2), (3, 1), (6, 0), (8, 1), (10, 3)),
                                     3: ((0, 0), (6, 0), (10, 1)),
                                     5: ((0, 1), (1, 0), (10, 0))}),
        ("5,0,0,1,0,0,0,7,0,0,10", {2: ((0, 0), (7, 0), (10, 1)),
                                    5: ((0, 1), (3, 0), (7, 0), (10, 1))}),
        ("0,0,12,5,0,7,18", {2: ((0, 2), (1, 0), (3, 0), (4, 1)), 3: ((0, 1), (1, 0), (3, 0), (4, 2))}),
        ("3/4,1/6,5,-7/2,9/8", None),
        ("18,-5,4,-12", None),
        ("-7/9,0,14/3,0,-21", None),
    ]

    def test_hulls_from_the_ends_match_the_oracle(self):
        for text, want in self.END_CASES:
            r = assert_matches_the_oracle(parse_poly(text))
            if want is not None:
                assert r.vertices == want, text

    def test_shifted_polynomials_match_the_oracle(self):
        # degrees 8-24 with runs of a small prime's multiples at either end
        # (shift 0 keeps them), and their shifts by 1, -1 and 2
        rng = random.Random(89)
        for _ in range(150):
            n = rng.randint(8, 24)
            coeffs = [rng.randint(-10**6, 10**6) for _ in range(n + 1)]
            coeffs[0] = coeffs[0] or 1
            coeffs[n] = coeffs[n] or -1
            for run in (range(rng.randint(0, n)), range(rng.randint(1, n + 1), n + 1)):
                p = rng.choice((2, 3, 5, 7))
                for j in run:
                    coeffs[j] *= p ** rng.randint(1, 3)
            f = Poly.from_coeffs(coeffs)
            for mu in (0, 1, -1, 2):
                assert_matches_the_oracle(f.shift(mu))

    def test_each_end_is_factored_alone(self, monkeypatch):
        # 1000003 and 1000033 are prime: trial division of each stops at
        # p^2 > m, while their product has no factor below 2^16 and needs rho
        def no_rho(m):
            raise AssertionError(f"Pollard rho on {m}")

        monkeypatch.setattr(primes_module, "_pollard_rho", no_rho)
        with pytest.raises(AssertionError, match="Pollard rho"):
            primes_module.prime_factors(1000003 * 1000033)
        r = newton_index(Poly.from_coeffs([1000003, 0, 0, 1000033]))
        assert r.index == 3
        assert r.vertices == {1000003: ((0, 1), (3, 0)), 1000033: ((0, 0), (3, 1))}

    def test_x_scaling_invariance(self):
        rng = random.Random(59)
        for _ in range(60):
            f = rand_nonzero_constant_poly(rng, max_deg=8, span=100)
            c = rng.choice([1, -1]) * rng.randint(1, 60)
            assert newton_index(f).index == newton_index(f.scale_x(c)).index


class TestIndexReport:
    def test_from_vertices(self):
        r = index_report({2: ((0, 3), (2, 0), (6, 0)), 3: ((0, 4), (2, 1), (6, 0)), 5: ((0, 1), (6, 0))})
        assert r.index == 12
        assert r.witnesses == {2: [Fraction(-3, 2)], 3: [Fraction(-3, 2), Fraction(-1, 4)],
                               5: [Fraction(-1, 6)]}
        assert list(r.witnesses) == [2, 3, 5] and r.single_slope
        flat = index_report({7: ((0, 2), (6, 0))})  # slope -1/3 on a run of 6
        assert flat.index == 3 and not flat.single_slope
        assert index_report({}).index == 1

    def test_many_denominators_match_a_plain_fold(self):
        # up to hundreds of distinct denominators, so that the lcm runs over
        # one run of 64, several, and levels of the tree: hulls (0, e),
        # (x, 0), (n, 0) at made-up keys, each with the slope -e/x
        rng = random.Random(71)
        n = 10**6
        for size in (1, 63, 64, 65, 700):
            hulls = {}
            for k in range(size):
                x = rng.randint(2, n - 1)
                hulls[k] = ((0, rng.randint(1, 10**4)), (x, 0), (n, 0))
            want = math.lcm(1, *(h[1][0] // math.gcd(h[0][1], h[1][0]) for h in hulls.values()))
            assert index_report(hulls).index == want, size

    # not convex, equal slopes, x not increasing, one vertex or none, not from
    # x = 0, and two hulls that end at different x
    BAD_HULLS = [
        {2: ((0, 0), (1, 1), (2, 0))},
        {2: ((0, 2), (1, 1), (2, 0))},
        {2: ((0, 1), (0, 0), (2, 0))},
        {2: ((0, 1),)},
        {2: ()},
        {2: ((1, 1), (3, 0))},
        {2: ((0, 1), (3, 0)), 3: ((0, 1), (2, 0))},
    ]

    def test_bad_hulls_rejected(self):
        for hulls in self.BAD_HULLS:
            with pytest.raises(DomainError):
                index_report(hulls)

    def test_bad_hulls_rejected_under_python_optimize(self):
        code = (
            "from glpgalois.errors import DomainError\n"
            "from glpgalois.newton import index_report\n"
            f"for hulls in {self.BAD_HULLS!r}:\n"
            "    try:\n"
            "        index_report(hulls)\n"
            "    except DomainError:\n"
            "        print('rejected')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(index_report.__code__.co_filename)))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "rejected\n" * len(self.BAD_HULLS), out.stderr

    def test_matches_polygon_records(self):
        # the index, witnesses and single-slope test from (rise, run) pairs agree
        # with the Fraction slopes and lengths of the NewtonPolygon records
        rng = random.Random(61)
        for _ in range(150):
            f = rand_nonzero_constant_poly(rng, max_deg=10, span=10**5)
            r = newton_index(f)
            g, _ = primitive_scale(f)  # the index is taken on the primitive part
            polygons = {p: newton_polygon(Poly.from_coeffs(g), p) for p in r.vertices}
            assert r.vertices == {p: np.vertices for p, np in polygons.items()}
            ramified = {p: [s for s in np.slopes if s.denominator > 1] for p, np in polygons.items()}
            assert r.witnesses == {p: sl for p, sl in ramified.items() if sl}
            assert r.index == math.lcm(1, *(s.denominator for sl in ramified.values() for s in sl))
            assert r.single_slope == any(
                len(np.segments) == 1 and np.slopes[0].denominator == np.segments[0].length
                for np in polygons.values()
            )


    def test_witnesses_match_fraction_slopes(self):
        # witnesses and witness(q), read in integers, equal those built from a
        # Fraction per segment, on seeded polynomials and their shifts
        rng = random.Random(67)
        for _ in range(60):
            f = rand_nonzero_constant_poly(rng, max_deg=12, span=10**4)
            for mu in (0, 1, -1, 2):
                r = newton_index(f.shift(mu))
                want = fraction_witnesses(r.vertices)
                assert r.witnesses == want and list(r.witnesses) == list(want)
                for q in range(2, f.degree + 2):
                    expected = fraction_witness(want, q)
                    if expected is None:
                        with pytest.raises(DomainError):
                            r.witness(q)
                    else:
                        assert r.witness(q) == expected


class TestSingleSlopeEvidence:
    def test_eisenstein(self):
        assert single_slope_irreducibility_evidence(parse_poly("-2,0,1"))

    def test_cubic(self):
        assert single_slope_irreducibility_evidence(parse_poly("6,18,9,1"))

    def test_no_candidates(self):
        assert not single_slope_irreducibility_evidence(parse_poly("-1,0,1"))

    def test_linear(self):
        # degree 1: evidence iff some prime divides a_0 * a_1
        assert single_slope_irreducibility_evidence(parse_poly("-2,1"))
        assert not single_slope_irreducibility_evidence(parse_poly("1,1"))
