import math
import random
from fractions import Fraction

import pytest

from glpgalois.errors import DomainError
from glpgalois.newton import (
    NewtonPolygon,
    newton_index,
    newton_polygon,
    single_slope_irreducibility_evidence,
    strip_x_powers,
)
from glpgalois.polys import Poly, parse_poly, poly_from_coeffs

from oracles import brute_lower_hull


def rand_nonzero_constant_poly(rng, max_deg=12, span=10**4):
    deg = rng.randint(1, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg + 1)]
    coeffs[0] = rng.choice([1, -1]) * rng.randint(1, span)
    coeffs[-1] = rng.choice([1, -1]) * rng.randint(1, span)
    return poly_from_coeffs(coeffs)


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
            NewtonPolygon(np.prime, np.points, ((0, 0), (3, 0)), np.segments)
        with pytest.raises(DomainError):
            NewtonPolygon(np.prime, np.points, np.vertices, np.segments * 2)

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


class TestStripXPowers:
    def test_strip(self):
        k, h = strip_x_powers(parse_poly("0,0,3,1"))
        assert k == 2 and h == parse_poly("3,1")
        k, h = strip_x_powers(parse_poly("1,1"))
        assert k == 0


class TestNewtonIndex:
    def test_examples(self):
        assert newton_index(parse_poly("-2,0,1")).index == 2
        r = newton_index(parse_poly("6,18,9,1"))
        assert r.index == 6
        assert r.witnesses[3] == [Fraction(-1, 3)]
        assert r.witnesses[2] == [Fraction(-1, 2)]
        # the atlas keeps the polygon of every candidate prime, ramified or not
        assert r.polygons == {p: newton_polygon(parse_poly("6,18,9,1"), p) for p in (2, 3)}
        unramified = newton_index(parse_poly("2,3,1"))
        assert unramified.witnesses == {} and set(unramified.polygons) == {2}
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

    def test_x_scaling_invariance(self):
        rng = random.Random(59)
        for _ in range(60):
            f = rand_nonzero_constant_poly(rng, max_deg=8, span=100)
            c = rng.choice([1, -1]) * rng.randint(1, 60)
            assert newton_index(f).index == newton_index(f.scale_x(c)).index


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
