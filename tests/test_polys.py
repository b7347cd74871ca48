import random
from fractions import Fraction

import pytest

from glpgalois.errors import DomainError, ZeroPolynomialError
from glpgalois.polys import (
    Poly,
    discriminant,
    parse_poly,
    poly_from_coeffs,
    primitive_scale,
    render_poly,
    resultant,
)

from oracles import sylvester_resultant


def rand_poly(rng, max_deg=6, span=20, rational=False):
    deg = rng.randint(0, max_deg)
    coeffs = [rng.randint(-span, span) for _ in range(deg + 1)]
    if rational:
        coeffs = [Fraction(c, rng.randint(1, 9)) for c in coeffs]
    return Poly.from_coeffs(coeffs)


class TestConstruction:
    def test_basic(self):
        f = poly_from_coeffs([2, -4, 1])
        assert f.degree == 2

    def test_zero(self):
        assert poly_from_coeffs([]).is_zero()
        assert poly_from_coeffs([0, 0]).is_zero()

    def test_trailing_zero_strip(self):
        f = poly_from_coeffs([Fraction(1, 2), 0, 0])
        assert f.degree == 0
        assert f.coeffs == (Fraction(1, 2),)


class TestTextFormat:
    def test_examples(self):
        assert render_poly(parse_poly("2,-4,1")) == "2,-4,1"
        assert parse_poly("1/2,0,3").coeffs == (Fraction(1, 2), 0, 3)
        assert parse_poly("0").is_zero()
        assert render_poly(Poly(())) == "0"

    def test_round_trip_random(self):
        rng = random.Random(7)
        for _ in range(100):
            f = rand_poly(rng, rational=True)
            assert parse_poly(render_poly(f)) == f

    def test_bad_input(self):
        with pytest.raises(DomainError):
            parse_poly("1,x,2")
        with pytest.raises(DomainError):
            parse_poly("1/0")


class TestShift:
    def test_identity_shift(self):
        f = parse_poly("2,-4,1")
        assert f.shift(0) == f

    def test_square_shift(self):
        assert parse_poly("0,0,1").shift(1) == parse_poly("1,-2,1")  # (x-1)^2

    def test_hand_expansion(self):
        # f(x+2) for f = x^2 - 4x + 2 is x^2 - 2
        assert parse_poly("2,-4,1").shift(-2) == parse_poly("-2,0,1")

    def test_shift_round_trip_and_degree(self):
        rng = random.Random(11)
        for _ in range(60):
            f = rand_poly(rng, rational=True)
            if f.is_zero():
                continue
            mu = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
            g = f.shift(mu)
            assert g.degree == f.degree
            assert g.shift(-mu) == f

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            Poly(()).shift(1)


class TestPrimitiveScale:
    def test_examples(self):
        g, c = primitive_scale(parse_poly("1,-2,1/2"))
        assert g == parse_poly("2,-4,1") and c == Fraction(1, 2)
        g, c = primitive_scale(parse_poly("2,-4,1"))
        assert g == parse_poly("2,-4,1") and c == 1
        g, c = primitive_scale(parse_poly("6,-3"))
        assert g == parse_poly("-2,1") and c == -3

    def test_reconstruction(self):
        rng = random.Random(13)
        for _ in range(80):
            f = rand_poly(rng, rational=True)
            if f.is_zero():
                continue
            g, c = primitive_scale(f)
            assert g * c == f
            assert g.leading > 0
            assert all(x.denominator == 1 for x in g.coeffs)


class TestResultant:
    def test_linear(self):
        assert resultant(parse_poly("-3,1"), parse_poly("-1,1")) == 2

    def test_against_eval(self):
        assert resultant(parse_poly("1,0,1"), parse_poly("0,1")) == 1

    def test_sylvester_oracle_case(self):
        # direct 3x3 Sylvester determinant gives -8 here
        f, g = parse_poly("2,-4,1"), parse_poly("-4,2")
        assert sylvester_resultant(f, g) == -8
        assert resultant(f, g) == -8

    def test_zero_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            resultant(Poly(()), parse_poly("1,1"))

    def test_antisymmetry(self):
        rng = random.Random(17)
        for _ in range(40):
            f, g = rand_poly(rng), rand_poly(rng)
            if f.is_zero() or g.is_zero():
                continue
            sign = -1 if (f.degree * g.degree) % 2 else 1
            assert resultant(f, g) == sign * resultant(g, f)

    def test_matches_gaussian_sylvester(self):
        rng = random.Random(19)
        for _ in range(40):
            f, g = rand_poly(rng, rational=True), rand_poly(rng, rational=True)
            if f.is_zero() or g.is_zero():
                continue
            assert resultant(f, g) == sylvester_resultant(f, g)


class TestDiscriminant:
    def test_quadratics(self):
        assert discriminant(parse_poly("2,-4,1")) == 8
        assert discriminant(parse_poly("1,0,1")) == -4

    def test_cubic(self):
        assert discriminant(parse_poly("6,18,9,1")) == 1944  # 2^3 * 3^5

    def test_constant_rejected(self):
        with pytest.raises(DomainError):
            discriminant(parse_poly("5"))

    def test_closed_forms(self):
        rng = random.Random(23)
        for _ in range(60):
            a, b, c = (rng.randint(-9, 9) for _ in range(3))
            if a == 0:
                continue
            assert discriminant(poly_from_coeffs([c, b, a])) == b * b - 4 * a * c
        for _ in range(60):
            p_, q_ = rng.randint(-9, 9), rng.randint(-9, 9)
            f = poly_from_coeffs([q_, p_, 0, 1])
            assert discriminant(f) == -4 * p_**3 - 27 * q_**2

    def test_translation_invariance(self):
        rng = random.Random(29)
        for _ in range(40):
            f = rand_poly(rng, max_deg=5)
            if f.degree < 1:
                continue
            mu = Fraction(rng.randint(-6, 6), rng.randint(1, 4))
            assert discriminant(f) == discriminant(f.shift(mu))
