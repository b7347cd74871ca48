import math
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import glpgalois
from glpgalois.certify import (
    ASSUMED,
    CONTAINS_AN,
    INCONCLUSIVE,
    INDEX_DIVIDES,
    GaloisCertificate,
    certificate_to_dict,
    certify_from_reports,
    certify_large_galois,
    jordan_window_primes,
)
from glpgalois.errors import DomainError
from glpgalois.glp import GlpParams, glp_normalized
from glpgalois.newton import NewtonIndexReport, newton_index, newton_polygon
from glpgalois.polys import parse_poly

from oracles import lemma_key_check


class TestJordanWindow:
    def test_small(self):
        assert jordan_window_primes(9) == [5]
        assert jordan_window_primes(10) == [7]
        assert jordan_window_primes(3) == []

    def test_boundaries_excluded(self):
        # q = n - 2 and q = n/2 are both outside the open window
        assert 7 not in jordan_window_primes(9)
        assert 5 not in jordan_window_primes(10)


class TestLemmaKeyCheck:
    def test_glp9(self):
        c = [math.factorial(9) // math.factorial(j) for j in range(10)]
        assert lemma_key_check(9, c, 5)
        assert not lemma_key_check(9, c, 7)  # window boundary: 7 >= n - 2

    def test_zero_coefficient_lies_above_every_line(self):
        # a zero c_j meets the "ord_p >= 0" condition but neither "= 1" nor "= 0"
        c = [math.factorial(9) // math.factorial(j) for j in range(10)]
        for j, expected in ((0, True), (2, False), (5, False), (7, True)):
            assert lemma_key_check(9, c[:j] + [0] + c[j + 1 :], 5) is expected, j

    def test_glp20_half_integer(self):
        c = [math.prod(2 * k + 1 for k in range(j + 1, 21)) for j in range(21)]
        assert lemma_key_check(20, c, 17)

    def test_range_errors(self):
        c = [1] * 10
        with pytest.raises(DomainError):
            lemma_key_check(9, c, 2)
        with pytest.raises(DomainError):
            lemma_key_check(9, c, 11)
        with pytest.raises(DomainError):
            lemma_key_check(9, c, 9)

    def test_implies_polygon_corners(self):
        # whenever the shortcut passes, the polygon opens (0,1) -> (p,0)
        for n, lam, mu, p in [(9, 0, 1, 5), (20, 1, 2, 17)]:
            params = GlpParams(n, lam, mu)
            f = glp_normalized(params)
            np = newton_polygon(f, p)
            assert np.vertices[0] == (0, 1)
            assert np.vertices[1] == (p, 0)
            assert np.segments[0].slope == Fraction(-1, p)


class TestCertify:
    def test_glp9_contains_an(self):
        f = glp_normalized(GlpParams(9, 0, 1))
        cert = certify_large_galois(f, shifts=(0,), irreducibility=ASSUMED)
        assert cert.verdict == CONTAINS_AN
        assert cert.witness_prime_q == 5
        assert cert.valuation_prime_p == 5
        assert cert.slope == Fraction(-1, 5)

    def test_cubic_index_only(self):
        cert = certify_large_galois(parse_poly("6,18,9,1"))
        assert cert.verdict == INDEX_DIVIDES
        assert cert.newton_index == 6

    def test_reducible_inconclusive(self):
        cert = certify_large_galois(parse_poly("-1,0,1"))
        assert cert.verdict == INCONCLUSIVE
        assert cert.newton_index == 1

    def test_never_contains_without_irreducibility(self):
        f = glp_normalized(GlpParams(9, 0, 1))
        cert = certify_large_galois(f, shifts=(0,), irreducibility=None)
        assert cert.verdict != CONTAINS_AN
        assert cert.newton_index % 5 == 0  # index still reported

    def test_errors(self):
        with pytest.raises(DomainError):
            certify_large_galois(parse_poly("1,1"))
        with pytest.raises(DomainError):
            certify_large_galois(parse_poly("6,18,9,1"), shifts=())

    def test_shift_monotonicity(self):
        rank = {INCONCLUSIVE: 0, INDEX_DIVIDES: 1, CONTAINS_AN: 2}
        f = glp_normalized(GlpParams(9, 0, 1))
        base = certify_large_galois(f, shifts=(0,))
        wider = certify_large_galois(f, shifts=(0, 1, -1, 2))
        assert rank[wider.verdict] >= rank[base.verdict]
        g = parse_poly("-1,0,1")
        assert (
            rank[certify_large_galois(g, shifts=(0, 1)).verdict]
            >= rank[certify_large_galois(g, shifts=(0,)).verdict]
        )

    def test_witness_replay(self):
        f = glp_normalized(GlpParams(9, 0, 1))
        cert = certify_large_galois(f, shifts=(0,))
        g = f.shift(cert.shift_used)
        np = newton_polygon(g, cert.valuation_prime_p)
        assert cert.slope in np.slopes

    def test_theorem_divisibility_small_corpus(self):
        # hand-known Galois group orders for quadratics and cubics
        corpus = [
            ("-2,0,1", 2),  # x^2 - 2
            ("1,0,1", 2),  # x^2 + 1
            ("1,1,1", 2),  # x^2 + x + 1
            ("6,18,9,1", 6),  # S_3, index is exactly 6
            ("-2,0,0,1", 6),  # x^3 - 2, S_3
            ("1,-3,0,1", 3),  # x^3 - 3x + 1, disc 81 square, C_3
            ("1,1,0,1", 6),  # x^3 + x + 1, disc -31, S_3
        ]
        for text, order in corpus:
            idx = newton_index(parse_poly(text)).index
            assert order % idx == 0, (text, idx, order)

    def test_stops_at_first_certifying_shift(self):
        f = glp_normalized(GlpParams(9, 0, 1))

        def reports():
            yield Fraction(0), newton_index(f)
            raise AssertionError("consumed a shift past the first certificate")

        cert = certify_from_reports(9, reports(), ASSUMED, jordan_window_primes(9))
        assert cert.verdict == CONTAINS_AN and cert.witness_prime_q == 5

    def test_json_field_names(self):
        cert = certify_large_galois(glp_normalized(GlpParams(9, 0, 1)))
        d = certificate_to_dict(cert)
        assert set(d) == {
            "verdict",
            "n",
            "shift",
            "valuation_prime",
            "slope",
            "window_prime",
            "newton_index",
            "irreducibility_basis",
        }


class TestClaimInvariants:
    def test_bad_contains_an_rejected(self):
        for q, index in [(7, 7 * 2520), (6, 2520), (5, 7), (None, 2520)]:
            with pytest.raises(DomainError):
                GaloisCertificate(CONTAINS_AN, 9, Fraction(0), index, ASSUMED, q, q, None)

    def test_missing_witness_slope_rejected(self):
        report = NewtonIndexReport(index=5, vertices={})
        with pytest.raises(DomainError):
            certify_from_reports(9, [(Fraction(0), report)], ASSUMED, [5])

    def test_checked_under_python_optimize(self):
        # `python -O` strips asserts; the window-prime check must survive it
        code = (
            "from fractions import Fraction\n"
            "from glpgalois.certify import CONTAINS_AN, GaloisCertificate\n"
            "from glpgalois.errors import DomainError\n"
            "try:\n"
            "    GaloisCertificate(CONTAINS_AN, 9, Fraction(0), 7 * 2520, 'assumed', 7, 7, None)\n"
            "except DomainError:\n"
            "    print('rejected')\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, timeout=60)
        assert out.stdout == "rejected\n", out.stderr
