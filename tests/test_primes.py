import json
import os
import random
import subprocess
import sys
from fractions import Fraction

import pytest

from glpgalois import cli, primes
from glpgalois.errors import DomainError
from glpgalois.polys import Poly, parse_poly
from glpgalois.primes import SMALL_PRIMES, is_prime, prime_factors
from glpgalois.newton import newton_index, newton_polygon

from oracles import is_prime_factor_set, lucas_lehmer, ord_p, trial_division_is_prime


class TestIsPrime:
    def test_small(self):
        assert is_prime(17)
        assert not is_prime(1)
        assert not is_prime(0)
        assert not is_prime(561)  # Carmichael

    def test_trial_division_oracle(self):
        for m in range(2000):
            assert is_prime(m) == trial_division_is_prime(m), m

    def test_small_primes_table(self):
        assert len(SMALL_PRIMES) == 6542
        assert SMALL_PRIMES[:6] == [2, 3, 5, 7, 11, 13] and SMALL_PRIMES[-1] == 65521
        assert SMALL_PRIMES == [m for m in range(1 << 16) if trial_division_is_prime(m)]
        assert all(is_prime(p) for p in SMALL_PRIMES)

    def test_small_primes_listed_on_first_read(self):
        # a process that never trial-divides never lists them: classify (the
        # filter's primes, the sieved drops) and 7,000 values of primes()
        # read the sieve itself
        code = (
            "import json\n"
            "from fractions import Fraction\n"
            "from itertools import islice\n"
            "from glpgalois import primes\n"
            "from glpgalois.glp import GlpParams, classify\n"
            "for n, a in [(9, '0'), (20, '5/3'), (31, '1'), (44, '-1/2')]:\n"
            "    classify(GlpParams.from_alpha(n, Fraction(a)))\n"
            "seq = list(islice(primes.primes(), 7000))\n"
            "before = 'SMALL_PRIMES' in vars(primes)\n"
            "small = primes.SMALL_PRIMES\n"
            "print(json.dumps([before, small is vars(primes)['SMALL_PRIMES'], seq]))\n"
        )
        src = os.path.dirname(os.path.dirname(os.path.abspath(primes.__file__)))
        out = subprocess.run([sys.executable, "-c", code], env=dict(os.environ, PYTHONPATH=src),
                             capture_output=True, text=True, timeout=60)
        assert out.returncode == 0, out.stderr
        before, cached, seq = json.loads(out.stdout)
        assert not before and cached
        above = (m for m in range((1 << 16) + 1, 1 << 17, 2) if trial_division_is_prime(m))
        assert seq == SMALL_PRIMES + [next(above) for _ in range(7000 - len(SMALL_PRIMES))]
        assert not hasattr(primes, "LARGE_PRIMES")

    def test_above_sieve_limit(self):
        assert is_prime(65537)
        assert not is_prime(65536 * 65536 + 1)
        assert is_prime(2**61 - 1)
        assert not is_prime(2**67 - 1)  # = 193707721 * 761838257287

    # the least strong pseudoprimes to the first 4, 5, 6, 7 (and 8), and 9 (to
    # 11) prime bases; psi_12 passes all twelve bases 2..37
    STRONG_PSEUDOPRIMES = [3215031751, 2152302898747, 3474749660383, 341550071728321,
                           3825123056546413051]
    PSI_12 = 318665857834031151167461

    def test_strong_pseudoprimes(self):
        for m in self.STRONG_PSEUDOPRIMES:
            assert not is_prime(m), m
        assert not is_prime(self.PSI_12)
        assert is_prime(399165290221) and is_prime(798330580441)
        assert prime_factors(self.PSI_12) == {399165290221, 798330580441}

    def test_trial_division_oracle_below_2_32(self):
        # the band above the sieve that trial division once covered: odd
        # numbers, and products of two primes above 2^8, which no small prime
        # divides
        rng = random.Random(89)
        big = [p for p in SMALL_PRIMES if p > 1 << 8]
        sample = [rng.randrange(1 << 16, 1 << 32) | 1 for _ in range(300)]
        sample += [rng.choice(big) * rng.choice(big) for _ in range(100)]
        sample += [65521 * 65521, 65537, (1 << 32) - 5]
        for m in sample:
            assert is_prime(m) == trial_division_is_prime(m), m


class TestOrdP:
    """The tests' own valuation (`oracles.ord_p`), on which `lemma_key_check`
    and the hull point checks of test_glp rest; the library has none."""

    def test_examples(self):
        assert ord_p(8, 2) == 3
        assert ord_p(Fraction(2, 9), 3) == -2
        with pytest.raises(DomainError, match="no finite valuation"):
            ord_p(0, 5)

    def test_edge_inputs(self):
        assert ord_p(-24, 2) == 3  # negative numerators
        assert ord_p(Fraction(-9, 4), 3) == 2
        assert ord_p(Fraction(-9, 4), 2) == -2  # p divides the denominator
        assert ord_p(Fraction(5, 8), 2) == -3
        assert ord_p(Fraction(5, 8), 7) == 0
        assert ord_p(-1, 3) == 0
        for zero, p in (Fraction(0), 5), (Fraction(0, 7), 7):  # zero, as a Fraction too
            with pytest.raises(DomainError):
                ord_p(zero, p)
        assert type(ord_p(Fraction(-12), 2)) is int

    def test_multiplicative(self):
        rng = random.Random(31)
        for _ in range(100):
            p = rng.choice([2, 3, 5, 7, 11])
            q = Fraction(rng.randint(1, 500), rng.randint(1, 500)) * rng.choice([1, -1])
            r = Fraction(rng.randint(1, 500), rng.randint(1, 500))
            assert ord_p(q * r, p) == ord_p(q, p) + ord_p(r, p)


class TestCandidatePrimes:
    """The candidate primes are the keys of newton_index(f).vertices: the
    primes of a_0 * a_n of the primitive part with its x-powers dropped."""

    def test_examples(self):
        assert set(newton_index(parse_poly("2,-4,1")).vertices) == {2}
        assert set(newton_index(parse_poly("6,18,9,1")).vertices) == {2, 3}
        assert set(newton_index(parse_poly("1,1,1")).vertices) == set()

    def test_prime_factors_large(self):
        assert prime_factors(2**5 * 3 * 1000003) == {2, 3, 1000003}
        assert prime_factors(1000003 * 1000033) == {1000003, 1000033}

    def test_outside_set_single_flat_segment(self):
        rng = random.Random(41)
        checked = 0
        while checked < 50:
            f = Poly.from_coeffs([rng.randint(-50, 50) for _ in range(rng.randint(2, 8))])
            if f.is_zero() or f[0] == 0 or f.degree < 1:
                continue
            cand = set(newton_index(f).vertices)
            outside = [p for p in [2, 3, 5, 7, 11, 13, 17, 19, 101, 257] if p not in cand][:20]
            for p in outside:
                np = newton_polygon(f, p)
                assert len(np.segments) == 1
                assert np.segments[0].slope == 0
            checked += 1


class TestPrimeFactors:
    """Each small prime is tried once; a cofactor left when p^2 > m is prime,
    one left after every small prime is prime below 2^32, and above it is
    tested by Miller-Rabin and split by rho."""

    @pytest.mark.parametrize("m", [
        65521**2,  # the last small prime squared: the cofactor 1 is no prime
        65521**3,
        65537**2,  # a square beyond every small prime, split by rho
        65537 * 65539,
        4294967291,  # the largest prime below 2^32
        65521 * 4294967291,
        (2**31 - 1) ** 2,
        2 * 3 * 65521 * 65537,
        1, -1, 2, -2, 4,
    ])
    def test_boundaries(self, m):
        assert is_prime_factor_set(m, prime_factors(m)), m

    def test_mersenne_61(self):
        assert lucas_lehmer(61)
        assert prime_factors(2**61 - 1) == {2**61 - 1}
        assert prime_factors(-3 * (2**61 - 1)) == {3, 2**61 - 1}

    def test_small_values(self):
        # the tiny k*mu + lam of the GLP atlas
        for m in range(-2000, 2001):
            if m:
                assert is_prime_factor_set(m, prime_factors(m)), m

    def test_random_products(self):
        rng = random.Random(43)
        for _ in range(60):
            ps = [rng.choice(SMALL_PRIMES[-50:] + [65537, 65539, 65543, 2**31 - 1])
                  for _ in range(rng.randint(1, 3))]
            m = rng.choice([1, -1]) * rng.randint(1, 50)
            for p in ps:
                m *= p ** rng.randint(1, 2)
            assert is_prime_factor_set(m, prime_factors(m)), m

    def test_zero_rejected(self):
        with pytest.raises(DomainError):
            prime_factors(0)


class TestRhoBudget:
    # a 39-digit semiprime: rho would need about 10^9.5 steps
    N = 10000000000000000051 * 30000000000000000041

    def test_budget_raises(self, monkeypatch):
        monkeypatch.setattr(primes, "RHO_BUDGET", 2000)
        with pytest.raises(DomainError, match="no factor found in 2000 Pollard rho steps"):
            prime_factors(self.N)
        # within the budget the split is found
        assert prime_factors(1000003 * 1000033) == {1000003, 1000033}

    @pytest.mark.parametrize("argv", [["index"], ["certify"], ["certify", "--json"]])
    def test_index_and_certify_exit_1(self, monkeypatch, capsys, argv):
        monkeypatch.setattr(primes, "RHO_BUDGET", 2000)
        assert cli.main([*argv, f"--poly={self.N},3,0,5,1"]) == 1
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("error: cannot factor ") and out.err.count("\n") == 1
