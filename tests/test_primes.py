import random
from fractions import Fraction

import pytest

from glpgalois import cli, primes
from glpgalois.errors import BadPrimeError, DomainError
from glpgalois.polys import parse_poly, poly_from_coeffs
from glpgalois.primes import (
    SMALL_PRIMES,
    candidate_primes,
    is_prime,
    ord_p,
    prime_factors,
    primes_in_ap_interval,
)
from glpgalois.newton import newton_polygon

from oracles import is_prime_factor_set, lucas_lehmer, trial_division_is_prime


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
    def test_examples(self):
        assert ord_p(8, 2) == 3
        assert ord_p(Fraction(2, 9), 3) == -2
        with pytest.raises(DomainError, match="no finite valuation"):
            ord_p(0, 5)

    def test_non_prime_rejected(self):
        with pytest.raises(BadPrimeError):
            ord_p(8, 6)
        with pytest.raises(BadPrimeError):
            ord_p(0, 6)

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


class TestPrimesInAP:
    def test_examples(self):
        assert primes_in_ap_interval(1, 4, 10, 30) == [13, 17, 29]
        assert primes_in_ap_interval(0, 1, 24, 28) == []
        assert primes_in_ap_interval(1, 2, 15, 17) == [17]

    def test_gcd_error(self):
        with pytest.raises(DomainError):
            primes_in_ap_interval(2, 4, 1, 100)

    def test_sieve_filter_oracle(self):
        rng = random.Random(37)
        for _ in range(50):
            mu = rng.randint(1, 12)
            lam = rng.choice([r for r in range(-mu, 2 * mu) if _coprime(r, mu)])
            lo = rng.randint(-10, 200)
            hi = lo + rng.randint(0, 150)
            expected = [
                m
                for m in range(max(lo, 2), hi + 1)
                if trial_division_is_prime(m) and (m - lam) % mu == 0
            ]
            assert primes_in_ap_interval(lam, mu, lo, hi) == expected


def _coprime(a, b):
    import math

    return math.gcd(a, b) == 1


class TestCandidatePrimes:
    def test_examples(self):
        assert candidate_primes(parse_poly("2,-4,1")) == {2}
        assert candidate_primes(parse_poly("6,18,9,1")) == {2, 3}
        assert candidate_primes(parse_poly("1,1,1")) == set()

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError):
            candidate_primes(parse_poly("0,1"))

    def test_prime_factors_large(self):
        assert prime_factors(2**5 * 3 * 1000003) == {2, 3, 1000003}
        assert prime_factors(1000003 * 1000033) == {1000003, 1000033}

    def test_outside_set_single_flat_segment(self):
        rng = random.Random(41)
        checked = 0
        while checked < 50:
            f = poly_from_coeffs([rng.randint(-50, 50) for _ in range(rng.randint(2, 8))])
            if f.is_zero() or f[0] == 0 or f.degree < 1:
                continue
            cand = candidate_primes(f)
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
