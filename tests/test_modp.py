import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from functools import partial
from itertools import islice

import pytest

import glpgalois
from glpgalois import cli, modp, polys
from glpgalois.errors import BadPrimeError, DomainError
from glpgalois.glp import _EVIDENCE_PRIME_BUDGET, GlpParams, classify, glp_normalized
from glpgalois.modp import (
    ALL_EVEN,
    CONTAINS_ODD,
    CycleType,
    _closure_mask,
    _divmod,
    _euclid_slots,
    _gcd,
    _monic,
    _pack,
    _power_table,
    _product,
    _slot_bytes,
    _trim,
    _unpack,
    degree_set_filter,
    factor_degrees,
    good_primes,
    is_good_prime,
    parity_evidence,
)
from glpgalois.polys import Poly, parse_poly
from glpgalois.primes import primes

from oracles import (
    degree_multisets,
    degree_one_settles,
    is_good_prime_by_discriminant,
    is_irreducible_mod_p,
    low_degree_factor_degrees,
    schoolbook_divmod,
    schoolbook_gcd,
    schoolbook_mulmod,
    schoolbook_x_power,
    subset_sum_closure,
    subset_sums_by_enumeration,
    trial_division_is_prime,
)


class TestGoodPrime:
    def test_examples(self):
        f = parse_poly("1,0,1")
        assert not is_good_prime(f, 2)  # disc = -4
        assert is_good_prime(f, 3)
        assert not is_good_prime(parse_poly("2,-4,1"), 2)  # disc = 8

    def test_denominator_and_leading(self):
        assert not is_good_prime(parse_poly("1/3,0,1"), 3)
        assert not is_good_prime(parse_poly("1,0,3"), 3)

    def test_good_primes_stream(self):
        assert list(islice(good_primes(parse_poly("1,0,1")), 4)) == [3, 5, 7, 11]

    def test_not_square_free_ends(self, capsys):
        # every prime is bad for (x + 1)^2; the search stops once the bad
        # primes multiply past the bound a square-free f would obey
        start = time.perf_counter()
        assert cli.main(["frobenius", "--poly", "1,2,1"]) == 1
        assert time.perf_counter() - start < 1
        assert capsys.readouterr().err.startswith("error: ")
        with pytest.raises(DomainError, match="not square-free"):
            next(good_primes(parse_poly("1,2,1") * parse_poly("3,0,1/2")))

    def test_square_free_with_many_bad_primes(self):
        # every prime below 31 merges two of the roots 0..30
        f = Poly.from_coeffs([1])
        for i in range(31):
            f = f * Poly.from_coeffs([-i, 1])
        assert list(islice(good_primes(f), 3)) == [31, 37, 41]

    def test_frobenius_path_computes_no_resultant(self, monkeypatch, capsys):
        def no_resultant(f, g):
            raise AssertionError("resultant called")

        monkeypatch.setattr(polys, "resultant", no_resultant)
        f = parse_poly("3,-1,0,2,0,1")  # disc 384005 = 5 * 76801
        assert list(islice(good_primes(f), 4)) == [2, 3, 7, 11]
        assert is_good_prime(f, 2) and not is_good_prime(f, 5)
        assert factor_degrees(f, 3).degrees == (1, 4)
        # n = 9, alpha = 5/3 is proved irreducible by the mod-p degree filter
        assert classify(GlpParams(9, 5, 3)).certificate.irreducibility_basis == "degree_set_filter"
        assert cli.main(["frobenius", "--poly", "1,0,1", "--frobenius-samples", "3"]) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "verdict=contains-odd-permutation"


class TestKeptReductions:
    """good_primes accepts a prime by reducing f mod p, and factor_degrees on
    the same Poly object and prime uses that reduction instead of another."""

    F = "3,-1,0,2,0,1"  # disc 384005 = 5 * 76801: 5 is the one bad prime below 11

    @pytest.fixture
    def reductions(self, monkeypatch):
        monkeypatch.setattr(modp, "_ACCEPTED", {})  # none left by other tests
        calls = []
        original = modp._good_reduction

        def counted(f, p):
            calls.append((f, p))
            return original(f, p)

        monkeypatch.setattr(modp, "_good_reduction", counted)
        return calls

    def test_eight_samples_cost_eight_reductions(self, reductions):
        f = parse_poly(self.F)
        ps = list(islice(good_primes(f), 8))
        assert ps == [2, 3, 7, 11, 13, 17, 19, 23]
        rejected = 1  # 5
        assert len(reductions) == 8 + rejected
        samples = [factor_degrees(f, p) for p in ps]
        assert len(reductions) == 8 + rejected
        # and the same cycle types as reductions made afresh
        fresh = parse_poly(self.F)
        assert samples == [factor_degrees(fresh, p) for p in ps]
        assert len(reductions) == 16 + rejected

    def test_equal_but_distinct_poly_reduces_anew(self, reductions):
        f, twin = parse_poly(self.F), parse_poly(self.F)
        assert f == twin and f is not twin
        ps = list(islice(good_primes(f), 3))
        before = len(reductions)
        assert [factor_degrees(twin, p) for p in ps] == [factor_degrees(f, p) for p in ps]
        assert len(reductions) == before + 3

    def test_interleaved_generators(self, reductions):
        f, g = parse_poly(self.F), parse_poly("1,0,1")
        gf, gg = good_primes(f), good_primes(g)
        pairs = [(next(gf), next(gg)) for _ in range(6)]
        before = len(reductions)
        for pf, pg in pairs:
            assert factor_degrees(f, pf) == factor_degrees(parse_poly(self.F), pf)
            assert factor_degrees(g, pg) == factor_degrees(parse_poly("1,0,1"), pg)
        # one fresh reduction per comparison, none for the accepted primes
        assert len(reductions) == before + 12

    def test_bad_prime_still_raises(self, reductions):
        f = parse_poly(self.F)
        list(islice(good_primes(f), 4))  # 2, 3, 7, 11; 5 was rejected
        with pytest.raises(BadPrimeError, match="5 is not a good prime"):
            factor_degrees(f, 5)
        with pytest.raises(BadPrimeError, match="9 is not prime"):
            factor_degrees(f, 9)

    def test_reduction_used_once(self, reductions):
        f = parse_poly(self.F)
        assert next(good_primes(f)) == 2
        first = factor_degrees(f, 2)
        before = len(reductions)
        assert factor_degrees(f, 2) == first
        assert len(reductions) == before + 1

    def test_kept_reductions_are_bounded(self, reductions):
        f = parse_poly(self.F)
        for p in islice(good_primes(f), 3 * modp._ACCEPTED_LIMIT):
            assert len(modp._ACCEPTED) <= modp._ACCEPTED_LIMIT


class TestFactorDegrees:
    def test_examples(self):
        assert factor_degrees(parse_poly("1,0,1"), 5).degrees == (1, 1)
        assert factor_degrees(parse_poly("1,0,1"), 3).degrees == (2,)
        assert factor_degrees(parse_poly("-2,0,0,1"), 7).degrees == (3,)

    def test_bad_prime_rejected(self):
        with pytest.raises(BadPrimeError):
            factor_degrees(parse_poly("1,0,1"), 2)
        with pytest.raises(BadPrimeError, match="9 is not prime"):
            factor_degrees(parse_poly("1,0,1"), 9)
        with pytest.raises(DomainError):
            factor_degrees(parse_poly("3"), 5)

    def test_low_degree_oracle(self):
        rng = random.Random(61)
        primes = [p for p in range(3, 100) if trial_division_is_prime(p)]
        done = 0
        while done < 150:
            deg = rng.randint(1, 3)
            coeffs = [rng.randint(-30, 30) for _ in range(deg + 1)]
            f = Poly.from_coeffs(coeffs)
            if f.degree != deg:
                continue
            p = rng.choice(primes)
            if not is_good_prime(f, p):
                continue
            expected = tuple(sorted(low_degree_factor_degrees([int(c) for c in f.coeffs], p)))
            assert factor_degrees(f, p).degrees == expected
            done += 1

    def test_degree_sum_random(self):
        # reconstruction is asserted inside factor_degrees on every call
        rng = random.Random(67)
        done = 0
        while done < 100:
            f = Poly.from_coeffs([rng.randint(-50, 50) for _ in range(rng.randint(3, 10))])
            if f.degree < 2:
                continue
            p = rng.choice([101, 103, 107, 109, 113])
            if not is_good_prime(f, p):
                continue
            ct = factor_degrees(f, p)
            assert sum(ct.degrees) == f.degree
            done += 1

    def test_good_prime_iff_factor_degrees_returns(self):
        # two independent definitions of a good prime: the reduction mod p,
        # which is_good_prime and factor_degrees share, and p | disc(f)
        rng = random.Random(71)
        primes = [p for p in range(2, 1010) if trial_division_is_prime(p)]
        for i in range(250):
            deg = rng.randint(1, 14)
            dens = [1] if i % 2 else [1, 2, 3, 5, 7]
            coeffs = [Fraction(rng.randint(-30, 30), rng.choice(dens)) for _ in range(deg + 1)]
            small = rng.choice(primes[:6])
            coeffs[-1] = rng.choice([1, -2, small, Fraction(1, small)])
            f = Poly.from_coeffs(coeffs)
            tried = rng.sample(primes[:10], 3) + rng.sample(primes, 2) + [small]
            tried += [q for q in primes[:10] if deg % q == 0]
            for p in tried:
                good = is_good_prime_by_discriminant(f, p)
                assert is_good_prime(f, p) == good, (f, p)
                try:
                    ct = factor_degrees(f, p)
                except BadPrimeError as e:
                    assert not good, (f, p)
                    assert str(e) == f"{p} is not a good prime for this polynomial"
                else:
                    assert good, (f, p)
                    assert sum(ct.degrees) == deg

    def test_primes_above_2_to_the_25(self):
        # both above 2^25; 33554473 = 1 and 33554467 = 3 mod 4
        assert factor_degrees(parse_poly("1,0,1"), 33554473).degrees == (1, 1)
        assert factor_degrees(parse_poly("1,0,1"), 33554467).degrees == (2,)

    def test_chebotarev_pattern_x2_plus_1(self):
        f = parse_poly("1,0,1")
        for p in range(3, 200):
            if not trial_division_is_prime(p):
                continue
            degrees = factor_degrees(f, p).degrees
            assert degrees == ((1, 1) if p % 4 == 1 else (2,))


def _product_of_irreducibles(p, degrees, rng):
    """A monic integer polynomial whose reduction mod p is the product of
    distinct monic factors of the given degrees, each irreducible mod p by
    trial division."""
    factors = []
    for e in degrees:
        while True:
            c = [rng.randrange(p) for _ in range(e)] + [1]
            if c not in factors and is_irreducible_mod_p(c, p):
                factors.append(c)
                break
    prod = Poly.from_coeffs([1])
    for c in factors:
        prod = prod * Poly.from_coeffs(c)
    return prod


class TestBatchedDdf:
    # the h - x of a run of isqrt(n) consecutive d share one gcd, which is
    # split d by d; a run holding d and 2d needs the degree-d block divided
    # out before 2d is tried
    @pytest.mark.parametrize("p, degrees", [
        (2, [1, 1, 2, 3, 3, 4, 6, 16]),  # n 36, run 1..6 holds 1, 2, 4 and 3, 6
        (3, [1, 1, 2, 3, 4, 6, 19]),  # 19 > n/2
        (2, [1, 2, 4, 17]),  # n 24, run 1..4; 17 > n/2
        (3, [2, 2, 4, 5, 15]),
        (67, [1, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5]),  # p > 2n
    ])
    def test_known_factor_degrees(self, p, degrees):
        f = _product_of_irreducibles(p, degrees, random.Random(sum(degrees) * p))
        assert factor_degrees(f, p).degrees == tuple(sorted(degrees))

    def test_random_known_factor_degrees(self):
        rng = random.Random(73)
        top = {3: 12, 5: 8, 7: 6, 67: 5}  # keeps trial division cheap
        for _ in range(40):
            p, n = rng.choice(sorted(top)), rng.randint(10, 30)
            degrees = []
            while sum(degrees) < n:  # two of each degree up to 5 make 30
                e = rng.randint(1, top[p])
                if degrees.count(e) < 2:
                    degrees.append(e)
            f = _product_of_irreducibles(p, degrees, rng)
            assert factor_degrees(f, p).degrees == tuple(sorted(degrees)), (p, degrees)

    def test_degrees_one_and_two(self):
        for p in (2, 3, 5, 7, 1009):
            assert factor_degrees(parse_poly("3,1"), p).degrees == (1,)
        assert factor_degrees(parse_poly("1,1,1"), 2).degrees == (2,)
        assert factor_degrees(parse_poly("0,1,1"), 2).degrees == (1, 1)
        assert factor_degrees(parse_poly("-2,0,1"), 7).degrees == (1, 1)
        assert factor_degrees(parse_poly("-2,0,1"), 5).degrees == (2,)

    def test_completely_split(self):
        # x^p = x mod fbar, so every h - x and the run's product are zero
        for p, roots in ((7, range(7)), (11, range(1, 10)), (2, range(2))):
            f = Poly.from_coeffs([1])
            for a in roots:
                f = f * Poly.from_coeffs([-a, 1])
            assert factor_degrees(f, p).degrees == (1,) * len(roots)

    # a run's gcd g is divided out of the cofactor once, then split from its
    # lowest degree e up; once deg g < 2e it holds one factor, taken whole.
    # Each case sits at that boundary: deg g = 2e - 1 (one factor) or 2e
    # (two factors of degree e, still split).  p <= 2n - 2 reads Frobenius
    # rows from the reduction table, p > 2n - 2 builds them from x^p
    @pytest.mark.parametrize("p, degrees", [
        (2, [6, 6, 13]),  # run 6..10: deg g = 12 = 2 * 6, split by a gcd
        (2, [9, 16]),  # run 6..10: deg g = 9 in [6, 12), one block
        (3, [1, 2, 2, 11]),  # run 1..4: after degree 1, deg g = 4 = 2 * 2
        (3, [1, 3, 12]),  # run 1..4: after degree 1, deg g = 3 = 2 * 2 - 1
        (17, [1, 3, 5]),  # n 9, p > 16: after degree 1, deg g = 3 at e = 2
        (17, [4, 5]),  # run 4..4: one factor of degree 4
        (19, [1, 2, 2, 4]),  # after degree 1, deg g = 4 = 2 * 2 at e = 2 < d = 3
        (31, [3, 3, 5, 5]),  # n 16, p > 30: deg g = 6 at e = 3 < d = 4, then 10 at e = d = 5
    ])
    def test_one_block_boundary(self, p, degrees):
        f = _product_of_irreducibles(p, degrees, random.Random(sum(degrees) * p))
        assert factor_degrees(f, p).degrees == tuple(sorted(degrees))

    def test_one_factor_left_costs_no_gcd(self, monkeypatch):
        # [1, 3, 5] at 17: one gcd for the run 1..3, one to split off degree 1;
        # the degree-3 factor left is a block without another gcd
        f = _product_of_irreducibles(17, [1, 3, 5], random.Random(9 * 17))
        fbar = [int(c) % 17 for c in f.coeffs]
        calls = []
        original = modp._gcd
        monkeypatch.setattr(modp, "_gcd", lambda a, b, p: calls.append(p) or original(a, b, p))
        degrees, blocks = modp._ddf_degrees(fbar, 17)
        assert sorted(degrees) == [1, 3, 5] and len(blocks) == 3
        assert len(calls) == 2

    def test_p2_every_degree_up_to_24(self):
        # at p = 2 every Frobenius row x^(2i), i < n, is in the reduction table
        rng = random.Random(79)
        for n in range(1, 25):
            a = max(1, n // 3)
            for degrees in ([n], [a, n - a]) if n > 1 else ([n],):
                f = _product_of_irreducibles(2, degrees, rng)
                assert factor_degrees(f, 2).degrees == tuple(sorted(degrees)), degrees


class TestSlotWidths:
    # Kronecker slots hold up to 2n(p - 1)^2 in the quotient ring and
    # min(len) * (p - 1)^2 in a plain product; 1, 2, 4 and 8 bytes go through
    # array, wider slots (every prime above 2^32 here) byte by byte
    def test_slot_bytes(self):
        for bits in range(200):
            for bound in (1 << bits) - 1, 1 << bits:
                w = _slot_bytes(bound)
                assert bound < 1 << 8 * w
                assert w in (1, 2, 4, 8) if bound.bit_length() < 64 else w > 8

    @pytest.mark.parametrize("p", [2, 3, 251, 65537, 4294967311])
    def test_power_table_rows(self, p):
        # row k is x^k mod fbar with every slot reduced below p; the prime
        # above 2^32 packs its 9-byte slots byte by byte
        rng = random.Random(p)
        for n in range(1, 31):
            fbar = [rng.randrange(p) for _ in range(n)] + [1]
            w = _slot_bytes(2 * n * (p - 1) ** 2)
            table = _power_table(fbar, p, w)
            assert len(table) == 2 * n - 1
            for k, row in enumerate(table):
                rest = schoolbook_divmod([0] * k + [1], fbar, p)[1]
                assert row == _pack(rest + [0] * (n - len(rest)), w), (p, n, k)

    def test_frobenius_steps_and_rows(self):
        # x^p is the table's row for p <= 2n - 2, else (x^(2n-2))^q x^r with
        # q, r = divmod(p, 2n - 2).  Past the table's stride each Frobenius row
        # is x^p times the row before, the sum of its residues times the rows
        # x^(p+j), j < n: table rows wholly (p < n), table rows then companion
        # steps (n <= p <= 2n - 2), or companion steps from x^p (p > 2n - 2).
        # Primes just below, at and just above n - 1, 2n - 2 and 4n - 4, and
        # two of 9- and 16-byte slots; three steps against x^(p^d) (the second
        # at n <= 30 and the third at n <= 20, as schoolbook powers are slow),
        # and every row, slots reduced below p, against schoolbook products
        def around(m):
            below = max((q for q in range(2, m) if trial_division_is_prime(q)), default=None)
            above = next(q for q in range(m + 1, 2 * m + 2) if trial_division_is_prime(q))
            return ({below, above} | ({m} if trial_division_is_prime(m) else set())) - {None}

        rng = random.Random(103)
        seen = set()
        for n in range(2, 41):
            for p in sorted(around(n - 1) | around(2 * n - 2) | around(4 * n - 4) | {4294967311, 2**61 - 1}):
                fbar = [rng.randrange(p) for _ in range(n)] + [1]
                _, frobenius = modp._quotient_ring(fbar, p)
                xp = h = frobenius([0, 1])
                assert xp == schoolbook_x_power(p, fbar, p), (n, p)
                for d in range(2, 4 if n <= 20 else 3 if n <= 30 else 2):
                    h = frobenius(h)
                    assert h == schoolbook_x_power(p**d, fbar, p), (n, p, d)
                assert frobenius([1]) == [1]  # builds the rows, also where x^p = x
                w = _slot_bytes(2 * n * (p - 1) ** 2)
                rows, want = _frobenius_rows(frobenius), [1]
                assert len(rows) == n
                for i, row in enumerate(rows):
                    assert row == _pack(want + [0] * (n - len(want)), w), (n, p, i)
                    want = schoolbook_mulmod(want, xp, fbar, p)
                # x^p: 0, a table row, else q up to 3; rows past the stride
                seen.add(0 if p <= 2 * n - 2 else min(p // (2 * n - 2), 3))
                if (2 * n - 2) // p + 1 < n:
                    seen.add("table" if p < n else "extended" if p <= 2 * n - 2 else "from x^p")
        assert seen == {0, 1, 2, 3, "table", "extended", "from x^p"}

    @pytest.mark.parametrize("w", [1, 2, 4, 8, 9, 16])
    def test_pack_round_trip_full_slots(self, w):
        top = (1 << 8 * w) - 1
        a = [top, 0, 1, top, top // 3]
        assert _pack(a, w) == sum(c << 8 * w * i for i, c in enumerate(a))
        assert _unpack(_pack(a, w), w, len(a), 1 << 8 * w) == a

    def test_product_matches_schoolbook(self):
        rng = random.Random(83)
        widths = set()
        for p in (3, 61, 1009, 33554473, 4294967357, 2**61 - 1):
            for _ in range(20):
                a = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
                b = [rng.randrange(p) for _ in range(rng.randint(1, 6))]
                expected = [0] * (len(a) + len(b) - 1)
                for i, x in enumerate(a):
                    for j, y in enumerate(b):
                        expected[i + j] = (expected[i + j] + x * y) % p
                assert _product(a, b, p) == expected, (p, a, b)
                widths.add(_slot_bytes(min(len(a), len(b)) * (p - 1) ** 2))
        assert {1, 2, 4, 8} <= widths and max(widths) > 8

    @pytest.mark.parametrize("p, width", [
        (3, 1), (11, 2), (1009, 4), (33554473, 8),
        (4294967311, 9), (4294967357, 9), (2**61 - 1, 16),
    ])
    def test_factor_degrees(self, p, width):
        # (x^2 + 1)(x - 1)...(x - k); k^2 + 1 < p keeps the factors coprime, and
        # x^2 + 1 splits mod an odd p iff p = 1 mod 4
        assert p == 2**61 - 1 or trial_division_is_prime(p)
        k = 2 if p == 3 else 6
        f = parse_poly("1,0,1")
        for a in range(1, k + 1):
            f = f * Poly.from_coeffs([-a, 1])
        assert _slot_bytes(2 * f.degree * (p - 1) ** 2) == width
        quadratic = (1, 1) if p % 4 == 1 else (2,)
        assert factor_degrees(f, p).degrees == tuple(sorted((1,) * k + quadratic))
        assert factor_degrees(parse_poly("1,0,1"), p).degrees == quadratic


EUCLID_PRIMES = (2, 3, 5, 7, 61, 65537, 2**31 - 1, 2**61 - 1)


class TestPackedEuclid:
    # _gcd and _divmod run on Kronecker-packed operands; the schoolbook
    # versions in oracles.py work coefficient row by coefficient row

    @staticmethod
    def _random(rng, p, degree, monic=False):
        a = [rng.randrange(p) for _ in range(degree)]
        return a + [1 if monic else rng.randrange(1, p)]

    def test_gcd_matches_schoolbook(self):
        rng = random.Random(89)
        for i in range(320):
            p = EUCLID_PRIMES[i % len(EUCLID_PRIMES)]
            a = self._random(rng, p, rng.randint(0, 80))
            b = self._random(rng, p, rng.randint(0, 80))  # often of higher degree than a
            if i % 2:  # a planted common factor: the remainders vanish mid-sequence
                g = self._random(rng, p, rng.randint(1, 12))
                a, b = _product(a, g, p), _product(b, g, p)
            expected = schoolbook_gcd(a, b, p)
            assert _gcd(a, b, p) == expected == _gcd(b, a, p), (p, a, b)
            if i % 2:
                assert len(expected) > 1

    def test_divmod_matches_schoolbook(self):
        rng = random.Random(97)
        for i in range(320):
            p = EUCLID_PRIMES[i % len(EUCLID_PRIMES)]
            a = self._random(rng, p, rng.randint(0, 80))
            b = self._random(rng, p, rng.randint(0, 80), monic=i % 2 == 0)
            q, r = _divmod(a, b, p)
            if b[-1] == 1:
                assert (q, r) == schoolbook_divmod(a, b, p), (p, a, b)
            # a = q b + r with deg r < deg b, for any nonzero leading coefficient
            assert len(r) < len(b) and (not r or r[-1])
            qb = _product(q, b, p) if q else []
            total = [(x + y) % p for x, y in zip(qb + [0] * len(a), r + [0] * len(a))]
            assert _trim(total) == a, (p, a, b)

    def test_exact_division_and_full_slots(self):
        # every coefficient p - 1 makes each row update as large as it gets
        for p in EUCLID_PRIMES:
            for da, db in ((80, 40), (80, 1), (40, 39), (7, 7)):
                a, b = [p - 1] * (da + 1), [p - 1] * (db + 1)
                assert _divmod(a, b, p)[1] == schoolbook_divmod(a, _monic(b, p), p)[1]
                assert _gcd(a, b, p) == schoolbook_gcd(a, b, p)
                ab = _product(a, b, p)
                assert _divmod(ab, b, p) == (a, [])
                assert _gcd(ab, a, p) == _monic(a, p)

    def test_degenerate_operands(self):
        for p in EUCLID_PRIMES:
            assert _gcd([], [], p) == []
            assert _gcd([], [3 % p, 1], p) == _gcd([3 % p, 1], [], p) == [3 % p, 1]
            assert _gcd([0, 1, 1], [p - 1], p) == [1]
            assert _divmod([1, 1], [0, 0, 1], p) == ([], [1, 1])
            assert _divmod([0, 0, 1], [p - 1], p) == ([0, 0, p - 1], [])

    def test_slots_never_carry(self):
        # a slot stays below 4np^2 < 2^k, and a slot times floor(2^k / p),
        # the Barrett product, still fits the slot
        for p in EUCLID_PRIMES + (3, 101, 1009, 4294967357):
            for n in (1, 2, 9, 60, 81, 1000):
                w, k = _euclid_slots(n, p)
                assert 4 * n * p * p < 1 << k
                assert ((1 << k) - 1) * ((1 << k) // p) < 1 << 8 * w
                assert w in (1, 2, 4, 8) or w > 8


class TestDegreeSetFilter:
    def test_irreducible_quadratic(self):
        assert degree_set_filter(parse_poly("1,0,1"), [3]) == {0, 2}

    def test_split_quadratic(self):
        assert degree_set_filter(parse_poly("-1,0,1"), [5]) == {0, 1, 2}

    def test_cubic_intersection(self):
        f = parse_poly("-2,0,0,1")
        assert degree_set_filter(f, [5]) == {0, 1, 2, 3}  # one root mod 5
        assert degree_set_filter(f, [7, 5]) == {0, 3}

    def test_subset_sum_closure(self):
        # the filter's bitmask closure against the set-grown oracle, and the
        # oracle against enumeration
        assert subset_sum_closure((1, 2)) == {0, 1, 2, 3}
        assert subset_sum_closure((3,)) == {0, 3}
        for n in range(1, 11):
            for degrees in degree_multisets(n):
                want = subset_sum_closure(degrees)
                assert want == subset_sums_by_enumeration(degrees)
                assert _bits(_closure_mask(degrees)) == want


def _bits(mask):
    return {i for i in range(mask.bit_length()) if mask >> i & 1}


def _filter_by_factoring(f, ps):
    """The intersection of the subset-sum closures of every prime's full
    factor-degree multiset, no prime settled early; {0, n} lies in every
    closure, so the primes after it change nothing."""
    out = set(range(f.degree + 1))
    for p in ps:
        out &= subset_sum_closure(factor_degrees(f, p).degrees)
        if out == {0, f.degree}:
            break
    return out


def _frobenius_rows(frobenius):
    # the packed rows the map has built so far, read from its closure
    cells = dict(zip(frobenius.__code__.co_freevars, frobenius.__closure__))
    return cells["rows"].cell_contents


class TestDegreeOneSettle:
    # after the gcd run that ends at d, the factors found (degrees <= d,
    # subset sums F) and a cofactor of degree R, whose factors all have degree
    # > d, leave subset sums F + {0, R} plus others only in F + (d, R - d); a
    # prime is settled when the surviving set meets none of those others

    @staticmethod
    def _rule_by_enumeration(out, found, d, rest):
        # the rule from its definition, one sum at a time
        sure = found | {a + rest for a in found}
        others = {a + b for a in found for b in range(d + 1, rest - d)} - sure
        return not _bits(out) & others

    def test_rule_matches_enumerated_subset_sums(self):
        # every degree multiset up to n = 12 split at every d into the found
        # factors (<= d) and the cofactor (> d): a settled prime's surviving
        # sums are the same for every split of the cofactor into degrees > d
        rng = random.Random(97)
        settled = unsettled = later = 0
        for n in range(1, 13):
            for degrees in degree_multisets(n):
                for d in range(1, n + 1):
                    found = [e for e in degrees if e <= d]
                    rest = n - sum(found)
                    found_sums = subset_sums_by_enumeration(found)
                    sure = found_sums | {a + rest for a in found_sums}
                    splits = [c for c in degree_multisets(rest) if min(c, default=d + 1) > d]
                    assert tuple(e for e in degrees if e > d) in splits
                    closures = [subset_sums_by_enumeration(found + list(c)) for c in splits]
                    assert all(sure <= sums for sums in closures), (degrees, d)
                    for i in range(10):
                        # half of them sparse, as a set a few primes have cut
                        out = rng.getrandbits(n + 1) & (rng.getrandbits(n + 1) if i % 2 else -1) | 1 | 1 << n
                        rule = modp._settles(out, _closure_mask(found), d, rest)
                        assert rule == self._rule_by_enumeration(out, found_sums, d, rest), (degrees, d, bin(out))
                        if rule:
                            settled += 1
                            later += d > 1 and rest >= 2 * (d + 1)
                            for sums in closures:
                                assert _bits(out) & sums == _bits(out) & sure, (degrees, d, bin(out))
                        else:
                            unsettled += 1
                            assert rest >= 2 * (d + 1)
        # later: settled where the DDF would have gone on
        assert settled > 10000 and unsettled > 2000 and later > 400

    def test_rule_at_degree_one_is_the_root_count_rule(self):
        # with r roots found at d = 1 the rule is the old degree-1 settle,
        # (r, n - r) & [2, n - 2] against the surviving set, and more roots
        # never unsettle a prime
        rng = random.Random(89)
        for n in range(1, 40):
            for r in range(n + 1):
                for _ in range(20):
                    out = rng.getrandbits(n + 1) | 1 | 1 << n
                    rule = modp._settles(out, (1 << r + 1) - 1, 1, n - r)
                    assert rule == degree_one_settles(out, n, r), (n, r, bin(out))
                    assert not rule or r == n or modp._settles(out, (1 << r + 2) - 1, 1, n - r - 1)
            # the check that takes degree 1 alone: would _SETTLE_ROOTS roots settle?
            roots = _closure_mask([1] * modp._SETTLE_ROOTS)
            assert modp._settles(out, roots, 1, n - modp._SETTLE_ROOTS) == degree_one_settles(
                out, n, modp._SETTLE_ROOTS)

    def test_filter_equals_full_factoring_on_the_glp_sweep_grid(self):
        for n in range(9, 61):
            for alpha in ("0", "1", "5/3", "-1/2"):
                params = GlpParams.from_alpha(n, Fraction(alpha))
                lam, mu = params.lam, params.mu
                bad = mu * math.prod(range(2 * mu + lam, n * mu + lam + 1, mu))
                ps = list(islice((p for p in primes() if p > n and bad % p), _EVIDENCE_PRIME_BUDGET))
                f = glp_normalized(params)
                assert degree_set_filter(f, ps) == _filter_by_factoring(f, ps), (n, alpha)

    def test_filter_equals_full_factoring_on_generic_polynomials(self):
        # half irreducible-looking, half a product of two or three factors,
        # so that many degree sets survive a prime
        rng = random.Random(101)
        kinds = {True: 0, False: 0}
        cases = 0
        while cases < 200:
            f = Poly.from_coeffs([1])
            for _ in range(1 if cases % 2 else rng.randint(2, 3)):
                d = rng.randint(1, 8)
                f = f * Poly.from_coeffs([rng.randint(-9, 9) or 1 for _ in range(d)] + [rng.randint(1, 3)])
            try:
                ps = list(islice(good_primes(f), 10))
            except DomainError:  # a repeated factor: not square-free
                continue
            cases += 1
            want = _filter_by_factoring(f, ps)
            assert degree_set_filter(f, ps) == want, f.coeffs
            kinds[want == {0, f.degree}] += 1
        assert min(kinds.values()) > 20

    @pytest.fixture
    def ring_spy(self, monkeypatch):
        # each prime's Frobenius map, as _quotient_ring built it, and the
        # number of Frobenius steps _ddf_degrees has taken with it so far
        made, steps = [], []
        original = modp._quotient_ring

        def spy(fbar, p):
            mulmod, frobenius = original(fbar, p)
            made.append((p, frobenius))
            steps.append(0)
            i = len(steps) - 1

            def counted(h):
                steps[i] += 1
                return frobenius(h)

            return mulmod, counted

        monkeypatch.setattr(modp, "_quotient_ring", spy)
        return made, steps

    @pytest.fixture
    def rings(self, ring_spy):
        return ring_spy[0]

    @pytest.fixture
    def steps(self, ring_spy):
        return ring_spy[1]

    def test_settled_prime_builds_no_frobenius_row(self, rings):
        # x^4 - 1 = (x - 1)(x + 1)(x^2 + 1): 4 roots mod 5, 2 mod 7 with one
        # quadratic left (R = 2 < 4); x^4 + 1 has no root mod 3, and {0..4}
        # meets U = {2}, so its DDF goes on
        assert degree_set_filter(parse_poly("-1,0,0,0,1"), [5, 7]) == {0, 1, 2, 3, 4}
        assert degree_set_filter(parse_poly("1,0,0,0,1"), [3]) == {0, 2, 4}
        assert [(p, len(_frobenius_rows(frob))) for p, frob in rings] == [(5, 0), (7, 0), (3, 4)]

    def test_settled_glp_primes_build_no_frobenius_row(self, rings, steps, monkeypatch):
        # the filter primes of the glp_sweep grid at n = 9..40: the rule is
        # asked once before any step (may degree 1 be a run of its own?) and
        # then after each run, d steps in; a prime settled at degree 1 builds
        # no Frobenius row, one settled later takes no step past its run, and
        # every other prime is factored in full, rows and all
        calls = []
        original = modp._ddf_degrees

        def recorded(fbar, p, settle=None):
            assert settle is not None
            log = []

            def logged(found, d, rest):
                done = settle(found, d, rest)
                log.append((steps[-1], d, done))
                return done

            degrees, blocks = original(fbar, p, logged)
            calls.append((fbar, p, log, degrees))
            return degrees, blocks

        monkeypatch.setattr(modp, "_ddf_degrees", recorded)
        for n in range(9, 41):
            for alpha in ("0", "1", "5/3", "-1/2"):
                classify(GlpParams.from_alpha(n, Fraction(alpha)))
        monkeypatch.undo()
        assert len(calls) == len(rings) == len(steps)
        kinds = set()
        for (fbar, p, log, degrees), (_, frob), taken in zip(calls, rings, steps):
            (before, _, alone), *after = log
            assert before == 0 and all(s == d for s, d, _ in after), (p, log)
            assert not any(done for _, _, done in after[:-1]), (p, log)
            full = sorted(modp._ddf_degrees(fbar, p)[0])
            if after and after[-1][2]:
                d = after[-1][1]
                assert taken == d, (p, log)
                found = [e for e in full if e <= d]
                assert sorted(degrees) == sorted(found + [len(fbar) - 1 - sum(found)]), p
            else:
                d = None
                assert sorted(degrees) == full, p
            assert (len(_frobenius_rows(frob)) == 0) == (taken <= 1), p
            kinds.add((alone, d if d is None else min(d, 2)))
        # degree 1 alone or not; settled at degree 1, after a later run, never
        assert {(True, 1), (True, 2), (False, 2), (True, None), (False, None)} <= kinds

    def test_prime_settled_after_a_later_run_takes_no_further_step(self, rings, steps):
        # mod 2, (x^2 + x + 1)(x^7 + x + 1)(x^9 + x^4 + 1), n = 18, runs of 4.
        # Against {0, 4, 14, 18} three roots would not settle (4 lies in (3,
        # 15)), so degree 1 is no run of its own.  The run d = 1..4 finds the
        # quadratic, and {0, 2} + (4, 12) = [5, 13] misses the set, so the
        # prime stops there with the cofactor of degree 16 as one block;
        # factored in full it takes 8 steps and the same surviving sums
        factors = [[1, 1, 1], [1, 1] + [0] * 5 + [1], [1] + [0] * 3 + [1] + [0] * 4 + [1]]
        assert all(is_irreducible_mod_p(f, 2) for f in factors)
        fbar = _product(_product(factors[0], factors[1], 2), factors[2], 2)
        out = 1 | 1 << 4 | 1 << 14 | 1 << 18
        degrees, blocks = modp._ddf_degrees(fbar, 2, partial(modp._settles, out))
        assert degrees == [2, 16] and blocks == [factors[0], _product(factors[1], factors[2], 2)]
        assert steps == [4] and len(_frobenius_rows(rings[0][1])) == 18
        assert modp._ddf_degrees(fbar, 2) == ([2, 7, 9], factors)
        assert steps == [4, 8]
        assert _closure_mask([2, 16]) & out == _closure_mask([2, 7, 9]) & out == 1 | 1 << 18

    def test_prime_that_only_many_roots_settle_is_factored_in_full(self, rings):
        # (x - 1)...(x - 6)(x^2 + 1) has 6 roots mod 11 (which would settle
        # it), but while every degree survives only 4 or more roots settle
        # the prime: its DDF runs as factor_degrees does, rows and all
        f = Poly.from_coeffs([1, 0, 1])
        for k in range(1, 7):
            f = f * Poly.from_coeffs([-k, 1])
        assert modp._settles((1 << 9) - 1, (1 << 7) - 1, 1, 2)
        assert not modp._settles((1 << 9) - 1, _closure_mask([1] * modp._SETTLE_ROOTS), 1, 8 - modp._SETTLE_ROOTS)
        assert degree_set_filter(f, [11]) == set(range(9))
        assert [(p, len(_frobenius_rows(frob))) for p, frob in rings] == [(11, 8)]

    def test_bad_prime_still_raises(self):
        # x^2 - 1 (disc 4): settled at 3, and 2 is bad
        with pytest.raises(BadPrimeError, match="^2 is not a good prime for this polynomial$"):
            degree_set_filter(parse_poly("-1,0,1"), [3, 2])
        f = parse_poly("1,0,1")
        with pytest.raises(BadPrimeError, match="^9 is not prime$"):
            degree_set_filter(f, [9])
        with pytest.raises(DomainError, match="^requires degree >= 1$"):
            degree_set_filter(parse_poly("5"), [3])

    def test_corrupted_degree_one_block_raises(self, monkeypatch):
        # a root block that does not divide f mod p, and a cofactor that does
        # not multiply back, are caught at a settled prime as at any other
        f = parse_poly("-1,0,0,0,1")
        original_gcd, original_quotient = modp._gcd, modp._exact_quotient
        with monkeypatch.context() as mp:
            mp.setattr(modp, "_gcd", lambda a, b, p: (lambda g: g if len(g) == 1 else [g[0] + 1] + g[1:])(
                original_gcd(a, b, p)))
            with pytest.raises(DomainError, match="^division was not exact$"):
                degree_set_filter(f, [5])
        with monkeypatch.context() as mp:
            mp.setattr(modp, "_exact_quotient", lambda a, b, p: (lambda q: [q[0] + 1] + q[1:])(
                original_quotient(a, b, p)))
            with pytest.raises(DomainError, match="^factor blocks do not multiply back to f mod p$"):
                degree_set_filter(f, [7])
        assert degree_set_filter(f, [5, 7]) == {0, 1, 2, 3, 4}


class TestParity:
    def test_examples(self):
        assert parity_evidence([CycleType((2,), 3)]) == CONTAINS_ODD
        assert parity_evidence([CycleType((1, 1, 1), 5)]) == ALL_EVEN
        assert parity_evidence([CycleType((3,), 5), CycleType((1, 1, 1), 7)]) == ALL_EVEN

    def test_cycle_type_parity(self):
        assert not CycleType((2,), 3).is_even
        assert CycleType((3,), 7).is_even
        assert CycleType((1, 2, 4), 11).is_even  # (7 - 3) even


def test_import_loads_no_numpy():
    # nor what only some calls need: `dataclasses` (which brings `inspect`)
    # and `multiprocessing`, which only `glp-scan --jobs N > 1` loads
    code = (
        "import sys, glpgalois, glpgalois.cli; "
        "print(sorted({'numpy', 'dataclasses', 'multiprocessing', 'inspect'} & set(sys.modules)))"
    )
    src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout == "[]\n", out.stderr
