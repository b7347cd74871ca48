import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import islice

import pytest

import glpgalois
from glpgalois import cli, polys
from glpgalois.errors import BadPrimeError, DomainError
from glpgalois.glp import GlpParams, classify
from glpgalois.modp import (
    ALL_EVEN,
    CONTAINS_ODD,
    CycleType,
    _divmod,
    _euclid_slots,
    _gcd,
    _monic,
    _pack,
    _product,
    _slot_bytes,
    _trim,
    _unpack,
    degree_set_filter,
    factor_degrees,
    good_primes,
    is_good_prime,
    parity_evidence,
    subset_sum_closure,
)
from glpgalois.polys import parse_poly, poly_from_coeffs

from oracles import (
    is_good_prime_by_discriminant,
    is_irreducible_mod_p,
    low_degree_factor_degrees,
    schoolbook_divmod,
    schoolbook_gcd,
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
        f = poly_from_coeffs([1])
        for i in range(31):
            f = f * poly_from_coeffs([-i, 1])
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
            f = poly_from_coeffs(coeffs)
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
            f = poly_from_coeffs([rng.randint(-50, 50) for _ in range(rng.randint(3, 10))])
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
            f = poly_from_coeffs(coeffs)
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
    prod = poly_from_coeffs([1])
    for c in factors:
        prod = prod * poly_from_coeffs(c)
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
            f = poly_from_coeffs([1])
            for a in roots:
                f = f * poly_from_coeffs([-a, 1])
            assert factor_degrees(f, p).degrees == (1,) * len(roots)

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
            f = f * poly_from_coeffs([-a, 1])
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
        assert subset_sum_closure((1, 2)) == {0, 1, 2, 3}
        assert subset_sum_closure((3,)) == {0, 3}


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
