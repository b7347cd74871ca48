"""Seeded inputs for every workload.

Each workload is an endless stream of *rounds*.  A round has the same
composition on every seed (the same degree bands, kinds of polynomial and
subcommands); the seed only picks the concrete inputs and their order, so a
run that stops after whole rounds measures the same mix of work whatever the
seed.  Warm-up inputs come from separate streams and never occur in a timed
round: the library caches discriminants by polynomial, and a repeated input
would time a cache hit that no CLI user gets.
"""

from __future__ import annotations

import random
from typing import Iterator

from check import is_prime, sqfree_mod

GLP_ALPHAS = ("0", "1", "5/3", "-1/2")
SWEEP_N = range(9, 61)
LARGE_N = (80, 90, 100, 110, 120)
LARGE_ALPHAS = ("0", "5/3")
WARMUP_ALPHA = "2"  # in no timed corpus

GENERIC_BANDS = ((8, 11), (12, 15), (16, 19), (20, 24))
GENERIC_KINDS = ("plain", "plain", "crafted", "crafted")  # per band, plus one semiprime per round
COEFF_BOUND = 10**6
_SQFREE_PRIME = 1_000_003
FROBENIUS_SAMPLES = 8
CERTIFY_SHIFTS = (0, 1, -1, 2)

Round = list


def glp_sweep_rounds(seed: int) -> Iterator[Round]:
    """Every round is all 208 (n, alpha) cases in a fresh order.  Per-case
    cost is lumpy in n (a single-slope proof is cheap, mod-p filtering is
    not), so no smaller round costs the same as every other."""
    rng = random.Random(f"glp_sweep/{seed}")
    while True:
        rnd = [(n, a) for n in SWEEP_N for a in GLP_ALPHAS]
        rng.shuffle(rnd)
        yield rnd


def glp_large_rounds(seed: int) -> Iterator[Round]:
    """Every round is all ten large cases in a fresh order."""
    rng = random.Random(f"glp_large/{seed}")
    while True:
        rnd = [(n, a) for n in LARGE_N for a in LARGE_ALPHAS]
        rng.shuffle(rnd)
        yield rnd


def glp_warmup(rep: int) -> list[tuple[int, str]]:
    return [(12 + rep, WARMUP_ALPHA), (24 + rep, WARMUP_ALPHA), (36 + rep, WARMUP_ALPHA)]


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice((-1, 1)) * rng.randint(1, bound)


def _random_prime(rng: random.Random, lo: int, hi: int) -> int:
    while True:
        m = rng.randint(lo, hi)
        if is_prime(m):
            return m


def _plain(rng: random.Random, n: int) -> list[int]:
    a = [rng.randint(-COEFF_BOUND, COEFF_BOUND) for _ in range(n + 1)]
    a[0] = _nonzero(rng, COEFF_BOUND)
    a[n] = _nonzero(rng, COEFF_BOUND)
    return a


def _crafted(rng: random.Random, n: int) -> list[int]:
    """p | a_j for j < q, p || a_0, p does not divide a_q, with q a Jordan
    window prime, so slope -1/q certifies at shift 0; every coefficient but
    a_n is also divisible by a second prime r, r || a_0 (Eisenstein at r), so
    irreducibility has a single-slope proof."""
    q = rng.choice([m for m in range(n // 2 + 1, n - 2) if 2 * m > n and is_prime(m)])
    p, r = rng.sample((2, 3, 5, 7, 11), 2)

    def unit(bound: int, *avoid: int) -> int:
        while True:
            u = _nonzero(rng, bound)
            if all(u % m for m in avoid):
                return u

    a = [p * r * unit(COEFF_BOUND // (p * r), p, r)]
    a += [p * r * rng.randint(-COEFF_BOUND // (p * r), COEFF_BOUND // (p * r)) for _ in range(1, q)]
    a += [r * unit(COEFF_BOUND // r, p)]
    a += [r * rng.randint(-COEFF_BOUND // r, COEFF_BOUND // r) for _ in range(q + 1, n)]
    a += [unit(COEFF_BOUND, r)]
    return a


def _semiprime(rng: random.Random, n: int) -> list[int]:
    """A plain polynomial whose a_0 is a product of two 10-digit primes."""
    a = _plain(rng, n)
    a[0] = rng.choice((-1, 1)) * _random_prime(rng, 10**9, 10**10) * _random_prime(rng, 10**9, 10**10)
    return a


_MAKERS = {"plain": _plain, "crafted": _crafted, "semiprime": _semiprime}


def make_poly(rng: random.Random, kind: str, n: int) -> list[int]:
    """A square-free integer polynomial (ascending coefficients)."""
    while True:
        a = _MAKERS[kind](rng, n)
        if sqfree_mod(a, _SQFREE_PRIME):
            return a


def generic_rounds(seed: int, stream: str = "timed") -> Iterator[Round]:
    """Seventeen polynomials per round: two plain and two crafted in each
    degree band, and one semiprime of any degree."""
    rng = random.Random(f"generic_certify/{stream}/{seed}")
    while True:
        rnd = [(kind, make_poly(rng, kind, rng.randint(*band)))
               for band in GENERIC_BANDS for kind in GENERIC_KINDS]
        rnd.append(("semiprime", make_poly(rng, "semiprime", rng.randint(8, 24))))
        rng.shuffle(rnd)
        yield rnd


def _csv(coeffs: list[int]) -> str:
    return ",".join(str(c) for c in coeffs)


def cli_rounds(seed: int) -> Iterator[Round]:
    """One task per subcommand in every round; a task is (name, argv, data)."""
    rng = random.Random(f"cli_batch/{seed}")
    while True:
        polys = [make_poly(rng, kind, rng.randint(8, 12))
                 for kind in ("plain", "crafted", "plain", "plain")]
        prime = rng.choice((2, 3, 5, 7))
        n_cls, a_cls = rng.randint(9, 20), rng.choice(GLP_ALPHAS)
        n_disc, a_disc = rng.randint(5, 40), rng.choice(GLP_ALPHAS)
        shifts = ",".join(str(s) for s in CERTIFY_SHIFTS)
        rnd = [
            ("np", ["np", f"--poly={_csv(polys[0])}", "--prime", str(prime)],
             {"coeffs": polys[0], "prime": prime}),
            ("index", ["index", f"--poly={_csv(polys[1])}"], {"coeffs": polys[1]}),
            ("certify", ["certify", f"--poly={_csv(polys[2])}", "--shifts", shifts],
             {"coeffs": polys[2]}),
            ("frobenius", ["frobenius", f"--poly={_csv(polys[3])}",
                           "--frobenius-samples", str(FROBENIUS_SAMPLES)], {"coeffs": polys[3]}),
            ("glp-classify", ["glp-classify", "--n", str(n_cls), f"--alpha={a_cls}"],
             {"n": n_cls, "alpha": a_cls}),
            ("glp-disc", ["glp-disc", "--n", str(n_disc), f"--alpha={a_disc}"],
             {"n": n_disc, "alpha": a_disc}),
        ]
        for _, argv, _ in rnd:  # values may start with "-", hence --flag=value
            argv.append("--json")
        rng.shuffle(rnd)
        yield rnd


def cli_warmup(rep: int) -> list:
    return [("glp-disc", ["glp-disc", "--n", str(6 + rep), f"--alpha={WARMUP_ALPHA}", "--json"],
             {"n": 6 + rep, "alpha": WARMUP_ALPHA})]
