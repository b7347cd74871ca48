import json
from itertools import islice

import corpus

STREAMS = (corpus.glp_sweep_rounds, corpus.glp_large_rounds, corpus.generic_rounds,
           corpus.cli_rounds)


def dump(stream, seed, rounds=3) -> bytes:
    return json.dumps(list(islice(stream(seed), rounds))).encode()


def test_equal_seeds_give_identical_bytes():
    for stream in STREAMS:
        assert dump(stream, 7) == dump(stream, 7)


def test_different_seeds_differ():
    for stream in STREAMS:
        assert dump(stream, 7) != dump(stream, 8)


def test_round_composition_does_not_depend_on_seed():
    for seed in (1, 2):
        assert sorted(next(corpus.glp_sweep_rounds(seed))) == sorted(
            (n, a) for n in corpus.SWEEP_N for a in corpus.GLP_ALPHAS)
        kinds = sorted(k for k, _ in next(corpus.generic_rounds(seed)))
        assert kinds == ["crafted"] * 8 + ["plain"] * 8 + ["semiprime"]
        assert sorted(t[0] for t in next(corpus.cli_rounds(seed))) == sorted(
            ["np", "index", "certify", "frobenius", "glp-classify", "glp-disc"])


def test_warmup_inputs_are_disjoint_from_timed_ones():
    timed = set(next(corpus.glp_sweep_rounds(1)))
    timed |= set(next(corpus.glp_large_rounds(1)))
    assert not timed & {c for rep in range(3) for c in corpus.glp_warmup(rep)}
    polys = {tuple(p) for r in islice(corpus.generic_rounds(1), 5) for _, p in r}
    warm = {tuple(p) for rep in range(3) for _, p in next(corpus.generic_rounds(rep, "warmup"))}
    assert not polys & warm
