"""Rebuild golden_glp.json: (group, disc_is_square, irreducibility basis) for
every GLP case any workload runs, as the library classifies it with
assume_irreducible=False.

    python3 glpbench/make_golden.py

The committed table was made from the library as it stood when the benchmark
was defined; rebuild it only on purpose, since the checker compares every run
against it.
"""

import json
import sys
from fractions import Fraction

import corpus
import workloads as W


def main() -> None:
    sys.path.insert(0, str(W.SRC))
    lib = W.library()
    cases = [(n, a) for n in corpus.SWEEP_N for a in corpus.GLP_ALPHAS]
    cases += [(n, a) for n in corpus.LARGE_N for a in corpus.LARGE_ALPHAS]
    table = {}
    for n, a in cases:
        out = W.run_glp(lib, (n, a))
        assert Fraction(out["alpha"]) == Fraction(a)
        table[f"{n}/{a}"] = [out["group"], out["disc_is_square"], out["irreducibility_basis"]]
    lines = [f"{json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items())]
    (W.BENCH_DIR / "golden_glp.json").write_text("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    main()
