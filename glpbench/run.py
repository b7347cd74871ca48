"""glpgalois benchmark.

    python3 glpbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from any directory; the library is imported from the checkout's `src/`.
Workloads (see BENCHMARK.json for why each exists): glp_sweep,
generic_certify, cli_batch, and glp_large, which BENCHMARK.json leaves out
(see README.md); `--workload all` runs each in turn.  Each is a closed loop
in one process, one case at a time, over whole rounds of its seeded corpus
until S seconds of cases have run.  The timing metrics are scaled to a
nominal host speed measured along the run (`calibrate.py`).  Every output
is then checked by `check.py`, which shares no code with the library.

--trace 0 prints the end-to-end metrics.  --trace 1 runs the same rounds
twice, first untraced, then with every public function of the library
wrapped by `tracer.py`, and prints the per-layer metrics; the spans go to
glpbench/out/.  The last stdout line is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gzip
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from itertools import chain
from pathlib import Path

import tracer
import workloads as W
from calibrate import HostClock

OUT = W.BENCH_DIR / "out"
GOLDEN = W.BENCH_DIR / "golden_glp.json"
SETUP_REPS = 7
IMPORT_SAMPLES = 5
IMPORT_PROBE = "import time; t = time.perf_counter(); import glpgalois; print(time.perf_counter() - t)"

# per-layer functions; each gets .calls, .self_s and .errors
TRACED = (
    "primes.ord_p", "primes.is_prime", "primes.candidate_primes", "primes.prime_factors",
    "modp.is_good_prime", "modp.good_primes", "modp.factor_degrees", "modp.degree_set_filter",
    "newton.newton_polygon", "newton.newton_index", "newton.single_slope_irreducibility_evidence",
    "polys.discriminant", "polys.resultant", "polys.Poly.shift", "polys.primitive_scale",
    "certify.certify_large_galois", "certify.lemma_key_check",
    "glp.classify", "glp.find_criterion_prime", "glp.schur_discriminant", "glp.glp_normalized",
    "cli.main",
)


def die(message: str) -> None:
    print(f"error: {message}", file=sys.stderr)
    sys.exit(2)


def preflight():
    if not (W.SRC / "glpgalois" / "__init__.py").is_file():
        die(f"no glpgalois package under {W.SRC}")
    if sys.flags.optimize:
        die("run without -O: the library's certificate asserts must stay active")
    sys.path.insert(0, str(W.SRC))
    import glpgalois

    if Path(glpgalois.__file__).resolve().parent != (W.SRC / "glpgalois").resolve():
        die(f"imported glpgalois from {glpgalois.__file__}, not from {W.SRC}")
    # one CPU for this process and every child it starts, so that the
    # reference kernel measures the CPU the cases ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    return W.library()


def fresh_import_s() -> float:
    proc = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=W.ROOT, env=W.child_env(),
                          capture_output=True, text=True, timeout=60, check=True)
    return float(proc.stdout)


class Runner:
    """Runs one workload's cases, untraced or traced, and keeps every output."""

    def __init__(self, name: str, lib, seed: int):
        self.name = name
        self.spec = W.WORKLOADS[name]
        self.lib = lib
        self.seed = seed
        self.rec = None
        self.traced_children = 0
        self.clock = HostClock()

    def run_case(self, case):
        if self.spec.kind == "glp":
            return W.run_glp(self.lib, case)
        if self.spec.kind == "generic":
            return W.run_generic(self.lib, case)
        if self.rec is None:
            return W.run_cli_process(case)
        path = OUT / f"trace-{self.name}" / f"{self.traced_children}.spans.gz"
        self.traced_children += 1
        stdout = W.run_cli_process(case, traced_out=path)
        with gzip.open(path, "rb") as fh:
            self.rec.merge(json.loads(fh.readline())["summary"])
        return stdout

    def setup(self) -> float:
        """Fresh-process import, golden table, first round and warm-up, each
        rep on its own warm-up inputs and after a host-speed reference;
        returns the median rep in seconds."""
        reps = []
        for rep in range(SETUP_REPS):
            self.clock.calibrate()
            import_s = fresh_import_s()
            t0 = time.perf_counter()
            self.golden = json.loads(GOLDEN.read_text())
            rounds = self.spec.rounds(self.seed)
            first = next(rounds)
            for case in self.spec.warmup(rep):
                self.run_case(case)
            reps.append(import_s + time.perf_counter() - t0)
        self.clock.calibrate()
        self.rounds = chain([first], rounds)
        return statistics.median(reps)

    def timed(self, rounds: list) -> tuple[list, float]:
        """Run the given rounds, taking host-speed references between cases;
        returns [(case, output, error, seconds)] and the seconds spent in
        cases."""
        results = []
        for rnd in rounds:
            for case in rnd:
                self.clock.tick()
                t0 = time.perf_counter()
                try:
                    # a traced CLI child records its own root span
                    if self.rec is None or self.spec.kind == "cli":
                        out, err = self.run_case(case), None
                    else:
                        self.rec.case = len(results)
                        out, err = self.rec.span(tracer.ROOT, self.run_case, case), None
                except Exception:  # a failed case is counted, never fatal
                    out, err = None, traceback.format_exc(limit=3)
                results.append((case, out, err, time.perf_counter() - t0))
        return results, sum(r[3] for r in results)

    def for_seconds(self, budget: float) -> tuple[list, list, list]:
        """Whole rounds until the budget is spent: another round starts only
        if it is expected to end less than half a round past the budget.
        Returns the results, each round's (cases per second, host speed
        during the round), and the rounds."""
        results, rates, used, elapsed = [], [], [], 0.0
        while not used or elapsed + elapsed / len(used) / 2 < budget:
            rnd = next(self.rounds)
            before = len(self.clock.refs) - 1
            res, dt = self.timed([rnd])
            self.clock.calibrate()
            results += res
            rates.append((len(rnd) / dt, self.clock.speed(before)))
            elapsed += dt
            used.append(rnd)
        return results, rates, used


class Checker:
    """Checks every output, memoised on (input, output); keeps the failures
    and each case's (certified, proved irreducible) pair."""

    def __init__(self, runner: Runner, seed: int):
        self.r = runner
        self.rng = random.Random(f"check/{seed}")
        self.memo = {}
        self.failures = []
        self.claims = []

    def __call__(self, results: list) -> None:
        spec = self.r.spec
        worthy = [i for i, (_, out, err, _) in enumerate(results)
                  if err is None and spec.deep_worthy(out)]
        deep = set(self.rng.sample(worthy, min(spec.deep_sample, len(worthy))))
        for i, (case, out, err, _) in enumerate(results):
            if err is None:
                shown = out.decode() if isinstance(out, bytes) else out
                key = (json.dumps([case, shown], sort_keys=True), i in deep)
                if key not in self.memo:
                    self.memo[key] = self.problems(case, out, i in deep)
                problems = self.memo[key]
            else:
                problems = [err]
            if problems:
                self.failures.append((case, problems))
            self.claims.append(spec.claims(case, out) if not problems else (False, False))

    def problems(self, case, out, deep: bool) -> list[str]:
        try:
            return self.r.spec.check(self.r.lib, case, out, self.r.golden, deep)
        except Exception:
            return ["checker could not parse the output:\n" + traceback.format_exc(limit=3)]


def end_to_end(results, rates, setup_s, rss_mb, claims, speed) -> tuple[dict, list[str]]:
    """The timing metrics are scaled to nominal host speed (calibrate.py):
    each round's rate by the speed during that round, the rest by the run's
    `speed`.  A report line gives them unscaled."""
    lat_ms = sorted(r[3] * 1000 for r in results)
    n = len(results)
    metrics = {
        "cases_per_s": (statistics.median(rate / s for rate, s in rates), "1/s"),
        "case_p50_ms": (statistics.median(lat_ms) * speed, "ms"),
        "setup_s": (setup_s * speed, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "certified_frac": (sum(c for c, _ in claims) / n, "ratio"),
        "proved_irreducible_frac": (sum(p for _, p in claims) / n, "ratio"),
    }
    notes = [f"unscaled: cases_per_s = {statistics.median(r for r, _ in rates):.6g} 1/s, case_p50_ms = "
             f"{statistics.median(lat_ms):.6g} ms, setup_s = {setup_s:.6g} s; "
             f"host speed {speed:.4f} of nominal"]
    if n >= 100:
        p90 = statistics.quantiles(lat_ms, n=10)[8]
        beyond = sum(x > p90 for x in lat_ms)
        notes.append(f"case_p90_ms = {p90 * speed:.3f} ms ({beyond} of {n} cases beyond it)")
    else:
        notes.append(f"case_p90_ms omitted: {n} cases, fewer than 100")
    return metrics, notes


def per_layer(summary: dict, cases: int, untraced_s: float, traced_s: float) -> dict:
    calls, self_ns, c = summary["calls"], summary["self_ns"], summary["counters"]
    m = {}
    for name in TRACED:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
        m[f"{name}.self_s"] = (self_ns.get(name, 0) / 1e9, "s")
        m[f"{name}.errors"] = (summary["errors"].get(name, 0), "count")
    for layer in tracer.LAYERS:
        total = sum(v for k, v in self_ns.items() if k.startswith(layer + "."))
        m[f"{layer}.self_s"] = (total / 1e9, "s")
    under = "primes.ord_p.from_modp.is_good_prime"
    m[f"{under}.self_s"] = (c.get(f"{under}.self_ns", 0) / 1e9, "s")
    tested, filters = c.get("modp.good_primes.tested", 0), calls.get("modp.degree_set_filter", 0)
    m["modp.good_prime_yield"] = (c.get("modp.good_primes.good", 0) / tested if tested else 0.0, "ratio")
    proved = c.get("modp.degree_set_filter.proved", 0)
    m["modp.filter_proof_rate"] = (proved / filters if filters else 0.0, "ratio")
    m["newton.polygons_per_case"] = (calls.get("newton.newton_polygon", 0) / cases, "count")
    m["cli.import_ms"] = (1000 * statistics.median(fresh_import_s() for _ in range(IMPORT_SAMPLES)), "ms")
    m["trace.cases"] = (cases, "count")
    m["trace.case_s"] = (traced_s, "s")
    m["trace.overhead_frac"] = (traced_s / untraced_s - 1, "ratio")
    return m


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*W.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    lib = preflight()
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)

    runner = Runner(args.workload, lib, args.seed)
    setup_s = runner.setup()
    if args.trace:
        untraced, _, used = runner.for_seconds(args.seconds / 2)
        untraced_s = sum(r[3] for r in untraced)
        if not runner.spec.replay_rounds:  # fresh inputs of the same composition
            used = [next(runner.rounds) for _ in used]
        trace_dir = OUT / f"trace-{args.workload}"
        trace_dir.mkdir(exist_ok=True)
        for old in trace_dir.glob("*.spans.gz"):
            old.unlink()
        runner.rec = tracer.Recorder()
        uninstall = tracer.install(runner.rec) if runner.spec.kind != "cli" else (lambda: None)
        try:
            traced, _ = runner.timed(used)
        finally:
            uninstall()
        traced_s = sum(r[3] for r in traced)
        summary = runner.rec.summary()
        runner.rec.write(OUT / f"trace-{args.workload}.spans.gz", summary)
        results = untraced + traced
    else:
        results, rates, _ = runner.for_seconds(args.seconds)
        speed = runner.clock.speed()
    children = args.workload == "cli_batch"
    rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF).ru_maxrss

    checker = Checker(runner, args.seed)
    checker(results)
    for case, problems in checker.failures[:5]:
        print(f"FAILED {case!r:.200}: {problems[0][-600:]}", file=sys.stderr)

    if args.trace:
        metrics = per_layer(summary, len(traced), untraced_s, traced_s)
        notes = top_self_time(summary)
    else:
        metrics, notes = end_to_end(results, rates, setup_s, rss_kb / 1024, checker.claims, speed)
    failed = len(checker.failures)
    notes.append(f"failed_frac = {failed / len(results):.4f} ratio ({failed} of {len(results)})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    for note in notes:
        print(f"{args.workload} {note}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(results),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Run each workload in its own process, one after another; print their
    metric lines, then one JSON result whose metric names start with the
    workload's name."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in W.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True, check=True)
        *lines, last = proc.stdout.splitlines()
        print("\n".join(lines), flush=True)
        result = json.loads(last)
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def top_self_time(summary: dict) -> list[str]:
    self_ns = summary["self_ns"]
    total = sum(self_ns.values())
    ranked = sorted(self_ns.items(), key=lambda kv: -kv[1])[:8]
    return [f"self time share {name} = {v / total:.3f} ({v / 1e9:.3f} s, "
            f"{summary['calls'].get(name, 0)} calls)" for name, v in ranked]


if __name__ == "__main__":
    sys.exit(main())
