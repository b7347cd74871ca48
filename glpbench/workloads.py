"""The four workloads: how each runs a case and how its output is checked.

In-process workloads call the library through its modules, looked up at call
time so that the tracer's wrappers are the ones called.  `cli_batch` runs a
fresh interpreter per case, one at a time.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import islice
from pathlib import Path
from types import SimpleNamespace

import check
import corpus

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"


def library():
    """The package's modules by name (never via package attributes: there
    `glpgalois.glp` is the function, not the module)."""
    return SimpleNamespace(**{m: importlib.import_module(f"glpgalois.{m}")
                              for m in ("polys", "newton", "modp", "certify", "glp", "cli")})


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env.pop("PYTHONOPTIMIZE", None)
    return env


# ---------------------------------------------------------------- GLP

def run_glp(lib, case):
    n, alpha = case
    params = lib.glp.GlpParams.from_alpha(n, Fraction(alpha))
    return lib.glp.classification_to_dict(lib.glp.classify(params, assume_irreducible=False))


def check_glp(lib, case, out, golden, deep: bool) -> list[str]:
    n, alpha = case
    return check.check_glp(n, Fraction(alpha), out, golden.get(f"{n}/{alpha}"), replay_filter=deep)


def glp_deep_worthy(out) -> bool:
    return out["irreducibility_basis"] == "degree_set_filter" and out["group"] != "inconclusive"


def glp_claims(case, out) -> tuple[bool, bool]:
    return out["group"] in ("A_n", "S_n"), out["irreducibility_basis"] in check.PROOF_BASES


# ---------------------------------------------------------------- generic

def run_generic(lib, case):
    """What `glpgalois index`, `frobenius --frobenius-samples 8` and `certify
    --shifts 0,1,-1,2` compute, with the single-slope irreducibility proof
    (when there is one) as the certificate's basis."""
    _, coeffs = case
    f = lib.polys.Poly.from_coeffs(coeffs)
    report = lib.newton.newton_index(f)
    primes = list(islice(lib.modp.good_primes(f), corpus.FROBENIUS_SAMPLES))
    samples = [lib.modp.factor_degrees(f, p) for p in primes]
    parity = lib.modp.parity_evidence(samples)
    basis = lib.certify.SINGLE_SLOPE if lib.newton.single_slope_irreducibility_evidence(f) else None
    cert = lib.certify.certify_large_galois(f, shifts=corpus.CERTIFY_SHIFTS, irreducibility=basis)
    return {
        "index": report.index,
        "witnesses": {str(p): [str(s) for s in sl] for p, sl in report.witnesses.items()},
        "samples": [[ct.prime, list(ct.degrees)] for ct in samples],
        "parity": parity,
        "certificate": lib.certify.certificate_to_dict(cert),
    }


def check_generic(lib, case, out, golden, deep: bool) -> list[str]:
    kind, coeffs = case
    coeffs = [Fraction(c) for c in coeffs]
    problems = check.check_index(coeffs, out["index"], out["witnesses"])
    problems += check.check_frobenius(coeffs, [tuple(s) for s in out["samples"]], out["parity"],
                                      corpus.FROBENIUS_SAMPLES, cross_check=deep)
    problems += check.check_certificate(coeffs, out["certificate"], bases=("single_slope",))
    if kind == "crafted" and out["certificate"]["verdict"] != check.CONTAINS_AN:
        problems.append("crafted polynomial (Eisenstein, window slope at shift 0) not certified")
    return problems


def generic_claims(case, out) -> tuple[bool, bool]:
    cert = out["certificate"]
    return cert["verdict"] == check.CONTAINS_AN, cert["irreducibility_basis"] in check.PROOF_BASES


# ---------------------------------------------------------------- CLI

def run_cli_process(task, traced_out: Path | None = None) -> bytes:
    """One fresh `python -m glpgalois.cli` (or its traced twin); its stdout."""
    _, argv, _ = task
    if traced_out is None:
        cmd = [sys.executable, "-m", "glpgalois.cli", *argv]
    else:
        cmd = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(traced_out), *argv]
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"exit {proc.returncode}: {proc.stderr.decode(errors='replace')[-500:]}")
    return proc.stdout


def cli_in_process(lib, task) -> bytes:
    _, argv, _ = task
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = lib.cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"in-process exit {code}")
    return buf.getvalue().encode()


def check_cli(lib, task, stdout: bytes, golden, deep: bool) -> list[str]:
    name, _, data = task
    expected = cli_in_process(lib, task)
    if stdout != expected:
        return [f"{name}: stdout differs from the in-process result"]
    out = json.loads(stdout)
    if name in ("np", "index", "certify", "frobenius"):
        coeffs = [Fraction(c) for c in data["coeffs"]]
    if name == "np":
        return check.check_polygon(coeffs, data["prime"], out)
    if name == "index":
        return check.check_index(coeffs, out["index"], out["witnesses"])
    if name == "certify":
        return check.check_certificate(coeffs, out, bases=())
    if name == "frobenius":
        samples = [(s["p"], s["type"]) for s in out["samples"]]
        return check.check_frobenius(coeffs, samples, out["verdict"],
                                     corpus.FROBENIUS_SAMPLES, cross_check=deep)
    if name == "glp-classify":
        return check.check_glp(data["n"], Fraction(data["alpha"]), out,
                               golden.get(f"{data['n']}/{data['alpha']}"), replay_filter=deep)
    return check.check_disc(data["n"], Fraction(data["alpha"]), out)


def cli_claims(task, stdout: bytes) -> tuple[bool, bool]:
    if task[0] != "glp-classify":
        return False, False
    out = json.loads(stdout)
    return glp_claims(None, out)


# deep: the sympy re-derivations (degree-set irreducibility proofs, cycle
# types) cost up to seconds per case, so they run on a seeded sample of
# `deep_sample` outputs for which `deep_worthy` holds; every other check runs
# on every output.  CLI inputs are small, so all of them get the deep checks.
WORKLOADS = {
    "glp_sweep": SimpleNamespace(
        kind="glp", rounds=corpus.glp_sweep_rounds, warmup=corpus.glp_warmup,
        replay_rounds=True, check=check_glp, claims=glp_claims,
        deep_worthy=glp_deep_worthy, deep_sample=2),
    "glp_large": SimpleNamespace(
        kind="glp", rounds=corpus.glp_large_rounds, warmup=corpus.glp_warmup,
        replay_rounds=True, check=check_glp, claims=glp_claims,
        deep_worthy=glp_deep_worthy, deep_sample=1),
    "generic_certify": SimpleNamespace(
        kind="generic", rounds=corpus.generic_rounds,
        warmup=lambda rep: next(corpus.generic_rounds(rep, "warmup"))[:5],
        replay_rounds=False, check=check_generic, claims=generic_claims,
        deep_worthy=lambda out: True, deep_sample=20),
    "cli_batch": SimpleNamespace(
        kind="cli", rounds=corpus.cli_rounds, warmup=corpus.cli_warmup,
        replay_rounds=True, check=check_cli, claims=cli_claims,
        deep_worthy=lambda out: True, deep_sample=math.inf),
}
