"""Hostile input through every subcommand, in process.

Each call must end with exit 0 (an answer), 1 (an `error:` line) or 2 (a
usage error) within a time budget, and print no traceback.  The inputs are
fixed edge cases plus a seeded sample of coefficient lists built from huge,
zero, negative and malformed parts.  Pollard rho runs with a small step
budget, so that a 40-digit semiprime ends in `error:` at once.
"""

import contextlib
import io
import random
import signal
import time

from glpgalois import cli, primes

BUDGET_S = 10.0
SEMIPRIME = 10000000000000000051 * 30000000000000000041  # 40 digits
PSI_12 = 318665857834031151167461
HUGE = 10**60 + 7

POLYS = [
    f"{HUGE},1,1", f"1,0,0,{10**80}", f"-{HUGE},0,{HUGE}",  # huge
    "0", "0,0,0", "", "0,1", "0,0,5,1",  # zero
    "-1,-2,-3", "-5", "-2,0,1",  # negative
    "a,b", "1,,2", "1/0,1", "1.5.2", "1;2", "--1", "1e400,1",  # malformed
    "7", "3,1", "1,0,1", "2,-3,1",  # degrees 0, 1 and 2
    "1,2,1", "1,0,-2,0,1", "4,4,1", "0,0,1,1",  # not square-free
    f"{SEMIPRIME},3,0,5,1",  # a 40-digit semiprime constant term
    "1/2,3/4,5", "6,18,9,1",
]

# alpha at the domain edges: integers in [-n, -1] and below -n for n = 9,
# huge lam or mu, and malformed values
ALPHAS = ["0", "-1", "-9", "-10", "-1000", "-1/2", "-7/3", "5/3", str(HUGE),
          f"-{HUGE}", f"1/{HUGE}", f"{SEMIPRIME}/7", "x", "1/0", ""]

FIXED = [
    ["frobenius", "--poly", "1,2,1"],
    ["glp-scan", "--n-from", "9", "--n-to", "10", "--alpha", "0", "--jobs", "0"],
    ["glp-scan", "--n-from", "9", "--n-to", "10", "--alpha", "0", "--jobs", "-2"],
    ["glp-scan", "--n-from", "10", "--n-to", "9", "--alpha", "0", "--jobs", "1"],
    ["glp-scan", "--n-from", "0", "--n-to", "3", "--alpha", "0", "--jobs", "1"],
    ["glp-scan", "--n-from", "2", "--n-to", "12", "--alpha", "-1/2", "--jobs", "1"],
    ["glp-disc", "--n", "0", "--alpha", "0"],
    ["glp-disc", "--n", "-3", "--alpha", "0"],
    ["glp-disc", "--n", "12", "--alpha", str(HUGE), "--verify-resultant"],
    ["frobenius", "--poly", "1,0,1", "--frobenius-samples", "0"],
    ["frobenius", "--poly", "1,0,1", "--frobenius-samples", "-1"],
    ["frobenius", "--poly", "1,0,1", "--prime", str(PSI_12)],
    ["np", "--poly", "1,2", "--prime", "-3"],
    ["np", "--poly", "1,2", "--prime", "x"],
    ["glp-classify", "--n", "0", "--alpha", "0"],
    ["glp-classify", "--n", "-5", "--alpha", "0"],
    ["glp-classify", "--n", "x", "--alpha", "0"],
    ["certify", "--poly", "6,18,9,1", "--shifts", "a"],
    ["certify", "--poly", "6,18,9,1", "--shifts", "1/0"],
    ["certify", "--poly", "6,18,9,1", "--shifts", f"0,-1/2,{HUGE}"],
    ["index"],
    [],
    ["no-such-subcommand"],
]


def cases():
    out = list(FIXED)
    for poly in POLYS:
        out += [
            ["np", "--poly", poly, "--prime", "3"],
            ["index", "--poly", poly, "--json"],
            ["certify", "--poly", poly, "--shifts", "0,1,-1/2"],
            ["frobenius", "--poly", poly, "--frobenius-samples", "3"],
        ]
    for n in (1, 2, 9):
        for alpha in ALPHAS:
            out.append(["glp-classify", "--n", str(n), "--alpha", alpha])
            out.append(["glp-disc", "--n", str(n), "--alpha", alpha, "--json"])
    rng = random.Random(83)
    parts = ["0", "1", "-1", "2", str(HUGE), f"-{HUGE}", "1/3", "-5/7", "", "x", "1/0"]
    for _ in range(40):
        poly = ",".join(rng.choice(parts) for _ in range(rng.randint(1, 7)))
        cmd = rng.choice([["index"], ["certify", "--shifts", "0,1"], ["np", "--prime", "2"],
                          ["frobenius", "--frobenius-samples", "2"]])
        out.append([cmd[0], "--poly", poly, *cmd[1:]])
    return out


class _Timeout(Exception):
    pass


@contextlib.contextmanager
def time_budget(seconds):
    """Raise _Timeout in a call that runs past its budget (where SIGALRM
    exists); the elapsed time is checked afterwards in any case."""
    if not hasattr(signal, "setitimer"):
        yield
        return

    def expire(signum, frame):
        raise _Timeout

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with time_budget(BUDGET_S), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    return code, err.getvalue(), time.perf_counter() - start


def test_every_subcommand_fails_fast_and_cleanly(monkeypatch):
    monkeypatch.setattr(primes, "RHO_BUDGET", 2000)
    problems = []
    for argv in cases():
        try:
            code, err, elapsed = run(argv)
        except _Timeout:
            problems.append(f"{argv}: still running after {BUDGET_S} s")
            continue
        except Exception as exc:  # an escaped exception is the traceback a user would see
            problems.append(f"{argv}: raised {exc!r}")
            continue
        if code not in (0, 1, 2):
            problems.append(f"{argv}: exit {code!r}")
        if code == 1 and not err.startswith("error: "):
            problems.append(f"{argv}: exit 1 without an error line: {err!r}")
        if "Traceback" in err:
            problems.append(f"{argv}: traceback on stderr")
        if elapsed > BUDGET_S:
            problems.append(f"{argv}: took {elapsed:.1f} s")
    assert not problems, "\n".join(problems)

