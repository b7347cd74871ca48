import json
import os
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction

import pytest

import glpgalois
from glpgalois.cli import main
from glpgalois.glp import GlpParams, glp_newton_index, schur_discriminant


PSI_12 = 318665857834031151167461


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize("argv", [
    ["glp-classify", "--n", "9", "--alpha", "-1/2"],
    ["index", "--poly", "-2,0,1"],
    ["certify", "--poly", "1,2,3,4,5,6,7", "--shifts", "-1/2,1"],
])
def test_negative_value_as_a_separate_argument(capsys, argv):
    # argparse reads "-1/2" as an option; the `--opt=value` form is the reference
    joined = [*argv[:-2], f"{argv[-2]}={argv[-1]}"]
    assert run(capsys, *joined)[0] == 0
    assert run(capsys, *argv) == run(capsys, *joined)


class TestNp:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "np", "--poly", "6,18,9,1", "--prime", "3")
        assert code == 0
        assert out.splitlines() == [
            "slope=-1/3 length=3 from=(0,1) to=(3,0)",
            "vertices: (0,1) (3,0)",
        ]

    def test_json_mirror(self, capsys):
        _, out, _ = run(capsys, "np", "--poly", "6,18,9,1", "--prime", "3", "--json")
        data = json.loads(out)
        assert data["segments"] == [
            {"slope": "-1/3", "length": 3, "from": [0, 1], "to": [3, 0]}
        ]
        assert data["vertices"] == [[0, 1], [3, 0]]

    def test_domain_error_exit_1(self, capsys):
        code, _, err = run(capsys, "np", "--poly", "0,1", "--prime", "3")
        assert code == 1
        assert err.startswith("error:")

    def test_usage_error_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["np", "--poly", "1,1", "--prime", "3", "--bogus"])
        assert exc.value.code == 2


class TestIndex:
    def test_golden(self, capsys):
        code, out, _ = run(capsys, "index", "--poly", "6,18,9,1", "--json")
        assert code == 0
        assert json.loads(out) == {
            "index": 6,
            "witnesses": {"2": ["-1/2"], "3": ["-1/3"]},
        }

    def test_human(self, capsys):
        _, out, _ = run(capsys, "index", "--poly", "6,18,9,1")
        assert out.splitlines() == ["index=6", "p=2 slopes=-1/2", "p=3 slopes=-1/3"]

    def test_strong_pseudoprime_constant_term(self, capsys):
        # psi_12 = 399165290221 * 798330580441 passes Miller-Rabin to the bases 2..37
        code, out, _ = run(capsys, "index", f"--poly={PSI_12},0,1")
        assert (code, out.splitlines()) == (
            0, ["index=2", "p=399165290221 slopes=-1/2", "p=798330580441 slopes=-1/2"]
        )


class TestCertify:
    def test_golden(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--poly", "6,18,9,1", "--assume-irreducible", "--json"
        )
        assert code == 0
        assert json.loads(out) == {
            "verdict": "index_divides_order_only",
            "n": 3,
            "shift": "0",
            "valuation_prime": None,
            "slope": None,
            "window_prime": None,
            "newton_index": 6,
            "irreducibility_basis": "assumed",
        }

    def test_degree_one_exit_1(self, capsys):
        code, out, err = run(capsys, "certify", "--poly=1,1")
        assert (code, out) == (1, "")
        assert err == "error: certification requires degree >= 2\n"

    def test_shifts_flag(self, capsys):
        code, out, _ = run(
            capsys, "certify", "--poly=-1,0,1", "--shifts", "0,1/2", "--json"
        )
        assert code == 0
        assert json.loads(out)["verdict"] in ("inconclusive", "index_divides_order_only")


class TestFrobenius:
    def test_single_prime(self, capsys):
        code, out, _ = run(capsys, "frobenius", "--poly", "1,0,1", "--prime", "5")
        assert code == 0
        assert out.splitlines() == [
            "p=5 type=[1,1] parity=even",
            "verdict=all-even-so-far",
        ]

    def test_strong_pseudoprime_is_not_a_prime(self, capsys):
        code, out, err = run(capsys, "frobenius", "--poly=1,0,1", "--prime", str(PSI_12))
        assert (code, out, err) == (1, "", f"error: {PSI_12} is not prime\n")

    def test_samples_json(self, capsys):
        _, out, _ = run(
            capsys, "frobenius", "--poly", "1,0,1", "--frobenius-samples", "3", "--json"
        )
        data = json.loads(out)
        assert [s["p"] for s in data["samples"]] == [3, 5, 7]
        assert data["verdict"] == "contains-odd-permutation"

    def test_sample_count_below_one_exit_1(self, capsys):
        for count in ("-1", "0", "-7"):
            code, out, err = run(capsys, "frobenius", "--poly", "1,0,1",
                                 "--frobenius-samples", count)
            assert (code, out, err) == (1, "", "error: need at least one sample\n"), count

    @pytest.mark.parametrize("count", ["3", "5", "1000000000", "-3"])
    def test_prime_and_sample_count_are_exclusive(self, capsys, count):
        # a single prime is one sample; a count beside it is a usage error,
        # in either order, also for the default count 5
        for options in (["--prime", "5", "--frobenius-samples", count],
                        [f"--frobenius-samples={count}", "--prime", "5"]):
            with pytest.raises(SystemExit) as exc:
                main(["frobenius", "--poly", "1,0,1", *options])
            out, err = capsys.readouterr()
            assert exc.value.code == 2 and out == "", options
            assert err.startswith("usage: ") and "not allowed with argument" in err, err

    def test_sample_count_defaults_to_five(self, capsys):
        default = run(capsys, "frobenius", "--poly", "1,0,1", "--json")
        assert default == run(capsys, "frobenius", "--poly", "1,0,1", "--frobenius-samples", "5",
                              "--json")
        assert default[0] == 0 and len(json.loads(default[1])["samples"]) == 5


class TestGlpClassify:
    def test_golden(self, capsys):
        code, out, _ = run(
            capsys,
            "glp-classify", "--n", "9", "--alpha", "0", "--assume-irreducible", "--json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["group"] == "S_n"
        assert data["criterion_prime"] == 5
        assert data["certificate"]["slope"] == "-1/5"

    def test_degree_one_answers(self, capsys):
        code, out, err = run(capsys, "glp-classify", "--n", "1", "--alpha", "0", "--json")
        assert (code, err) == (0, "")
        data = json.loads(out)
        assert data["group"] == data["certificate"]["verdict"] == "inconclusive"
        assert data["certificate"]["newton_index"] == 1

    def test_bad_alpha_exit_1(self, capsys):
        code, _, err = run(capsys, "glp-classify", "--n", "5", "--alpha", "-2")
        assert code == 1
        assert "error:" in err

    def test_index_beyond_the_int_to_str_limit(self, capsys):
        # the index at n = 12,000 has 5,202 digits, above the 4,300 that
        # str(int) allows by default from Python 3.11; it is printed in full
        want = glp_newton_index(GlpParams.from_alpha(12000, 1)).index
        code, out, err = run(capsys, "glp-classify", "--n", "12000", "--alpha", "1", "--json")
        assert (code, err) == (0, "")
        # int(Decimal) converts without the limit
        assert json.loads(out, parse_int=Decimal)["certificate"]["newton_index"] == want
        code, out, err = run(capsys, "glp-classify", "--n", "12000", "--alpha", "1")
        assert (code, err) == (0, "")
        (text,) = [line for line in out.splitlines() if line.startswith("certificate.newton_index=")]
        digits = text.partition("=")[2]
        assert len(digits) == 5202 and int(Decimal(digits)) == want


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit")
class TestDigitLimit:
    """Integers of the answer print at any size; those of the input keep the
    interpreter's int-to-str limit, and `main` leaves it as it found it."""

    HUGE = "7" * 5000  # over the 4,300-digit default

    @pytest.fixture(autouse=True)
    def default_limit(self):
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        yield
        sys.set_int_max_str_digits(before)

    @pytest.mark.parametrize("limit", [640, 4300, 0])
    def test_main_restores_the_limit(self, capsys, limit):
        sys.set_int_max_str_digits(limit)
        for argv in (["glp-classify", "--n", "12000", "--alpha", "1"],
                     ["glp-disc", "--n", "100", "--alpha", "0", "--json"],
                     ["glp-disc", "--n", "0", "--alpha", "0"]):
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == limit, argv

    @pytest.mark.parametrize("argv", [
        ["index", "--poly", f"{HUGE},1,1"],
        ["certify", "--poly", f"1,{HUGE},1", "--assume-irreducible"],
        ["certify", "--poly", "6,18,9,1", "--shifts", f"0,{HUGE}"],
        ["glp-classify", "--n", "9", "--alpha", HUGE],
        ["glp-disc", "--n", "9", "--alpha", f"1/{HUGE}"],
        ["glp-scan", "--n-from", "9", "--n-to", "10", "--alpha", HUGE, "--jobs", "1"],
    ])
    def test_input_over_the_limit_exit_1(self, capsys, argv):
        start = time.perf_counter()
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "") and err.startswith("error: cannot parse "), err[:200]
        assert time.perf_counter() - start < 1.0


class TestGlpDisc:
    def test_golden(self, capsys):
        code, out, _ = run(
            capsys, "glp-disc", "--n", "3", "--alpha", "1", "--verify-resultant"
        )
        assert code == 0
        assert out.strip() == "5184 square=true verified=true"

    def test_json(self, capsys):
        _, out, _ = run(capsys, "glp-disc", "--n", "3", "--alpha", "0", "--json")
        assert json.loads(out) == {
            "n": 3,
            "alpha": "0",
            "discriminant": "1944",
            "square": False,
        }

    def test_nonpositive_degree_exit_1(self, capsys):
        for n in ("-3", "0", str(-10**8)):  # the last also before Delta's size bound
            code, out, err = run(capsys, "glp-disc", "--n", n, "--alpha", "1/2")
            assert (code, out, err) == (1, "", "error: degree must be positive\n"), n

    def test_discriminant_beyond_the_int_to_str_limit(self, capsys):
        # Delta has 17,872 digits at n = 100, alpha = 0, above the 4,300 that
        # str(int) allows by default from Python 3.11; it is printed in full
        for alpha in ("0", "1000001/7"):
            code, out, err = run(capsys, "glp-disc", "--n", "100", "--alpha", alpha, "--json")
            assert (code, err) == (0, ""), alpha
            text = json.loads(out)["discriminant"]
            num, _, den = text.partition("/")
            delta = schur_discriminant(100, Fraction(alpha))
            assert len(num) > 4300 and bool(den) == (delta.denominator > 1), alpha
            # int(Decimal) converts without the limit
            assert int(Decimal(num)) == delta.numerator, alpha
            assert int(Decimal(den or "1")) == delta.denominator, alpha
            code, out, _ = run(capsys, "glp-disc", "--n", "100", "--alpha", alpha)
            assert (code, out) == (0, f"{text} square=false\n"), alpha


class TestGlpScan:
    def test_streams_in_order(self, capsys):
        code, out, _ = run(
            capsys,
            "glp-scan", "--n-from", "9", "--n-to", "12", "--alpha", "0",
            "--assume-irreducible", "--jobs", "1",
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert [d["n"] for d in lines] == [9, 10, 11, 12]
        assert all(d["group"] == "S_n" for d in lines)

    def test_starts_at_degree_one(self, capsys):
        code, out, err = run(capsys, "glp-scan", "--n-from", "1", "--n-to", "12", "--alpha", "0", "--jobs", "1")
        assert (code, err) == (0, "")
        lines = [json.loads(line) for line in out.splitlines()]
        assert [d["n"] for d in lines] == list(range(1, 13))
        assert lines[0]["group"] == "inconclusive"

    def test_worker_pool_matches_one_process(self):
        # --jobs 2 runs the cases in a multiprocessing pool; a fresh process,
        # as a user would start it, so that the pool's import is exercised
        src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        outs = [
            subprocess.run(
                [sys.executable, "-m", "glpgalois.cli", "glp-scan", "--n-from", "9",
                 "--n-to", "14", "--alpha", "0", "--jobs", jobs],
                env=env, capture_output=True, timeout=120,
            )
            for jobs in ("1", "2")
        ]
        assert [o.returncode for o in outs] == [0, 0], outs[1].stderr
        assert outs[0].stdout.count(b"\n") == 6
        assert outs[1].stdout == outs[0].stdout
        assert outs[1].stderr == outs[0].stderr == b""

    def test_index_beyond_the_int_to_str_limit(self):
        # each worker formats its own line: indices of 5,202 digits print,
        # in one process and in a pool
        src = os.path.dirname(os.path.dirname(os.path.abspath(glpgalois.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        want = [glp_newton_index(GlpParams.from_alpha(n, 1)).index for n in (11999, 12000)]
        outs = [
            subprocess.run(
                [sys.executable, "-m", "glpgalois.cli", "glp-scan", "--n-from", "11999",
                 "--n-to", "12000", "--alpha", "1", "--jobs", jobs],
                env=env, capture_output=True, timeout=120,
            )
            for jobs in ("1", "2")
        ]
        assert [(o.returncode, o.stderr) for o in outs] == [(0, b""), (0, b"")]
        assert outs[1].stdout == outs[0].stdout
        lines = [json.loads(line, parse_int=Decimal) for line in outs[0].stdout.splitlines()]
        assert [d["n"] for d in lines] == [11999, 12000]
        assert [d["certificate"]["newton_index"] for d in lines] == want

    def test_deterministic(self, capsys):
        args = ["glp-scan", "--n-from", "9", "--n-to", "10", "--alpha", "1",
                "--assume-irreducible", "--jobs", "1"]
        _, first, _ = run(capsys, *args)
        _, second, _ = run(capsys, *args)
        assert first == second

    def test_jobs_below_one_exit_1(self, capsys):
        # neither one process nor all CPUs: a count below 1 is refused
        for jobs in ("-2", "0"):
            code, out, err = run(capsys, "glp-scan", "--n-from", "9", "--n-to", "10",
                                 "--alpha", "0", "--jobs", jobs)
            assert (code, out, err) == (1, "", "error: --jobs must be at least 1\n"), jobs

    def test_pool_size_is_bounded_by_cpus_and_cases(self, capsys, monkeypatch):
        # a fake pool records its size and maps in process: no worker is
        # started, whatever --jobs asks for
        import multiprocessing

        sizes = []

        class FakePool:
            def __init__(self, processes):
                sizes.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def imap(self, func, tasks):
                return map(func, tasks)

        monkeypatch.setattr(multiprocessing, "Pool", FakePool)
        monkeypatch.setattr(os, "cpu_count", lambda: 8)  # the host's, not the usable ones
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        _, want, _ = run(capsys, "glp-scan", "--n-from", "9", "--n-to", "14", "--alpha", "0",
                         "--jobs", "1")
        for n_to, jobs, size in [("10", ["--jobs", "1000000"], 2), ("14", ["--jobs", "1000000"], 4),
                                 ("14", ["--jobs", "3"], 3), ("14", [], 4)]:
            code, out, err = run(capsys, "glp-scan", "--n-from", "9", "--n-to", n_to,
                                 "--alpha", "0", *jobs)
            assert (code, out, err) == (0, "".join(want.splitlines(True)[: int(n_to) - 8]), "")
            assert sizes.pop() == size and not sizes, (n_to, jobs)
        # pinned to one of the host's 8 CPUs: one process, no pool
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {5})
        assert run(capsys, "glp-scan", "--n-from", "9", "--n-to", "14", "--alpha", "0") == (0, want, "")
        # no affinity on this platform: the host's count, and unknown is one CPU
        monkeypatch.delattr(os, "sched_getaffinity")
        code, out, err = run(capsys, "glp-scan", "--n-from", "9", "--n-to", "14", "--alpha", "0")
        assert (code, out, err, sizes.pop()) == (0, want, "", 6)
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert run(capsys, "glp-scan", "--n-from", "9", "--n-to", "14", "--alpha", "0",
                   "--jobs", "8") == (0, want, "")
        assert sizes == []
