import json
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

import glpgalois
from glpgalois.cli import main
from glpgalois.glp import schur_discriminant


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

    def test_bad_alpha_exit_1(self, capsys):
        code, _, err = run(capsys, "glp-classify", "--n", "5", "--alpha", "-2")
        assert code == 1
        assert "error:" in err


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
        for n in ("-3", "0"):
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
