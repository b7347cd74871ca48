"""Command-line front end.

Every subcommand has a human-readable mode and a `--json` mode carrying the
same information.  All numeric parsing is exact (integers and a/b rationals);
identical invocations produce byte-identical output.

Each subcommand imports, inside its function, only the modules it runs, so
that a start loads (and, without a bytecode cache, compiles) no others.

An answer's integers become text only in `_print` and `_scan_one`, with the
interpreter's int-to-str digit limit (4,300 digits from Python 3.11) lifted
there: an index or Delta of any size prints, a longer input number is refused.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import islice
from typing import Callable, Optional

from .errors import DomainError

# the most Frobenius samples one `frobenius` call takes; each factors f modulo
# one more good prime.  If the group is not inside A_n, half of it is odd, so
# k all-even samples have chance 2^-k, here 2^-1000.  1,000 samples of a
# degree-24 f take about 0.9 s on one core of a 2-vCPU Xeon VM, 125 times the
# 8 that glpbench's corpora ask for
FROBENIUS_SAMPLE_BUDGET = 1_000
# the most bits that `glp-disc` lets Delta have, by `_disc_bits`' estimate,
# checked before Delta is built: building, testing and printing it take time
# quadratic in its size.  The worst case found under it took 2.0 s (n = 164,
# alpha = 10^20/3; 1.3 s at n = 331, alpha = 0) on one core of a 2-vCPU
# Xeon VM
DISC_BITS_BUDGET = 1 << 20
# the same for `glp-disc --verify-resultant`.  Its Bareiss determinant of
# Sylvester's matrix grows like n^3 products of numbers of about Delta's
# size, so a bound on n alone would not do: alpha = 10^60 + 7 took 43 s at
# n = 30.  The worst case found under it took 0.8 s (n = 32, alpha = 5/3)
VERIFY_BITS_BUDGET = 1 << 13


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse rational {text!r}") from None


@contextmanager
def _any_digits():
    """Lift the interpreter's int-to-str digit limit, and restore it after."""
    if not hasattr(sys, "set_int_max_str_digits"):  # a Python without the limit
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def _print(args, payload: dict, lines: Callable[[], list[str]]) -> int:
    """Print a subcommand's result: its payload as one JSON line under
    --json, else the text lines that `lines` builds."""
    with _any_digits():
        print(_json_line(payload) if args.json else "\n".join(lines()))
    return 0


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, default=str)  # a Fraction (Delta) as its str


def _cmd_np(args) -> int:
    from .newton import newton_polygon, polygon_to_dict
    from .polys import parse_poly

    np_ = newton_polygon(parse_poly(args.poly), args.prime)
    return _print(args, polygon_to_dict(np_), lambda: [
        f"slope={s.slope} length={s.length} "
        f"from=({s.start[0]},{s.start[1]}) to=({s.end[0]},{s.end[1]})"
        for s in np_.segments
    ] + ["vertices: " + " ".join(f"({x},{y})" for x, y in np_.vertices)])


def _cmd_index(args) -> int:
    from .newton import newton_index
    from .polys import parse_poly

    report = newton_index(parse_poly(args.poly))
    witnesses = report.witnesses  # built on each read
    payload = {"index": report.index,
               "witnesses": {str(p): [str(s) for s in sl] for p, sl in witnesses.items()}}
    return _print(args, payload, lambda: [f"index={report.index}"] + [
        f"p={p} slopes=" + ",".join(str(s) for s in witnesses[p]) for p in sorted(witnesses)])


def _cmd_certify(args) -> int:
    from .certify import ASSUMED, certificate_to_dict, certify_large_galois
    from .polys import parse_poly

    f = parse_poly(args.poly)
    shifts = [_parse_fraction(s) for s in args.shifts.split(",")]
    basis = ASSUMED if args.assume_irreducible else None
    payload = certificate_to_dict(certify_large_galois(f, shifts=shifts, irreducibility=basis))
    keys = ("verdict", "n", "shift", "valuation_prime", "slope",
            "window_prime", "newton_index", "irreducibility_basis")
    return _print(args, payload, lambda: [f"{key}={payload[key]}" for key in keys])


def _cmd_frobenius(args) -> int:
    from .modp import factor_degrees, good_primes, parity_evidence
    from .polys import parse_poly

    f = parse_poly(args.poly)
    if args.prime is not None:
        samples = [factor_degrees(f, args.prime)]
    else:
        count = 5 if args.frobenius_samples is None else args.frobenius_samples
        if count < 1:
            raise DomainError("need at least one sample")
        if count > FROBENIUS_SAMPLE_BUDGET:
            raise DomainError(f"{count} samples are over the effort budget "
                              f"FROBENIUS_SAMPLE_BUDGET = {FROBENIUS_SAMPLE_BUDGET}")
        ps = list(islice(good_primes(f), count))
        samples = [factor_degrees(f, p) for p in ps]
    payload = {
        "samples": [
            {"p": ct.prime, "type": list(ct.degrees), "parity": "even" if ct.is_even else "odd"}
            for ct in samples
        ],
        "verdict": parity_evidence(samples),
    }
    return _print(args, payload, lambda: [
        f"p={s['p']} type=[{','.join(str(d) for d in s['type'])}] parity={s['parity']}"
        for s in payload["samples"]] + [f"verdict={payload['verdict']}"])


def _cmd_glp_classify(args) -> int:
    from .glp import GlpParams, classification_to_dict, classify

    params = GlpParams.from_alpha(args.n, _parse_fraction(args.alpha))
    payload = classification_to_dict(classify(params, assume_irreducible=args.assume_irreducible))
    keys = ("n", "alpha", "group", "disc_is_square", "criterion_prime", "ell",
            "irreducibility_basis")
    return _print(args, payload, lambda: [f"{key}={payload[key]}" for key in keys] + [
        f"certificate.{key}={value}" for key, value in payload["certificate"].items()])


def _disc_bits(n: int, alpha: Fraction) -> int:
    """An upper bound on the bits of the numerator and the denominator of
    Delta = prod_{j=2}^n j^j (j*mu + lam)^(j-1) / mu^(n(n-1)/2), alpha = lam/mu:
    its bases are at most n, n*mu + |lam| and mu, each raised to at most
    n(n+1)/2 in all."""
    lam, mu = alpha.numerator, alpha.denominator
    return n * (n + 1) // 2 * (n.bit_length() + (n * mu + abs(lam)).bit_length() + mu.bit_length())


def _cmd_glp_disc(args) -> int:
    from .glp import GlpParams, _check_effort, glp, is_rational_square, schur_discriminant
    from .polys import discriminant

    alpha = _parse_fraction(args.alpha)
    _check_effort(args.n)  # a degree past N_BUDGET is refused by that budget's name
    bits = _disc_bits(max(args.n, 1), alpha)  # and one below 1 by schur_discriminant
    name, budget = (("VERIFY_BITS_BUDGET", VERIFY_BITS_BUDGET) if args.verify_resultant
                    else ("DISC_BITS_BUDGET", DISC_BITS_BUDGET))
    if bits > budget:
        raise DomainError(f"Delta at n = {args.n} may have {bits} bits, over the "
                          f"effort budget {name} = {budget}")
    delta = schur_discriminant(args.n, alpha)
    payload = {"n": args.n, "alpha": str(alpha), "discriminant": delta,
               "square": is_rational_square(delta)}
    if args.verify_resultant:
        params = GlpParams.from_alpha(args.n, alpha)
        monic = glp(params) * ((-1) ** args.n * math.factorial(args.n))
        payload["verified"] = discriminant(monic) == delta
    return _print(args, payload, lambda: [" ".join([str(delta)] + [
        f"{key}={str(payload[key]).lower()}" for key in ("square", "verified") if key in payload])])


def _scan_one(task: tuple[int, str, bool]) -> str:
    from .glp import GlpParams, classification_to_dict, classify

    n, alpha, assume = task
    params = GlpParams.from_alpha(n, Fraction(alpha))
    payload = classification_to_dict(classify(params, assume_irreducible=assume))
    with _any_digits():
        return _json_line(payload)


def _cmd_glp_scan(args) -> int:
    from .glp import _check_effort

    if args.n_from > args.n_to:
        raise DomainError("--n-from must not exceed --n-to")
    if args.jobs is not None and args.jobs < 1:
        raise DomainError("--jobs must be at least 1")
    alpha = str(_parse_fraction(args.alpha))
    # refused before the first line, since every n up to --n-to is a case
    _check_effort(args.n_to)
    tasks = ((n, alpha, args.assume_irreducible) for n in range(args.n_from, args.n_to + 1))
    # the CPUs this process may run on (a pinned process may use fewer than the host has)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    jobs = min(args.jobs or cpus, cpus, args.n_to - args.n_from + 1)
    if jobs > 1:
        import multiprocessing  # only a pool needs it; kept out of every other start-up

        with multiprocessing.Pool(jobs) as pool:
            for line in pool.imap(_scan_one, tasks):
                print(line, flush=True)
    else:
        for task in tasks:
            print(_scan_one(task), flush=True)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="glpgalois",
        description="Newton polygons, Newton indices, and Galois certificates "
        "for rational polynomials and Generalized Laguerre Polynomials.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def add_json(p):
        p.add_argument("--json", action="store_true", help="emit JSON instead of text")

    p = sub.add_parser("np", help="p-adic Newton polygon of a polynomial")
    p.add_argument("--poly", required=True, help="ascending csv coefficients, e.g. 2,-4,1")
    p.add_argument("--prime", required=True, type=int)
    add_json(p)
    p.set_defaults(func=_cmd_np)

    p = sub.add_parser("index", help="Newton index with per-prime witnesses")
    p.add_argument("--poly", required=True)
    add_json(p)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("certify", help="large-Galois-group certificate")
    p.add_argument("--poly", required=True)
    p.add_argument("--shifts", default="0", help="csv of rational shifts to scan")
    p.add_argument("--assume-irreducible", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_certify)

    p = sub.add_parser("frobenius", help="cycle types modulo good primes")
    p.add_argument("--poly", required=True)
    # exclusive, as --prime is one sample; the count defaults to None, since argparse
    # takes a value that is its default object (as int("5") is 5) for an absent option
    one_or_many = p.add_mutually_exclusive_group()
    one_or_many.add_argument("--prime", type=int, default=None, help="use a single good prime")
    one_or_many.add_argument("--frobenius-samples", type=int, default=None, help="default 5")
    add_json(p)
    p.set_defaults(func=_cmd_frobenius)

    p = sub.add_parser("glp-classify", help="A_n/S_n classification of L_n^(alpha)")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--alpha", required=True, help="integer or a/b rational")
    p.add_argument("--assume-irreducible", action="store_true")
    add_json(p)
    p.set_defaults(func=_cmd_glp_classify)

    p = sub.add_parser("glp-disc", help="Schur discriminant product and squareness")
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--alpha", required=True)
    p.add_argument("--verify-resultant", action="store_true",
                   help="cross-check against the resultant-based discriminant")
    add_json(p)
    p.set_defaults(func=_cmd_glp_disc)

    p = sub.add_parser("glp-scan", help="classify a range of degrees, one JSON per line")
    p.add_argument("--n-from", required=True, type=int)
    p.add_argument("--n-to", required=True, type=int)
    p.add_argument("--alpha", required=True)
    p.add_argument("--assume-irreducible", action="store_true")
    p.add_argument("--jobs", type=int, default=None, help="worker processes (default: CPUs)")
    p.set_defaults(func=_cmd_glp_scan)

    return parser


def _attach_negative_values(argv: list[str]) -> list[str]:
    """argv with each `--opt -1/2` written `--opt=-1/2`.  argparse reads a
    value that starts with '-' as an option unless it is a plain negative
    number, so a negative rational or coefficient list needs the `=` form."""
    out: list[str] = []
    for arg in argv:
        last = out[-1] if out else ""
        after_option = last.startswith("--") and last != "--" and "=" not in last
        if after_option and arg[:1] == "-" and arg[1:2].isdigit():
            out[-1] = f"{last}={arg}"
        else:
            out.append(arg)
    return out


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = build_parser().parse_args(_attach_negative_values(argv))
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
