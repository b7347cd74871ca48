"""Command-line front end.

Every subcommand has a human-readable mode and a `--json` mode carrying the
same information.  All numeric parsing is exact (integers and a/b rationals);
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction
from itertools import islice
from typing import Optional

from .certify import ASSUMED, certificate_to_dict, certify_large_galois
from .errors import DomainError
from .glp import (
    GlpParams,
    classification_to_dict,
    classify,
    glp,
    is_rational_square,
    schur_discriminant,
)
from .modp import factor_degrees, good_primes, parity_evidence
from .newton import newton_index, newton_polygon, polygon_to_dict
from .polys import discriminant, parse_poly


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse rational {text!r}") from None


def _print(args, payload: dict, lines: list[str]) -> int:
    """Print a subcommand's result: its payload as one JSON line under
    --json, else its text lines."""
    print(_json_line(payload) if args.json else "\n".join(lines))
    return 0


def _json_line(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def _cmd_np(args) -> int:
    np_ = newton_polygon(parse_poly(args.poly), args.prime)
    lines = [
        f"slope={s.slope} length={s.length} "
        f"from=({s.start[0]},{s.start[1]}) to=({s.end[0]},{s.end[1]})"
        for s in np_.segments
    ]
    lines.append("vertices: " + " ".join(f"({x},{y})" for x, y in np_.vertices))
    return _print(args, polygon_to_dict(np_), lines)


def _cmd_index(args) -> int:
    report = newton_index(parse_poly(args.poly))
    payload = {
        "index": report.index,
        "witnesses": {str(p): [str(s) for s in sl] for p, sl in report.witnesses.items()},
    }
    lines = [f"index={report.index}"]
    lines += [f"p={p} slopes=" + ",".join(str(s) for s in report.witnesses[p])
              for p in sorted(report.witnesses)]
    return _print(args, payload, lines)


def _cmd_certify(args) -> int:
    f = parse_poly(args.poly)
    shifts = [_parse_fraction(s) for s in args.shifts.split(",")]
    basis = ASSUMED if args.assume_irreducible else None
    payload = certificate_to_dict(certify_large_galois(f, shifts=shifts, irreducibility=basis))
    keys = ("verdict", "n", "shift", "valuation_prime", "slope",
            "window_prime", "newton_index", "irreducibility_basis")
    return _print(args, payload, [f"{key}={payload[key]}" for key in keys])


def _cmd_frobenius(args) -> int:
    f = parse_poly(args.poly)
    if args.prime is not None:
        samples = [factor_degrees(f, args.prime)]
    else:
        if args.frobenius_samples < 1:
            raise DomainError("need at least one sample")
        ps = list(islice(good_primes(f), args.frobenius_samples))
        samples = [factor_degrees(f, p) for p in ps]
    payload = {
        "samples": [
            {"p": ct.prime, "type": list(ct.degrees), "parity": "even" if ct.is_even else "odd"}
            for ct in samples
        ],
        "verdict": parity_evidence(samples),
    }
    lines = [
        f"p={s['p']} type=[{','.join(str(d) for d in s['type'])}] parity={s['parity']}"
        for s in payload["samples"]
    ]
    lines.append(f"verdict={payload['verdict']}")
    return _print(args, payload, lines)


def _cmd_glp_classify(args) -> int:
    params = GlpParams.from_alpha(args.n, _parse_fraction(args.alpha))
    payload = classification_to_dict(classify(params, assume_irreducible=args.assume_irreducible))
    keys = ("n", "alpha", "group", "disc_is_square", "criterion_prime", "ell",
            "irreducibility_basis")
    lines = [f"{key}={payload[key]}" for key in keys]
    lines += [f"certificate.{key}={value}" for key, value in payload["certificate"].items()]
    return _print(args, payload, lines)


def _rational_text(q: Fraction) -> str:
    """str(q), also above the interpreter's limit on int-to-str conversion
    (4,300 digits by default from Python 3.11): such an integer is converted
    through `decimal`, whose conversion has no limit."""
    try:
        return str(q)
    except ValueError:
        from decimal import Decimal  # only a huge Delta needs it

        text = str(Decimal(q.numerator))
        return text if q.denominator == 1 else f"{text}/{Decimal(q.denominator)}"


def _cmd_glp_disc(args) -> int:
    alpha = _parse_fraction(args.alpha)
    delta = schur_discriminant(args.n, alpha)
    text = _rational_text(delta)
    payload = {"n": args.n, "alpha": str(alpha), "discriminant": text,
               "square": is_rational_square(delta)}
    line = f"{text} square={str(payload['square']).lower()}"
    if args.verify_resultant:
        params = GlpParams.from_alpha(args.n, alpha)
        monic = glp(params) * ((-1) ** args.n * math.factorial(args.n))
        payload["verified"] = discriminant(monic) == delta
        line += f" verified={str(payload['verified']).lower()}"
    return _print(args, payload, [line])


def _scan_one(task: tuple[int, str, bool]) -> str:
    n, alpha, assume = task
    params = GlpParams.from_alpha(n, Fraction(alpha))
    return _json_line(classification_to_dict(classify(params, assume_irreducible=assume)))


def _cmd_glp_scan(args) -> int:
    if args.n_from > args.n_to:
        raise DomainError("--n-from must not exceed --n-to")
    if args.jobs is not None and args.jobs < 1:
        raise DomainError("--jobs must be at least 1")
    alpha = str(_parse_fraction(args.alpha))
    tasks = [(n, alpha, args.assume_irreducible) for n in range(args.n_from, args.n_to + 1)]
    jobs = args.jobs or os.cpu_count() or 1
    if jobs > 1 and len(tasks) > 1:
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
    p.add_argument("--prime", type=int, default=None, help="use a single good prime")
    p.add_argument("--frobenius-samples", type=int, default=5)
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
