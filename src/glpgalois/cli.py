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
from .modp import CycleType, factor_degrees, good_primes, parity_evidence
from .newton import newton_index, newton_polygon, polygon_to_dict
from .polys import discriminant, parse_poly


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise DomainError(f"cannot parse rational {text!r}") from None


def _cmd_np(args) -> int:
    f = parse_poly(args.poly)
    np_ = newton_polygon(f, args.prime)
    if args.json:
        print(json.dumps(polygon_to_dict(np_), sort_keys=True))
    else:
        for s in np_.segments:
            print(
                f"slope={s.slope} length={s.length} "
                f"from=({s.start[0]},{s.start[1]}) to=({s.end[0]},{s.end[1]})"
            )
        print("vertices: " + " ".join(f"({x},{y})" for x, y in np_.vertices))
    return 0


def _cmd_index(args) -> int:
    report = newton_index(parse_poly(args.poly))
    if args.json:
        payload = {
            "index": report.index,
            "witnesses": {str(p): [str(s) for s in sl] for p, sl in report.witnesses.items()},
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        print(f"index={report.index}")
        for p in sorted(report.witnesses):
            print(f"p={p} slopes=" + ",".join(str(s) for s in report.witnesses[p]))
    return 0


def _cmd_certify(args) -> int:
    f = parse_poly(args.poly)
    shifts = [_parse_fraction(s) for s in args.shifts.split(",")]
    basis = ASSUMED if args.assume_irreducible else None
    cert = certify_large_galois(f, shifts=shifts, irreducibility=basis)
    payload = certificate_to_dict(cert)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in ("verdict", "n", "shift", "valuation_prime", "slope",
                    "window_prime", "newton_index", "irreducibility_basis"):
            print(f"{key}={payload[key]}")
    return 0


def _cycle_type_line(ct: CycleType) -> str:
    parity = "even" if ct.is_even else "odd"
    return f"p={ct.prime} type=[{','.join(str(d) for d in ct.degrees)}] parity={parity}"


def _cmd_frobenius(args) -> int:
    f = parse_poly(args.poly)
    if args.prime is not None:
        samples = [factor_degrees(f, args.prime)]
    else:
        if args.frobenius_samples < 1:
            raise DomainError("need at least one sample")
        ps = list(islice(good_primes(f), args.frobenius_samples))
        samples = [factor_degrees(f, p) for p in ps]
    verdict = parity_evidence(samples)
    if args.json:
        payload = {
            "samples": [
                {
                    "p": ct.prime,
                    "type": list(ct.degrees),
                    "parity": "even" if ct.is_even else "odd",
                }
                for ct in samples
            ],
            "verdict": verdict,
        }
        print(json.dumps(payload, sort_keys=True))
    else:
        for ct in samples:
            print(_cycle_type_line(ct))
        print(f"verdict={verdict}")
    return 0


def _cmd_glp_classify(args) -> int:
    params = GlpParams.from_alpha(args.n, _parse_fraction(args.alpha))
    result = classify(params, assume_irreducible=args.assume_irreducible)
    payload = classification_to_dict(result)
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for key in ("n", "alpha", "group", "disc_is_square", "criterion_prime",
                    "ell", "irreducibility_basis"):
            print(f"{key}={payload[key]}")
        for key, value in payload["certificate"].items():
            print(f"certificate.{key}={value}")
    return 0


def _cmd_glp_disc(args) -> int:
    alpha = _parse_fraction(args.alpha)
    delta = schur_discriminant(args.n, alpha)
    square = is_rational_square(delta)
    verified: Optional[bool] = None
    if args.verify_resultant:
        params = GlpParams.from_alpha(args.n, alpha)
        sign = (-1) ** args.n
        monic = glp(params) * (sign * math.factorial(args.n))
        verified = discriminant(monic) == delta
    if args.json:
        payload = {"n": args.n, "alpha": str(alpha), "discriminant": str(delta),
                   "square": square}
        if verified is not None:
            payload["verified"] = verified
        print(json.dumps(payload, sort_keys=True))
    else:
        line = f"{delta} square={str(square).lower()}"
        if verified is not None:
            line += f" verified={str(verified).lower()}"
        print(line)
    return 0


def _scan_one(task: tuple[int, str, bool]) -> str:
    n, alpha, assume = task
    params = GlpParams.from_alpha(n, Fraction(alpha))
    return json.dumps(classification_to_dict(classify(params, assume_irreducible=assume)),
                      sort_keys=True)


def _cmd_glp_scan(args) -> int:
    if args.n_from > args.n_to:
        raise DomainError("--n-from must not exceed --n-to")
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


def main(argv: Optional[list[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
