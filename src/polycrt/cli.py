"""Command-line interface.

Subcommands: analyze, encode, corrupt, reconstruct, crt, bound, simulate.
Results go to stdout (text or JSON via ``--format``); diagnostics go to
stderr.  Exit codes are stable:

    0  success
    2  input/config error (polynomial text, composite or >= 2**64 p, bad level,
       tau or trials)
    3  unusable moduli (zero, coprime, or one dividing the other)
    4  degree out of range
    5  retired (was: inexact division inside the decoder; cannot occur)
    6  inconsistent residues in exact reconstruction
    7  fewer than two moduli for the bound computation
    8  failures in a guarantee-mode simulation
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import List, Optional

from .crt import ResiduePair, crt_pair, encode
from .decoder import ErroneousResiduePair, reconstruct
from .errors import (
    CoprimeModuliError,
    DegenerateModuliError,
    DegreeOutOfRangeError,
    InconsistentResiduesError,
    LevelOutOfRangeError,
    ParseError,
    PolyCrtError,
    TooFewModuliError,
    ZeroModulusError,
)
from .field import PrimeField
from .levels import analysis_to_json, analyze_pair, render_level_table, residue_error_bound
from .poly import _MAX_PARSE_DEGREE, Polynomial, parse_polynomial
from .simulation import TrialConfig, render_report, run_campaign, sample_error

# A campaign keeps every trial's outcome, so the trial count bounds its memory.
_MAX_TRIALS = 10**6

_EXIT_CODES = (
    (ParseError, 2),
    (LevelOutOfRangeError, 2),
    ((ZeroModulusError, CoprimeModuliError, DegenerateModuliError), 3),
    (DegreeOutOfRangeError, 4),
    (InconsistentResiduesError, 6),
    (TooFewModuliError, 7),
)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        field = PrimeField(args.p)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args, field)
    except PolyCrtError as exc:
        for types, code in _EXIT_CODES:
            if isinstance(exc, types):
                print(f"error: {exc}", file=sys.stderr)
                return code
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycrt",
        description=(
            "Residue encoding, exact CRT reconstruction and robust decoding"
            " for polynomials over a prime field."
        ),
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--p", type=int, default=2, help="prime field characteristic (default 2)"
    )
    common.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format (default text)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    poly_help = 'polynomial, e.g. "x^3+x+1" or coefficient list "[1,1,0,1]"'

    cmd = sub.add_parser(
        "analyze",
        parents=[common],
        help="derive the gcd/cofactor structure and level trade-off table",
    )
    cmd.add_argument("--m1", required=True, help=f"first modulus: {poly_help}")
    cmd.add_argument("--m2", required=True, help=f"second modulus: {poly_help}")
    cmd.set_defaults(func=cmd_analyze)

    cmd = sub.add_parser(
        "encode", parents=[common], help="residues and folding polynomials of a polynomial"
    )
    cmd.add_argument("--m1", required=True, help=poly_help)
    cmd.add_argument("--m2", required=True, help=poly_help)
    cmd.add_argument("--poly", required=True, help=f"polynomial to encode: {poly_help}")
    cmd.set_defaults(func=cmd_encode)

    cmd = sub.add_parser(
        "corrupt", parents=[common], help="add random bounded-degree errors to residues"
    )
    cmd.add_argument("--r1", required=True, help=poly_help)
    cmd.add_argument("--r2", required=True, help=poly_help)
    cmd.add_argument(
        "--tau", required=True, type=int, help="error degree bound (-1 keeps residues clean)"
    )
    cmd.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    cmd.add_argument("--e1", help=f"explicit first error, overrides sampling: {poly_help}")
    cmd.add_argument("--e2", help=f"explicit second error, overrides sampling: {poly_help}")
    cmd.set_defaults(func=cmd_corrupt)

    cmd = sub.add_parser(
        "reconstruct", parents=[common], help="robust reconstruction from erroneous residues"
    )
    cmd.add_argument("--m1", required=True, help=poly_help)
    cmd.add_argument("--m2", required=True, help=poly_help)
    cmd.add_argument("--r1", required=True, help=f"received residue mod m1: {poly_help}")
    cmd.add_argument("--r2", required=True, help=f"received residue mod m2: {poly_help}")
    cmd.add_argument("--level", required=True, type=int, help="level index in 1..K+1")
    cmd.set_defaults(func=cmd_reconstruct)

    cmd = sub.add_parser(
        "crt", parents=[common], help="exact reconstruction from clean residues"
    )
    cmd.add_argument("--m1", required=True, help=poly_help)
    cmd.add_argument("--m2", required=True, help=poly_help)
    cmd.add_argument("--r1", required=True, help=f"residue mod m1: {poly_help}")
    cmd.add_argument("--r2", required=True, help=f"residue mod m2: {poly_help}")
    cmd.set_defaults(func=cmd_crt)

    cmd = sub.add_parser(
        "bound",
        parents=[common],
        help="exclusive residue error bound for a set of moduli",
    )
    cmd.add_argument(
        "--moduli",
        required=True,
        help="comma-separated moduli (commas inside [...] lists are fine)",
    )
    cmd.set_defaults(func=cmd_bound)

    cmd = sub.add_parser(
        "simulate", parents=[common], help="randomized corrupt-then-decode campaign"
    )
    cmd.add_argument("--m1", required=True, help=poly_help)
    cmd.add_argument("--m2", required=True, help=poly_help)
    cmd.add_argument("--level", required=True, type=int, help="level index in 1..K+1")
    cmd.add_argument("--tau", required=True, type=int, help="error degree bound")
    cmd.add_argument(
        "--trials", type=int, default=1000, help="trial count (default 1000, at most 10**6)"
    )
    cmd.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    cmd.add_argument(
        "--boundary",
        action="store_true",
        help="informational mode: allow tau at or beyond the level bound, never exit 8",
    )
    cmd.set_defaults(func=cmd_simulate)

    return parser


def _print_json(payload: dict) -> None:
    print(json.dumps(payload, indent=2, sort_keys=True))


def _analysis_for(args, field: PrimeField):
    m1 = parse_polynomial(args.m1, field)
    m2 = parse_polynomial(args.m2, field)
    return analyze_pair(m1, m2)


def cmd_analyze(args, field: PrimeField) -> int:
    analysis = _analysis_for(args, field)
    if args.format == "json":
        _print_json(analysis_to_json(analysis))
        return 0
    lines = []
    if analysis.swapped:
        lines.append("note: inputs swapped so that deg(m1) <= deg(m2)")
    lines.extend(
        [
            f"m1 = {analysis.m1}",
            f"m2 = {analysis.m2}",
            f"gcd m = {analysis.m}",
            f"gamma1 = {analysis.gamma1}",
            f"gamma2 = {analysis.gamma2}",
            f"deg(lcm) = {analysis.lcm.degree}",
            "sigma chain: " + ", ".join(str(s) for s in analysis.remainders),
            f"K = {analysis.K}",
            "",
            render_level_table(analysis),
        ]
    )
    print("\n".join(lines))
    return 0


def cmd_encode(args, field: PrimeField) -> int:
    analysis = _analysis_for(args, field)
    a = parse_polynomial(args.poly, field)
    residues, witness = encode(a, analysis)
    if args.format == "json":
        _print_json(
            {
                "m1": str(analysis.m1),
                "m2": str(analysis.m2),
                "swapped": analysis.swapped,
                "a1": str(residues.a1),
                "a2": str(residues.a2),
                "k1": str(witness.k1),
                "k2": str(witness.k2),
            }
        )
        return 0
    if analysis.swapped:
        print("note: inputs swapped so that deg(m1) <= deg(m2)")
    print(f"a1 = {residues.a1}  (mod m1 = {analysis.m1})")
    print(f"a2 = {residues.a2}  (mod m2 = {analysis.m2})")
    print(f"k1 = {witness.k1}")
    print(f"k2 = {witness.k2}")
    return 0


def cmd_corrupt(args, field: PrimeField) -> int:
    r1 = parse_polynomial(args.r1, field)
    r2 = parse_polynomial(args.r2, field)
    if args.tau < -1:
        raise ValueError("tau must be >= -1")
    _check_tau_cap(args.tau)
    rng = random.Random(f"corrupt:{args.seed}")
    e1 = sample_error(args.tau, field, rng)
    e2 = sample_error(args.tau, field, rng)
    if args.e1 is not None:
        e1 = parse_polynomial(args.e1, field)
    if args.e2 is not None:
        e2 = parse_polynomial(args.e2, field)
    c1 = r1 + e1
    c2 = r2 + e2
    if args.format == "json":
        _print_json(
            {
                "corrupted1": str(c1),
                "corrupted2": str(c2),
                "e1": str(e1),
                "e2": str(e2),
                "tau": args.tau,
                "seed": args.seed,
            }
        )
        return 0
    print(f"corrupted r1 = {c1}")
    print(f"corrupted r2 = {c2}")
    print(f"e1 = {e1}")
    print(f"e2 = {e2}")
    return 0


def _check_tau_cap(tau: int) -> None:
    """Reject a tau whose sampled errors (tau + 1 coefficients) exceed the parser's cap."""
    if tau > _MAX_PARSE_DEGREE:
        raise ValueError(f"tau must be <= {_MAX_PARSE_DEGREE}, got {tau}")


def _residues_in_analysis_order(args, field: PrimeField):
    analysis = _analysis_for(args, field)
    r1 = parse_polynomial(args.r1, field)
    r2 = parse_polynomial(args.r2, field)
    if analysis.swapped:
        r1, r2 = r2, r1
    return analysis, r1, r2


def cmd_reconstruct(args, field: PrimeField) -> int:
    analysis, r1, r2 = _residues_in_analysis_order(args, field)
    pair = ErroneousResiduePair(r1, r2, analysis)
    result = reconstruct(pair, args.level)
    if args.format == "json":
        payload = result.to_json()
        payload["swapped"] = analysis.swapped
        _print_json(payload)
        return 0
    if analysis.swapped:
        print("note: inputs swapped so that deg(m1) <= deg(m2)")
    print(f"branch = {result.branch.value}")
    print(f"q21 = {result.q21}")
    print(f"cascade tail = {result.cascade_tail}")
    print(f"k2_hat = {result.k2_hat}")
    print(f"a_hat = {result.a_hat}")
    return 0


def cmd_crt(args, field: PrimeField) -> int:
    analysis, r1, r2 = _residues_in_analysis_order(args, field)
    a = crt_pair(ResiduePair(r1, r2, analysis))
    if args.format == "json":
        _print_json({"a": str(a), "swapped": analysis.swapped})
        return 0
    print(f"a = {a}")
    return 0


def _split_moduli_arg(text: str) -> List[str]:
    """Split on commas outside [...] so coefficient lists survive."""
    parts: List[str] = []
    depth = 0
    current: List[str] = []
    for ch in text:
        if ch == "[":
            depth += 1
        elif ch == "]":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            parts.append("".join(current))
            current = []
        else:
            current.append(ch)
    parts.append("".join(current))
    return [p for p in parts if p.strip()]


def cmd_bound(args, field: PrimeField) -> int:
    texts = _split_moduli_arg(args.moduli)
    moduli = [parse_polynomial(t, field) for t in texts]
    bound = residue_error_bound(moduli)
    if args.format == "json":
        _print_json({"bound": bound, "moduli": [str(m) for m in moduli]})
        return 0
    print(bound)
    return 0


def cmd_simulate(args, field: PrimeField) -> int:
    analysis = _analysis_for(args, field)
    config = TrialConfig(
        analysis=analysis,
        level=args.level,
        tau=args.tau,
        trials=args.trials,
        seed=args.seed,
        boundary=args.boundary,
    )
    _check_tau_cap(args.tau)
    if args.trials > _MAX_TRIALS:
        raise ValueError(f"trials must be <= {_MAX_TRIALS}, got {args.trials}")
    report = run_campaign(config)
    if args.format == "json":
        _print_json(report.to_json())
    else:
        print(render_report(report))
    if not args.boundary and report.failures:
        return 8
    return 0


if __name__ == "__main__":
    sys.exit(main())
