"""Command-line interface.

Subcommands: analyze, encode, corrupt, reconstruct, crt, bound, simulate.
Each ``cmd_*`` takes ``(args, field)``, writes nothing, and returns its JSON
payload, its text lines and its exit code.  ``main`` alone prints: the
result to stdout (text or JSON via ``--format``), any error to stderr.
Exit codes are stable:

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
from typing import List, Optional, Tuple

from .crt import ResiduePair, crt_pair, encode
from .decoder import ErroneousResiduePair, reconstruct
from .errors import (
    CoprimeModuliError,
    DegenerateModuliError,
    DegreeOutOfRangeError,
    InconsistentResiduesError,
    PolyCrtError,
    TooFewModuliError,
    ZeroModulusError,
)
from .field import PrimeField
from .levels import analysis_to_json, analyze_pair, render_level_table, residue_error_bound
from .poly import _MAX_PARSE_DEGREE, parse_polynomial
from .simulation import TrialConfig, render_report, run_campaign, sample_error

# What a command returns: JSON payload, text lines, exit code.
_Result = Tuple[dict, List[str], int]

# A campaign keeps every trial's outcome, so the trial count bounds its memory.
_MAX_TRIALS = 10**6

# Any other PolyCrtError or ValueError exits 2.
_EXIT_CODES = (
    ((ZeroModulusError, CoprimeModuliError, DegenerateModuliError), 3),
    (DegreeOutOfRangeError, 4),
    (InconsistentResiduesError, 6),
    (TooFewModuliError, 7),
)


def main(argv: Optional[List[str]] = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        payload, lines, code = args.func(args, PrimeField(args.p))
    except (PolyCrtError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next((c for types, c in _EXIT_CODES if isinstance(exc, types)), 2)
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))
    return code


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polycrt",
        description=(
            "Residue encoding, exact CRT reconstruction and robust decoding"
            " for polynomials over a prime field."
        ),
    )
    poly_help = 'polynomial, e.g. "x^3+x+1" or coefficient list "[1,1,0,1]"'
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
    moduli = argparse.ArgumentParser(add_help=False, parents=[common])
    moduli.add_argument("--m1", required=True, help=f"first modulus: {poly_help}")
    moduli.add_argument("--m2", required=True, help=f"second modulus: {poly_help}")
    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser(
        "analyze",
        parents=[moduli],
        help="derive the gcd/cofactor structure and level trade-off table",
    )
    cmd.set_defaults(func=cmd_analyze)

    cmd = sub.add_parser(
        "encode", parents=[moduli], help="residues and folding polynomials of a polynomial"
    )
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
        "reconstruct", parents=[moduli], help="robust reconstruction from erroneous residues"
    )
    cmd.add_argument("--r1", required=True, help=f"received residue mod m1: {poly_help}")
    cmd.add_argument("--r2", required=True, help=f"received residue mod m2: {poly_help}")
    cmd.add_argument("--level", required=True, type=int, help="level index in 1..K+1")
    cmd.set_defaults(func=cmd_reconstruct)

    cmd = sub.add_parser(
        "crt", parents=[moduli], help="exact reconstruction from clean residues"
    )
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
        "simulate", parents=[moduli], help="randomized corrupt-then-decode campaign"
    )
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


def _analysis_for(args, field: PrimeField):
    m1 = parse_polynomial(args.m1, field)
    m2 = parse_polynomial(args.m2, field)
    return analyze_pair(m1, m2)


def _swap_note(analysis) -> List[str]:
    return ["note: inputs swapped so that deg(m1) <= deg(m2)"] if analysis.swapped else []


def cmd_analyze(args, field: PrimeField) -> _Result:
    analysis = _analysis_for(args, field)
    payload = analysis_to_json(analysis)
    lines = _swap_note(analysis) + [
        f"m1 = {payload['m1']}",
        f"m2 = {payload['m2']}",
        f"gcd m = {payload['m']}",
        f"gamma1 = {payload['gamma1']}",
        f"gamma2 = {payload['gamma2']}",
        f"deg(lcm) = {payload['degM']}",
        "sigma chain: " + ", ".join(payload["sigma"]),
        f"K = {payload['K']}",
        "",
        render_level_table(analysis),
    ]
    return payload, lines, 0


def cmd_encode(args, field: PrimeField) -> _Result:
    analysis = _analysis_for(args, field)
    a = parse_polynomial(args.poly, field)
    residues, witness = encode(a, analysis)
    payload = {
        "m1": str(analysis.m1),
        "m2": str(analysis.m2),
        "swapped": analysis.swapped,
        "a1": str(residues.a1),
        "a2": str(residues.a2),
        "k1": str(witness.k1),
        "k2": str(witness.k2),
    }
    lines = _swap_note(analysis) + [
        f"a1 = {payload['a1']}  (mod m1 = {payload['m1']})",
        f"a2 = {payload['a2']}  (mod m2 = {payload['m2']})",
        f"k1 = {payload['k1']}",
        f"k2 = {payload['k2']}",
    ]
    return payload, lines, 0


def cmd_corrupt(args, field: PrimeField) -> _Result:
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
    payload = {
        "corrupted1": str(r1 + e1),
        "corrupted2": str(r2 + e2),
        "e1": str(e1),
        "e2": str(e2),
        "tau": args.tau,
        "seed": args.seed,
    }
    lines = [
        f"corrupted r1 = {payload['corrupted1']}",
        f"corrupted r2 = {payload['corrupted2']}",
        f"e1 = {payload['e1']}",
        f"e2 = {payload['e2']}",
    ]
    return payload, lines, 0


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


def cmd_reconstruct(args, field: PrimeField) -> _Result:
    analysis, r1, r2 = _residues_in_analysis_order(args, field)
    result = reconstruct(ErroneousResiduePair(r1, r2, analysis), args.level)
    payload = result.to_json()
    payload["swapped"] = analysis.swapped
    lines = _swap_note(analysis) + [
        f"branch = {payload['branch']}",
        f"q21 = {payload['q21']}",
        f"cascade tail = {payload['cascadeTail']}",
        f"k2_hat = {payload['k2Hat']}",
        f"a_hat = {payload['aHat']}",
    ]
    return payload, lines, 0


def cmd_crt(args, field: PrimeField) -> _Result:
    analysis, r1, r2 = _residues_in_analysis_order(args, field)
    payload = {"a": str(crt_pair(ResiduePair(r1, r2, analysis))), "swapped": analysis.swapped}
    return payload, [f"a = {payload['a']}"], 0


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


def cmd_bound(args, field: PrimeField) -> _Result:
    texts = _split_moduli_arg(args.moduli)
    moduli = [parse_polynomial(t, field) for t in texts]
    bound = residue_error_bound(moduli)
    return {"bound": bound, "moduli": [str(m) for m in moduli]}, [str(bound)], 0


def cmd_simulate(args, field: PrimeField) -> _Result:
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
    code = 8 if report.failures and not args.boundary else 0
    # Text mode prints at most ten failing trials; skip formatting them all.
    if args.format == "json":
        return report.to_json(), [], code
    return {}, [render_report(report)], code


if __name__ == "__main__":
    sys.exit(main())
