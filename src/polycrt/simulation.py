"""Randomized corrupt-then-decode campaigns for the robust decoder.

Campaigns draw a message and per-residue errors inside a level's bounds,
corrupt the encoded residues, decode, and record whether the folding
polynomial was recovered exactly.  Inside the bounds this must never fail;
`run_campaign` is the executable form of that guarantee.

Every trial runs through :func:`_run_trials`, which draws and judges it in
one place.  Over F_2 it decodes with :func:`_packed_decoder`, on the packed
ints of the drawn polynomials: the byte-table division and product and the
fused cascade of :mod:`polycrt.gf2`, read once per campaign off the
analysis.  Over odd p it decodes with :func:`_poly_decoder`, through the
public :func:`~polycrt.crt.encode` and :func:`~polycrt.decoder.reconstruct`.

Determinism contract: trial ``idx`` of a campaign seeded ``seed`` draws from
the SHAKE-256 stream of ``f"{seed}:{idx}"`` (:func:`_stream_draws`), and the
report aggregation is order-independent, so a campaign's report is
byte-for-byte reproducible however trials are scheduled.  The public
samplers draw from a caller-owned ``random.Random`` (:func:`_draw`).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from array import array
from sys import byteorder
from typing import Callable, Iterator, List, Optional, Tuple

try:
    # hashlib would load OpenSSL; like random's sha512, prefer the builtin module.
    from _sha3 import shake_256
except ImportError:
    from hashlib import shake_256

from .crt import encode
from .decoder import Branch, ErroneousResiduePair, _branch, reconstruct
from .errors import PolyCrtError
from .field import PrimeField
from .gf2 import _cltable_divmod, _cltable_mul, _fold_fused
from .levels import ModuliPairAnalysis, analyze_pair
from .poly import NEG_INF, Degree, Polynomial, _from_bits, _from_reduced, _pack2, _record, gcd


def _draw(
    counts: Tuple[int, ...], field: PrimeField, rng: random.Random, top: Tuple[int, ...] = ()
) -> List[Polynomial]:
    """Per count, that many coefficients drawn as ``rng.randrange(p)`` draws them, then ``top``.

    CPython 3.10-3.13 implements ``randrange(p)`` for ``random.Random`` as
    ``getrandbits(p.bit_length())`` redrawn while ``>= p``; this loop does
    the same, so it draws the same values and leaves ``rng`` in the same
    state, without two Python frames per coefficient.  The values are
    reduced already, so the polynomials skip the constructor's ``% p``.
    It serves the public samplers, whose caller may read ``rng`` on;
    campaign trials read a stream of their own (:func:`_stream_draws`).
    """
    p = field.p
    k = p.bit_length()
    getrandbits = rng.getrandbits
    polys = []
    for count in counts:
        vals = []
        for _ in range(count):
            r = getrandbits(k)
            while r >= p:
                r = getrandbits(k)
            vals.append(r)
        vals += top
        polys.append(_from_bits(field, _pack2(vals)) if p == 2 else _from_reduced(field, vals))
    return polys


def _stream_draws(counts: Tuple[int, ...], field: PrimeField, key: str) -> List[Polynomial]:
    """Per count, that many uniform coefficients read off the SHAKE-256 stream S of ``key``.

    At p = 2, draw j is bit j of ``int.from_bytes(S[:ceil(n / 8)], "little")``
    for n draws in all.  At odd p, each candidate is the next w-byte
    little-endian word of S masked to ``k = (p - 1).bit_length()`` bits, w the
    smallest of 1, 2, 4 and 8 bytes that holds them; the candidates below p
    are the draws.  A short read is topped up by a longer one, which extends it.
    """
    stream = shake_256(key.encode())
    p = field.p
    n = sum(counts)
    polys = []
    if p == 2:
        bits = int.from_bytes(stream.digest(n + 7 >> 3), "little")
        for count in counts:
            polys.append(_from_bits(field, bits & ~(-1 << count)))
            bits >>= count
        return polys
    k = (p - 1).bit_length()
    width, code = (1, "B") if k <= 8 else (2, "H") if k <= 16 else (4, "I") if k <= 32 else (8, "Q")
    lanes = ((1 << k) - 1).to_bytes(width, "little")
    vals, words = [], 0
    while len(vals) < n:
        # Expected rejections at acceptance p / 2**k, two standard deviations and a word.
        rejects = (n - len(vals)) * ((1 << k) - p) / p
        more = n - len(vals) + int(rejects + 2 * (rejects * (1 << k) / p) ** 0.5) + 1
        read = stream.digest((words + more) * width)[words * width:]
        words += more
        # Masked all at once, each candidate becomes one int, made only as it is read.
        masked = int.from_bytes(read, "little") & int.from_bytes(lanes * more, "little")
        cands = array(code, masked.to_bytes(len(read), "little"))
        if byteorder == "big":
            cands.byteswap()
        vals += [v for v in cands if v < p]
    for count in counts:
        polys.append(_from_reduced(field, vals[:count]))
        del vals[:count]
    return polys


def sample_polynomial(
    max_deg_exclusive: int, field: PrimeField, rng: random.Random
) -> Polynomial:
    """Uniform draw over all polynomials of degree below ``max_deg_exclusive``.

    Each of the ``max_deg_exclusive`` coefficients is uniform in ``[0, p)``,
    so the all-zero outcome is included; a bound of 0 always yields the zero
    polynomial.
    """
    if max_deg_exclusive < 0:
        raise ValueError("degree bound must be >= 0")
    return _draw((max_deg_exclusive,), field, rng)[0]


def sample_error(tau: int, field: PrimeField, rng: random.Random) -> Polynomial:
    """Uniform residue error of degree at most ``tau`` (``-1`` forces zero)."""
    if tau < -1:
        raise ValueError("tau must be >= -1")
    return _draw((tau + 1,), field, rng)[0]


def sample_monic(degree: int, field: PrimeField, rng: random.Random) -> Polynomial:
    """Uniform monic polynomial of exactly the given degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return _draw((degree,), field, rng, (1,))[0]


# Draws of a gcd and two cofactors before random_moduli_pair gives up.
_MAX_COPRIME_ATTEMPTS = 200


def random_moduli_pair(
    field: PrimeField,
    rng: random.Random,
    gcd_degree: Tuple[int, int] = (1, 3),
    cofactor_degree: Tuple[int, int] = (1, 4),
) -> ModuliPairAnalysis:
    """Random valid moduli pair: shared monic factor times coprime cofactors.

    Draws a monic gcd and two monic nonconstant cofactors, retrying until
    the cofactors are coprime, at most ``_MAX_COPRIME_ATTEMPTS`` times.
    Degree ranges are inclusive.
    """
    if gcd_degree[0] < 1 or cofactor_degree[0] < 1:
        raise ValueError("gcd and cofactors must be nonconstant")
    for _ in range(_MAX_COPRIME_ATTEMPTS):
        shared = sample_monic(rng.randint(*gcd_degree), field, rng)
        cof1 = sample_monic(rng.randint(*cofactor_degree), field, rng)
        cof2 = sample_monic(rng.randint(*cofactor_degree), field, rng)
        if gcd(cof1, cof2).degree != 0:
            continue
        return analyze_pair(shared * cof1, shared * cof2)
    raise PolyCrtError(
        f"no coprime cofactor pair found in {_MAX_COPRIME_ATTEMPTS} attempts"
    )


@dataclass(frozen=True)
class TrialConfig:
    """Campaign parameters; validated on construction.

    In guarantee mode ``tau`` must stay strictly below the level's error
    bound, so any recorded failure is an implementation bug.  Boundary mode
    lifts that restriction to probe behavior outside the guarantee.
    """

    analysis: ModuliPairAnalysis
    level: int
    tau: int
    trials: int
    seed: int
    boundary: bool = False

    def __post_init__(self) -> None:
        spec = self.analysis.level_spec(self.level)
        if self.tau < -1:
            raise ValueError("tau must be >= -1")
        if self.trials < 0:
            raise ValueError("trials must be >= 0")
        if not self.boundary and self.tau >= spec.error_bound_exclusive:
            raise ValueError(
                f"tau = {self.tau} is not below the level-{self.level} error"
                f" bound {spec.error_bound_exclusive}; use boundary mode to"
                " probe beyond the guarantee"
            )

    def to_json(self) -> dict:
        return {
            "p": self.analysis.field.p,
            "m1": str(self.analysis.m1),
            "m2": str(self.analysis.m2),
            "level": self.level,
            "tau": self.tau,
            "trials": self.trials,
            "seed": self.seed,
            "boundary": self.boundary,
        }


@dataclass(frozen=True)
class TrialOutcome:
    """Single decode attempt: inputs, branch taken, and success flags."""

    trial: int
    a: Polynomial
    e1: Polynomial
    e2: Polynomial
    branch: Branch
    k2_match: bool
    residual_deg: Degree
    residual_is_e2: bool
    success: bool

    def to_json(self) -> dict:
        return {
            "trial": self.trial,
            "a": str(self.a),
            "e1": str(self.e1),
            "e2": str(self.e2),
            "branch": self.branch.value,
            "k2Match": self.k2_match,
            "residualDeg": _deg_json(self.residual_deg),
            # The decoder cannot fail (see _run_trials); kept for a stable format.
            "error": None,
        }


@dataclass
class TrialReport:
    """Aggregate campaign results plus the per-trial record."""

    config: TrialConfig
    outcomes: List[TrialOutcome] = dataclass_field(default_factory=list)
    successes: int = 0
    failures: int = 0
    max_residual_deg: Degree = NEG_INF
    branch_counts: dict = dataclass_field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "successes": self.successes,
            "failures": self.failures,
            "maxErrDeg": _deg_json(self.max_residual_deg),
            "branchCounts": dict(sorted(self.branch_counts.items())),
            # The decoder cannot fail (see _run_trials); kept for a stable format.
            "decodeErrors": 0,
            "failureDetails": [
                o.to_json() for o in self.outcomes if not o.success
            ],
        }


def _deg_json(deg: Degree) -> Optional[int]:
    return None if deg == NEG_INF else int(deg)


def _run_trials(
    analysis: ModuliPairAnalysis, level: int, tau: int, prefix: str, trials: int
) -> Iterator[TrialOutcome]:
    """Trials ``0 .. trials - 1``, each keyed ``f"{prefix}{trial}"``: draw, corrupt, decode, judge.

    A trial draws ``a``, then ``e1``, then ``e2`` from the stream of its key;
    the draw order is part of the determinism contract (:func:`_stream_draws`).
    The field's decoder (:func:`_packed_decoder` at p = 2,
    :func:`_poly_decoder` otherwise) is set up once for all the trials.  A
    trial succeeds when the folding polynomial is recovered exactly and the
    residual ``a_hat - a`` has degree at most ``tau``; this is the only place
    that rule is applied.  Nothing here raises once ``level`` is valid, which
    ``level_spec`` checks first, for any ``tau >= -1``: ``r1`` and ``r2`` are
    reduced mod ``m1`` and ``m2`` before they are decoded.
    """
    field = analysis.field
    counts = (analysis.level_spec(level).dynamic_range_exclusive, tau + 1, tau + 1)
    decode = (_packed_decoder if field.p == 2 else _poly_decoder)(analysis, level)
    for trial in range(trials):
        a, e1, e2 = _stream_draws(counts, field, f"{prefix}{trial}")
        branch, k2_match, residual_deg, residual_is_e2 = decode(a, e1, e2)
        yield _record(
            TrialOutcome, trial=trial, a=a, e1=e1, e2=e2, branch=branch, k2_match=k2_match,
            residual_deg=residual_deg, residual_is_e2=residual_is_e2,
            success=k2_match and residual_deg <= tau,
        )


def _poly_decoder(analysis: ModuliPairAnalysis, level: int) -> Callable:
    """A trial's decode through :func:`encode` and :func:`reconstruct`, for any p.

    The returned function maps ``a, e1, e2`` to the branch, whether ``k2``
    was recovered, the residual's degree and whether the residual is ``e2``.
    """
    m1, m2 = analysis.m1, analysis.m2
    deg1, deg2 = m1.degree, m2.degree

    def decode(a: Polynomial, e1: Polynomial, e2: Polynomial) -> tuple:
        residues, witness = encode(a, analysis)
        # A residue plus an error of degree below deg(m_i) is already reduced;
        # only boundary mode with tau >= deg(m_i) needs the division.
        r1 = residues.a1 + e1
        if r1.degree >= deg1:
            r1 %= m1
        r2 = residues.a2 + e2
        if r2.degree >= deg2:
            r2 %= m2
        # r1 and r2 are reduced and over the analysis's field: no re-check.
        result = reconstruct(_record(ErroneousResiduePair, r1=r1, r2=r2, moduli=analysis), level)
        residual = result.a_hat - a
        # k2 recovered does not imply residual == e2: in boundary mode with
        # tau >= deg(m2), r2 is reduced.
        return result.branch, result.k2_hat == witness.k2, residual.degree, residual == e2

    return decode


def _packed_decoder(analysis: ModuliPairAnalysis, level: int) -> Callable:
    """:func:`_poly_decoder` at p = 2, on the packed ints of the polynomials.

    The moduli's byte tables, the fused chain and the degrees are read once.
    A trial then makes two table divisions of ``a``, one fold of the
    difference ``q21 = r1 - r2`` and one table product for ``a_hat = k2_hat *
    m2 + r2``, and builds no polynomial.
    """
    (mults1, tops1), (mults2, tops2) = analysis.tables
    w, index = analysis.chain.layout, analysis.chain.index
    deg1, deg2 = analysis.m1.degree, analysis.m2.degree
    bound = analysis.level_spec(level).error_bound_exclusive

    def decode(a: Polynomial, e1: Polynomial, e2: Polynomial) -> tuple:
        a = a._value
        r1 = _cltable_divmod(a, mults1, tops1)[1] ^ e1._value
        if r1.bit_length() > deg1:
            r1 = _cltable_divmod(r1, mults1, tops1)[1]
        k2, r2 = _cltable_divmod(a, mults2, tops2)
        r2 ^= e2._value
        if r2.bit_length() > deg2:
            r2 = _cltable_divmod(r2, mults2, tops2)[1]
        q21 = r1 ^ r2
        # The zero difference has bit length 0, a "degree" of -1: below the
        # bound, as NEG_INF is.  q21 is below deg(m2), so the chain takes it.
        k2_hat = _fold_fused(q21, w, index, level + 1)[1]
        residual = _cltable_mul(k2_hat, mults2) ^ r2 ^ a
        return (
            _branch(q21.bit_length() - 1, deg1, bound), k2_hat == k2,
            residual.bit_length() - 1 if residual else NEG_INF, residual == e2._value,
        )

    return decode


def run_campaign(config: TrialConfig) -> TrialReport:
    """Run the configured number of independent corrupt-then-decode trials.

    The trials are drawn, decoded and judged by :func:`_run_trials`, whose
    outcomes the report keeps and counts.
    """
    trials = _run_trials(config.analysis, config.level, config.tau, f"{config.seed}:", config.trials)
    outcomes = list(trials)
    successes = sum(o.success for o in outcomes)
    max_deg = max((o.residual_deg for o in outcomes), default=NEG_INF)
    branches = [o.branch for o in outcomes]
    counts = {b.value: branches.count(b) for b in Branch}
    return TrialReport(config, outcomes, successes, config.trials - successes, max_deg, counts)


def render_report(report: TrialReport) -> str:
    """Plain-text campaign summary; lists up to ten failing trials."""
    cfg = report.config
    max_deg = _deg_json(report.max_residual_deg)
    lines = [
        f"mode = {'boundary' if cfg.boundary else 'guarantee'}",
        f"trials = {cfg.trials}",
        f"successes = {report.successes}",
        f"failures = {report.failures}",
        f"max residual degree = {'none' if max_deg is None else max_deg}",
        "branch counts: "
        + ", ".join(f"{k}={v}" for k, v in sorted(report.branch_counts.items())),
    ]
    failing = [o for o in report.outcomes if not o.success]
    for outcome in failing[:10]:
        lines.append(
            f"trial {outcome.trial}: a={outcome.a} e1={outcome.e1}"
            f" e2={outcome.e2} branch={outcome.branch.value}"
            f" k2Match={outcome.k2_match}"
            f" residualDeg={_deg_json(outcome.residual_deg)}"
        )
    if len(failing) > 10:
        lines.append(f"... and {len(failing) - 10} more failing trials")
    return "\n".join(lines)

