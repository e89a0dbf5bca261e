"""Randomized corrupt-then-decode campaigns for the robust decoder.

Campaigns draw a message and per-residue errors inside a level's bounds,
corrupt the encoded residues, decode, and record whether the folding
polynomial was recovered exactly.  Inside the bounds this must never fail;
`run_campaign` is the executable form of that guarantee.

Every trial runs through :func:`_run_trials`, which draws, encodes, decodes
and judges it in one place, for every field.  It works on stored values
from the draw to the verdict, the packed int over F_2 and the coefficient
tuple over odd p, whose formats the kernel modules :mod:`polycrt.gf2` and
:mod:`polycrt.kronecker` own, with the decode core of :mod:`polycrt.crt`
that ``encode`` and :func:`~polycrt.decoder.reconstruct` wrap; no
polynomial is built.  The draws are read into those formats directly, by
the reader of :func:`_stream_draws`: odd-p words through ``kronecker``'s
slot layout, which the reader imports when it is set up, so an F_2
campaign never loads the odd-p kernels.  The core, the reader and the
branch lookup (:func:`_branches`) are set up once per campaign, so a trial
at p = 2 reads one SHAKE-256 digest, masks it into its draws, and decodes.

A campaign streams: :func:`run_campaign` folds each trial into the
report's counters and keeps only the indices of failing trials, so its
memory does not grow with the trial count in guarantee mode.  A
:class:`TrialOutcome` is built only when it is read: ``report.outcomes``
replays trials on demand, and the failure details replay the failing ones.

Determinism contract: trial ``idx`` of a campaign seeded ``seed`` draws from
the SHAKE-256 stream of ``f"{seed}:{idx}"`` (:func:`_stream_draws`), and the
report aggregation is order-independent, so a campaign's report is
byte-for-byte reproducible however trials are scheduled, and any trial
replays alone.  The public samplers draw from a caller-owned
``random.Random`` (:func:`_draw`).
"""

from __future__ import annotations

import random
from collections.abc import Callable, Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import cache
from operator import eq

try:
    # hashlib would load OpenSSL; like random's sha512, prefer the builtin module.
    from _sha3 import shake_256
except ImportError:
    from hashlib import shake_256

from .crt import _arithmetic, _decoder, _divisions
from .decoder import Branch, _branch
from .errors import PolyCrtError
from .field import PrimeField
from .gf2 import _pack2
from .levels import ModuliPairAnalysis, analyze_pair
from .poly import NEG_INF, Degree, Polynomial, _from_bits, _from_reduced, gcd


def _draw(count: int, field: PrimeField, rng: random.Random, top: tuple[int, ...] = ()) -> Polynomial:
    """``count`` coefficients drawn as ``rng.randrange(p)`` draws them, then ``top``.

    CPython implements ``randrange(p)`` for ``random.Random`` as
    ``getrandbits(p.bit_length())`` redrawn while ``>= p``; this loop does
    the same, so it draws the same values and leaves ``rng`` in the same
    state, without two Python frames per coefficient
    (``TestSamplingStream.test_samplers_match_randrange`` checks this on
    each interpreter the tests run on).  The values are reduced already,
    so the polynomial skips the constructor's ``% p``.
    It serves the public samplers, whose caller may read ``rng`` on;
    campaign trials read a stream of their own (:func:`_stream_draws`).
    """
    p = field.p
    k = p.bit_length()
    getrandbits = rng.getrandbits
    vals = []
    for _ in range(count):
        r = getrandbits(k)
        while r >= p:
            r = getrandbits(k)
        vals.append(r)
    vals += top
    return _from_bits(field, _pack2(vals)) if p == 2 else _from_reduced(field, vals)


def _stream_draws(counts: tuple[int, int, int], field: PrimeField) -> Callable[[str], tuple]:
    """The reader of a campaign's trials: ``draw(key) -> (a, e1, e2)``, of ``counts`` uniform coefficients each.

    ``draw`` reads the SHAKE-256 stream S of ``key``.  At p = 2, draw j is
    bit j of ``int.from_bytes(S[:ceil(n / 8)], "little")`` for n draws in
    all.  At odd p, each candidate is the next w-byte little-endian word of
    S masked to ``k = (p - 1).bit_length()`` bits, w the smallest of 1, 2, 4
    and 8 bytes that holds them: the slot layout of
    :func:`~polycrt.kronecker._slot_layout`, whose
    :func:`~polycrt.kronecker._unpack` reads the words little-endian on every
    host.  The candidates below p are the draws.  A short read is topped up
    by a longer one, which extends it.  The values are a polynomial's
    (:class:`~polycrt.poly.Polynomial`): the packed int at p = 2 and the
    tuple without trailing zeros at odd p.  What depends only on the counts
    and p, the read sizes, masks and slots, is worked out here, once.
    """
    p, (c0, c1, c2) = field.p, counts
    n, c01 = c0 + c1 + c2, c0 + c1
    if p == 2:
        size, mask0, mask1, mask2 = n + 7 >> 3, ~(-1 << c0), ~(-1 << c1), ~(-1 << c2)

        def draw(key: str) -> tuple:
            bits = int.from_bytes(shake_256(key.encode()).digest(size), "little")
            return bits & mask0, bits >> c0 & mask1, bits >> c01 & mask2

        return draw
    from .kronecker import _slot_layout, _strip, _unpack

    k = (p - 1).bit_length()
    width, code = _slot_layout(k)
    lanes = ((1 << k) - 1).to_bytes(width, "little")

    def plan(need: int) -> tuple[int, int]:
        """The words to read for ``need`` more draws, and their lane mask."""
        # Expected rejections at acceptance p / 2**k, two standard deviations and a word.
        rejects = need * ((1 << k) - p) / p
        more = need + int(rejects + 2 * (rejects * (1 << k) / p) ** 0.5) + 1
        return more, int.from_bytes(lanes * more, "little")

    first = plan(n)

    def draw(key: str) -> tuple:
        stream = shake_256(key.encode())
        vals, words = [], 0
        while len(vals) < n:
            more, mask = plan(n - len(vals)) if words else first
            read = stream.digest((words + more) * width)[words * width:]
            words += more
            # Masked all at once, then split into words by one struct call.
            masked = int.from_bytes(read, "little") & mask
            vals += [v for v in _unpack(masked, more, width, code) if v < p]
        return tuple(_strip(vals[:c0])), tuple(_strip(vals[c0:c01])), tuple(_strip(vals[c01:n]))

    return draw


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
    return _draw(max_deg_exclusive, field, rng)


def sample_error(tau: int, field: PrimeField, rng: random.Random) -> Polynomial:
    """Uniform residue error of degree at most ``tau`` (``-1`` forces zero)."""
    if tau < -1:
        raise ValueError("tau must be >= -1")
    return _draw(tau + 1, field, rng)


def sample_monic(degree: int, field: PrimeField, rng: random.Random) -> Polynomial:
    """Uniform monic polynomial of exactly the given degree."""
    if degree < 0:
        raise ValueError("degree must be >= 0")
    return _draw(degree, field, rng, (1,))


# Draws of a gcd and two cofactors before random_moduli_pair gives up.
_MAX_COPRIME_ATTEMPTS = 200


def random_moduli_pair(
    field: PrimeField,
    rng: random.Random,
    gcd_degree: tuple[int, int] = (1, 3),
    cofactor_degree: tuple[int, int] = (1, 4),
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
    """Aggregate campaign results, and the indices of the failing trials.

    A report stores its counters and one int per failing trial, none in a
    campaign without failures; it stores no trial.  ``successes`` and
    ``failures`` are counted off ``failed_trials`` on read, and ``outcomes``
    replays the trials from the config when it is read (:class:`_Outcomes`).
    """

    config: TrialConfig
    max_residual_deg: Degree
    branch_counts: dict
    failed_trials: list[int]

    @property
    def successes(self) -> int:
        return self.config.trials - len(self.failed_trials)

    @property
    def failures(self) -> int:
        return len(self.failed_trials)

    @property
    def outcomes(self) -> _Outcomes:
        """Every trial's :class:`TrialOutcome`, in trial order, replayed on read."""
        return _Outcomes(self.config)

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "successes": self.successes,
            "failures": self.failures,
            "maxErrDeg": _deg_json(self.max_residual_deg),
            "branchCounts": dict(sorted(self.branch_counts.items())),
            # The decoder cannot fail (see _run_trials); kept for a stable format.
            "decodeErrors": 0,
            "failureDetails": [o.to_json() for o in _replay(self.config, self.failed_trials)],
        }


class _Outcomes(Sequence):
    """The outcomes of a campaign's trials, a read-only sequence that replays each trial it is asked for.

    ``len()`` replays nothing, an index replays one trial and iteration
    streams them.  It equals a list of the same outcomes.
    """

    __slots__ = ("_config",)

    def __init__(self, config: TrialConfig) -> None:
        self._config = config

    def __len__(self) -> int:
        return self._config.trials

    def __getitem__(self, i: int | slice) -> TrialOutcome | list[TrialOutcome]:
        picked = range(self._config.trials)[i]
        if isinstance(picked, range):
            return list(_replay(self._config, picked))
        return next(_replay(self._config, (picked,)))

    def __iter__(self) -> Iterator[TrialOutcome]:
        return _replay(self._config, range(self._config.trials))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (list, _Outcomes)):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))


def _deg_json(deg: Degree) -> int | None:
    return None if deg == NEG_INF else int(deg)


def _branches(analysis: ModuliPairAnalysis, level: int) -> Callable[[int], Branch]:
    """The branch at ``level`` of a difference by its length, in bits or coefficients.

    Each length's branch is :func:`~polycrt.decoder._branch`'s, worked out on
    its first lookup and kept, so a campaign pays one call per length that
    occurs.  A table of every length, built up front, would pay one per
    length up to the larger modulus degree: at degree 12,288 that is more
    than a 10-trial campaign at level 1 takes there (2.0 against 0.78 ms,
    CPython 3.11 on 2 vCPUs).
    """
    deg1, bound = analysis.m1.degree, analysis.level_spec(level).error_bound_exclusive
    # The zero difference has length 0, a "degree" of -1: below the bound,
    # as NEG_INF is.
    return cache(lambda length: _branch(length - 1, deg1, bound))


def _run_trials(
    analysis: ModuliPairAnalysis, level: int, tau: int, prefix: str, trials: Iterable[int]
) -> Iterator[tuple]:
    """Each trial of ``trials``, keyed ``f"{prefix}{trial}"``: draw, corrupt, decode, judge.

    A trial draws ``a``, then ``e1``, then ``e2`` from the stream of its key;
    the draw order is part of the determinism contract (:func:`_stream_draws`).
    It encodes, corrupts and decodes on stored values, each division and the
    decode one call of a field kernel as the decode core of
    :mod:`polycrt.crt` binds it, and looks its branch up by the length of
    its difference (:func:`_branches`).  The core, the reader of the draws and
    the branch lookup are set up once for all the trials, before the first.
    Each trial yields one tuple in the field order of :class:`TrialOutcome`,
    with stored values for ``a``, ``e1`` and ``e2`` (:func:`_outcome`).  A
    trial succeeds when the folding polynomial is recovered exactly and the
    residual ``a_hat - a`` has degree at most ``tau``; this is the only place
    that rule is applied.  Nothing here raises once ``level`` is valid, which
    ``level_spec`` checks first, for any ``tau >= -1``: ``r1`` and ``r2`` are
    reduced mod ``m1`` and ``m2`` before they are decoded.
    """
    field = analysis.field
    spec = analysis.level_spec(level)
    counts = (spec.dynamic_range_exclusive, tau + 1, tau + 1)
    div1, div2 = _divisions(analysis)
    add, sub, length = _arithmetic(field)
    decode = _decoder(analysis, level)
    draw = _stream_draws(counts, field)
    branch_of = _branches(analysis, level)
    # r1 = (a + e1) mod m1 takes one division.  r2 starts from a's own
    # division by m2, which gives k2; a residue plus an error of degree below
    # deg(m2) is already reduced, so only boundary mode at tau >= deg(m2)
    # divides again.
    wrap2 = tau >= analysis.m2.degree
    for trial in trials:
        a, e1, e2 = draw(f"{prefix}{trial}")
        r1 = div1(add(a, e1))[1]
        k2, r2 = div2(a)
        r2 = add(r2, e2)
        if wrap2:
            r2 = div2(r2)[1]
        q21, _, k2_hat, a_hat = decode(r1, r2)
        branch = branch_of(length(q21))
        residual = sub(a_hat, a)
        n = length(residual)
        residual_deg = n - 1 if n else NEG_INF
        k2_match = k2_hat == k2
        # k2 recovered does not imply residual == e2: in boundary mode with
        # tau >= deg(m2), r2 is reduced.
        yield (
            trial, a, e1, e2, branch, k2_match, residual_deg, residual == e2,
            k2_match and residual_deg <= tau,
        )


def _outcome(field: PrimeField, row: tuple) -> TrialOutcome:
    """The :class:`TrialOutcome` of a row of :func:`_run_trials`."""
    trial, a, e1, e2, *verdict = row
    return TrialOutcome(trial, _from_bits(field, a), _from_bits(field, e1), _from_bits(field, e2), *verdict)


def _replay(config: TrialConfig, trials: Sequence[int]) -> Iterator[TrialOutcome]:
    """The outcomes of the campaign's trials ``trials``, each run again from its key.

    Without trials nothing is set up, so the report of a campaign that
    failed no trial replays none at no cost.
    """
    if not trials:
        return iter(())
    field = config.analysis.field
    rows = _run_trials(config.analysis, config.level, config.tau, f"{config.seed}:", trials)
    return (_outcome(field, row) for row in rows)


def run_campaign(config: TrialConfig) -> TrialReport:
    """Run the configured number of independent corrupt-then-decode trials.

    The trials are drawn, decoded and judged by :func:`_run_trials`; each
    is folded into the report's counters as it comes, and only the indices
    of failing trials are kept.
    """
    counts = {b.value: 0 for b in Branch}
    max_deg, failed = NEG_INF, []
    rows = _run_trials(config.analysis, config.level, config.tau, f"{config.seed}:", range(config.trials))
    for trial, _, _, _, branch, _, residual_deg, _, success in rows:
        # _value_ is what .value reads; hashing the member would run Python code.
        counts[branch._value_] += 1
        if residual_deg > max_deg:
            max_deg = residual_deg
        if not success:
            failed.append(trial)
    return TrialReport(config, max_deg, counts, failed)


def render_report(report: TrialReport) -> str:
    """Plain-text campaign summary; lists up to ten failing trials, replayed."""
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
    failing = report.failed_trials
    for outcome in _replay(cfg, failing[:10]):
        lines.append(
            f"trial {outcome.trial}: a={outcome.a} e1={outcome.e1}"
            f" e2={outcome.e2} branch={outcome.branch.value}"
            f" k2Match={outcome.k2_match}"
            f" residualDeg={_deg_json(outcome.residual_deg)}"
        )
    if len(failing) > 10:
        lines.append(f"... and {len(failing) - 10} more failing trials")
    return "\n".join(lines)
