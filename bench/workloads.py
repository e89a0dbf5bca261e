"""The benchmark's four workloads, their oracles and the timing recorder.

Each workload is driven by one caller in one thread (``run.py``): the next
call starts only after the previous one returns.  Inputs come from the workload seed through the
benchmark's own generator and :mod:`oracle`; polycrt only ever sees the
generated polynomials or CLI text.  Every timed call is checked by an oracle
outside the timed region, and a failed check or an exception is counted as a
failed operation instead of stopping the run.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import polycrt as pc
import polycrt.cli  # noqa: F401  (bound before tracing so its names get wrapped)

import oracle

SRC = Path(pc.__file__).resolve().parent.parent

REF_M1 = "x^8+x^6+x^5+x^3+x^2+1"
REF_M2 = "x^11+x^7+x^3+x^2+x+1"
REF_A = "x^15+x^11+x^7+x^6+x+1"


# The calibration loop takes this long on the reference machine (a 2-vCPU
# x86-64 VM, CPython 3.11.7).  Timings are scaled by CAL_REF_S / (the loop's
# time measured next to them), so they read as reference-machine seconds.
CAL_REF_S = 0.0008
# Calibrations on each side of a sample that its scale factor uses.
CAL_HALF_WINDOW = 2


def calibration_seconds() -> float:
    """Time a fixed pure-Python loop that touches no polycrt code."""
    start = time.perf_counter()
    out = [0] * 64
    for i in range(4000):
        out[i & 63] = (out[(i * 7) & 63] + i * i) % 65521
    tuple(v for v in out if v)
    return time.perf_counter() - start


class Recorder:
    """Timed samples per operation kind, and attempted/failed operations.

    Every sample is preceded by a run of the calibration loop.  The shared
    reference machine switches for seconds to tens of
    seconds at a time between speed states up to 1.6x apart; a sample scaled
    by the median of the calibrations around it is steady across them.
    """

    def __init__(self, tracer=None) -> None:
        self.samples: Dict[str, List[Tuple[float, int]]] = defaultdict(list)
        self.cal: List[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.op_kinds: Dict[int, str] = {}
        self.tracer = tracer

    def calibrate(self) -> int:
        """Run the calibration loop now; returns its index for :meth:`add`."""
        self.cal.append(calibration_seconds())
        return len(self.cal) - 1

    def add(self, kind: str, seconds: float, cal_index: int) -> None:
        self.samples[kind].append((seconds, cal_index))

    def op(self, kind: str, fn: Callable, check: Callable) -> Optional[object]:
        """Time ``fn()``, then check its result outside the timed region.

        Returns the result, or None when the call raised or the check failed.
        """
        cal_index = self.calibrate()
        self.attempted += 1
        op_id = self.attempted
        self.op_kinds[op_id] = kind
        if self.tracer is not None:
            self.tracer.op = op_id
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:  # a failed operation, not a failed run
            self._fail(kind, f"{type(exc).__name__}: {exc}")
            return None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.op = None
        self.add(kind, elapsed, cal_index)
        try:
            ok = check(result)
        except Exception as exc:
            self._fail(kind, f"check raised {type(exc).__name__}: {exc}")
            return None
        if not ok:
            self._fail(kind, "wrong result")
            return None
        return result

    def _fail(self, kind: str, detail: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(f"op {self.attempted} ({kind}): {detail}")

    def scale(self, cal_index: int) -> float:
        window = self.cal[max(0, cal_index - CAL_HALF_WINDOW) : cal_index + CAL_HALF_WINDOW + 1]
        return CAL_REF_S / statistics.median(window)

    def raw(self, kind: str) -> List[float]:
        return [s for s, _ in self.samples.get(kind, ())]

    def scaled(self, kind: str) -> List[float]:
        """Samples of ``kind`` in reference-machine seconds."""
        return [s * self.scale(j) for s, j in self.samples.get(kind, ())]


@dataclass(frozen=True)
class Pair:
    """A generated moduli pair ``m_i = shared * cof_i`` with coprime cofactors."""

    p: int
    shared: Tuple[int, ...]
    cof1: Tuple[int, ...]
    cof2: Tuple[int, ...]
    m1: Tuple[int, ...]
    m2: Tuple[int, ...]


def generate_pair(rng: random.Random, p: int, gcd_deg: int, cof_degs: Sequence[int]) -> Pair:
    def monic(degree: int) -> Tuple[int, ...]:
        return tuple(rng.randrange(p) for _ in range(degree)) + (1,)

    while True:
        shared, cof1, cof2 = monic(gcd_deg), monic(cof_degs[0]), monic(cof_degs[1])
        if oracle.coprime(cof1, cof2, p):
            return Pair(p, shared, cof1, cof2, oracle.mul(shared, cof1, p), oracle.mul(shared, cof2, p))


def check_analysis(an, pair: Pair) -> bool:
    """m*gamma_i == m_i and gamma_inv21*gamma2 == 1 (mod gamma1), rechecked here."""
    p = pair.p
    m, g1, g2, inv = (tuple(x) for x in (an.m, an.gamma1, an.gamma2, an.gamma_inv21))
    return (
        not an.swapped
        and (m, g1, g2) == (pair.shared, pair.cof1, pair.cof2)
        and oracle.mul(m, g1, p) == pair.m1 == tuple(an.m1)
        and oracle.mul(m, g2, p) == pair.m2 == tuple(an.m2)
        and len(inv) < len(g1)
        and oracle.divmod_(oracle.mul(inv, g2, p), g1, p)[1] == (1,)
    )


def round_trip(rec: Recorder, an, pair: Pair, level: int, rng: random.Random) -> None:
    """Encode (timed), corrupt in bound (untimed), reconstruct (timed)."""
    p, field = pair.p, an.field
    spec = an.level_spec(level)
    tau = spec.error_bound_exclusive - 1
    a = oracle.trim(rng.randrange(p) for _ in range(spec.dynamic_range_exclusive))
    e1 = oracle.trim(rng.randrange(p) for _ in range(tau + 1))
    e2 = oracle.trim(rng.randrange(p) for _ in range(tau + 1))
    a_poly = pc.Polynomial(field, a)

    def encode_ok(out) -> bool:
        residues, witness = out
        a1, a2, k1, k2 = (tuple(x) for x in (residues.a1, residues.a2, witness.k1, witness.k2))
        return (
            len(a1) < len(pair.m1)
            and len(a2) < len(pair.m2)
            and oracle.add(oracle.mul(k1, pair.m1, p), a1, p) == a
            and oracle.add(oracle.mul(k2, pair.m2, p), a2, p) == a
        )

    encoded = rec.op("encode", lambda: pc.encode(a_poly, an), encode_ok)
    if encoded is None:
        return
    residues, witness = encoded
    r1 = pc.Polynomial(field, oracle.add(tuple(residues.a1), e1, p))
    r2 = pc.Polynomial(field, oracle.add(tuple(residues.a2), e2, p))
    k2 = tuple(witness.k2)

    def decode_ok(result) -> bool:
        return tuple(result.k2_hat) == k2 and oracle.sub(tuple(result.a_hat), a, p) == e2

    rec.op(
        "reconstruct",
        lambda: pc.reconstruct(pc.ErroneousResiduePair(r1, r2, an), level),
        decode_ok,
    )


class Workload:
    """One workload: set-up, one closed-loop step, and how to read its samples."""

    name = ""
    main_kind = ""
    throughput_kinds: Tuple[str, ...] = ()
    child_rss = False  # the user-visible process is a child, not this one

    def __init__(self, shape: dict, seed: int, inproc: bool = False) -> None:
        self.shape = shape
        self.seed = seed
        self.inproc = inproc

    def setup(self, rec: Recorder) -> None:
        """One repetition of the user's set-up; later ones redo the same work."""

    def step(self, rec: Recorder, i: int) -> int:
        """Run one closed-loop iteration; returns the units of work done."""
        raise NotImplementedError

    def describe(self) -> dict:
        return dict(self.shape)


class CampaignRef(Workload):
    """run_campaign in guarantee mode on the README reference F_2 pair."""

    name = "campaign-ref"
    main_kind = "campaign"
    throughput_kinds = ("campaign",)

    def setup(self, rec: Recorder) -> None:
        field = pc.PrimeField(2)

        def analyze():
            return pc.analyze_pair(pc.parse_polynomial(REF_M1, field), pc.parse_polynomial(REF_M2, field))

        # m = x^2+1, gamma1 = x^6+x^3+1, gamma2 = x^9+x^7+x+1 (README).
        m, g1, g2 = (1, 0, 1), (1, 0, 0, 1, 0, 0, 1), (1, 1, 0, 0, 0, 0, 0, 1, 0, 1)
        ref = Pair(2, m, g1, g2, oracle.mul(m, g1, 2), oracle.mul(m, g2, 2))
        # A wrong analysis is a failed operation; the run goes on with it.
        self.analysis = rec.op("setup", analyze, lambda an: an.K == 3 and check_analysis(an, ref)) or analyze()
        self.levels = list(range(1, self.analysis.K + 2))

    def step(self, rec: Recorder, i: int) -> int:
        an = self.analysis
        level = self.levels[i % len(self.levels)]
        tau = an.level_spec(level).error_bound_exclusive - 1
        trials = self.shape["trials_per_call"]
        seed = random.Random(f"{self.seed}:campaign:{i}").randrange(1 << 32)
        rec.op(
            "campaign",
            lambda: pc.run_campaign(pc.TrialConfig(an, level, tau, trials, seed)),
            lambda rep: rep.failures == 0 and rep.successes == trials,
        )
        return trials

    def describe(self) -> dict:
        return {**self.shape, "p": 2, "m1": REF_M1, "m2": REF_M2, "moduli_degrees": [8, 11],
                "K": 3, "level_mix": "levels 1..K+1 in turn, tau = bound - 1"}


class DecodeP2(Workload):
    """Seeded round trips on one large p = 2 pair, analyzed once in set-up."""

    name = "decode-p2-768"
    main_kind = "reconstruct"
    throughput_kinds = ("encode", "reconstruct")

    def __init__(self, shape: dict, seed: int, inproc: bool = False) -> None:
        super().__init__(shape, seed, inproc)
        self.pair = generate_pair(random.Random(f"{seed}:pair"), shape["p"], shape["gcd_deg"], shape["cof_degs"])
        field = pc.PrimeField(shape["p"])
        self.moduli = pc.Polynomial(field, self.pair.m1), pc.Polynomial(field, self.pair.m2)
        self._order_rng = random.Random(f"{seed}:levels")
        self._order: List[int] = []

    def setup(self, rec: Recorder) -> None:
        m1, m2 = self.moduli
        # A wrong analysis is a failed operation; the run goes on with it.
        self.analysis = (rec.op("setup", lambda: pc.analyze_pair(m1, m2), lambda an: check_analysis(an, self.pair))
                         or pc.analyze_pair(m1, m2))

    def _level(self, i: int) -> int:
        # Uniform over 1..K+1, stratified: every level once per shuffled cycle.
        n = self.analysis.K + 1
        while len(self._order) <= i:
            cycle = list(range(1, n + 1))
            self._order_rng.shuffle(cycle)
            self._order.extend(cycle)
        return self._order[i]

    def step(self, rec: Recorder, i: int) -> int:
        round_trip(rec, self.analysis, self.pair, self._level(i), random.Random(f"{self.seed}:trip:{i}"))
        return 1

    def describe(self) -> dict:
        return {**self.shape, "K": self.analysis.K,
                "level_mix": "uniform over 1..K+1 (shuffled cycles), tau = bound - 1"}


class AnalyzeP65521(Workload):
    """A stream of distinct p = 65521 pairs: analyze each, then one round trip."""

    name = "analyze-p65521"
    main_kind = "analyze"
    throughput_kinds = ("analyze", "encode", "reconstruct")

    def __init__(self, shape: dict, seed: int, inproc: bool = False) -> None:
        super().__init__(shape, seed, inproc)
        self.k_values: List[int] = []

    def setup(self, rec: Recorder) -> None:
        p = self.shape["p"]
        rec.op("setup", lambda: pc.PrimeField(p), lambda f: f.p == p)

    def step(self, rec: Recorder, i: int) -> int:
        s = self.shape
        rng = random.Random(f"{self.seed}:pair:{i}")
        pair = generate_pair(rng, s["p"], s["gcd_deg"], s["cof_degs"])
        field = pc.PrimeField(s["p"])
        m1, m2 = pc.Polynomial(field, pair.m1), pc.Polynomial(field, pair.m2)
        an = rec.op("analyze", lambda: pc.analyze_pair(m1, m2), lambda an: check_analysis(an, pair))
        if an is not None:
            self.k_values.append(an.K)
            round_trip(rec, an, pair, rng.randint(1, an.K + 1), rng)
        return 1

    def describe(self) -> dict:
        ks = self.k_values
        return {**self.shape, "K_range": [min(ks), max(ks)] if ks else None,
                "level_mix": "one uniform level in 1..K+1 per pair, tau = bound - 1"}


def _quickstart(seed: int, trials: int) -> List[Tuple[List[str], List[str]]]:
    """The README quick-start commands with the lines each must print."""
    m = ["--m1", REF_M1, "--m2", REF_M2]
    return [
        (["analyze", *m], ["gcd m = x^2+1", "gamma1 = x^6+x^3+1", "gamma2 = x^9+x^7+x+1",
                           "deg(lcm) = 17", "sigma chain: x^4, x^3+1, x, 1", "K = 3"]),
        (["encode", *m, "--poly", REF_A],
         ["a1 = x^7+x^2+x+1  (mod m1 = x^8+x^6+x^5+x^3+x^2+1)",
          "a2 = x^5+x^4+x+1  (mod m2 = x^11+x^7+x^3+x^2+x+1)", "k2 = x^4"]),
        (["corrupt", "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1", "--tau", "2",
          "--e1", "x^2+x+1", "--e2", "x", "--seed", str(seed)],
         ["corrupted r1 = x^7", "corrupted r2 = x^5+x^4+1"]),
        (["reconstruct", *m, "--r1", "x^7", "--r2", "x^5+x^4+1", "--level", "3"],
         ["k2_hat = x^4", "a_hat = x^15+x^11+x^7+x^6+1"]),
        (["crt", *m, "--r1", "x^7+x^2+x+1", "--r2", "x^5+x^4+x+1"], ["a = x^15+x^11+x^7+x^6+x+1"]),
        (["bound", "--moduli", f"{REF_M1},{REF_M2}"], ["2"]),
        (["simulate", *m, "--level", "3", "--tau", "2", "--trials", str(trials), "--seed", str(seed)],
         [f"trials = {trials}", f"successes = {trials}", "failures = 0"]),
    ]


def _run_inproc(argv: List[str]) -> Tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = polycrt.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
    return code, out.getvalue()


class CliQuickstart(Workload):
    """The README quick-start, each command a fresh ``python -m polycrt``."""

    name = "cli-quickstart"
    main_kind = "cli"
    throughput_kinds = ("cli",)
    child_rss = True

    def __init__(self, shape: dict, seed: int, inproc: bool = False) -> None:
        super().__init__(shape, seed, inproc)
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}

    def _run(self, argv: List[str]) -> Tuple[int, str]:
        if self.inproc:
            return _run_inproc(argv)
        done = subprocess.run(
            [sys.executable, "-m", "polycrt", *argv],
            cwd=SRC.parent, env=self.env, capture_output=True, text=True, timeout=120,
        )
        return done.returncode, done.stdout

    def step(self, rec: Recorder, i: int) -> int:
        seed = random.Random(f"{self.seed}:cli:{i}").randrange(1 << 31)
        commands = _quickstart(seed, self.shape["sim_trials"])
        before = len(rec.samples["cli"])
        for argv, expected in commands:
            rec.op(
                "cli",
                lambda: self._run(argv),
                lambda res: res[0] == 0 and set(expected) <= set(res[1].splitlines()),
            )
        # The whole quick-start, scaled by the calibration of its middle command.
        done = rec.samples["cli"][before:]
        if done:
            rec.add("sequence", sum(t for t, _ in done), done[len(done) // 2][1])
        return len(commands)

    def describe(self) -> dict:
        return {**self.shape, "commands": [c[0][0] for c in _quickstart(0, 0)],
                "mode": "in-process cli.main" if self.inproc else "one python -m polycrt subprocess per command"}


WORKLOADS = {w.name: w for w in (CampaignRef, DecodeP2, AnalyzeP65521, CliQuickstart)}

# Full shapes are the benchmark; smoke shapes exercise the same code in seconds.
SHAPES = {
    "campaign-ref": {
        "full": {"trials_per_call": 200, "setup_reps": 5, "min_samples": 110, "trace_steps": 4},
        "smoke": {"trials_per_call": 10, "setup_reps": 2, "min_samples": 4, "trace_steps": 4},
    },
    "decode-p2-768": {
        "full": {"p": 2, "gcd_deg": 256, "cof_degs": [512, 513], "setup_reps": 3,
                 "min_samples": 110, "trace_steps": 12},
        "smoke": {"p": 2, "gcd_deg": 6, "cof_degs": [12, 13], "setup_reps": 2,
                  "min_samples": 4, "trace_steps": 4},
    },
    "analyze-p65521": {
        "full": {"p": 65521, "gcd_deg": 64, "cof_degs": [128, 129], "setup_reps": 5,
                 "min_samples": 110, "trace_steps": 6},
        "smoke": {"p": 65521, "gcd_deg": 3, "cof_degs": [6, 7], "setup_reps": 2,
                  "min_samples": 4, "trace_steps": 3},
    },
    "cli-quickstart": {
        "full": {"sim_trials": 2000, "setup_reps": 0, "min_samples": 110, "trace_steps": 1},
        "smoke": {"sim_trials": 10, "setup_reps": 0, "min_samples": 7, "trace_steps": 1},
    },
}


_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import polycrt\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time of ``import polycrt`` inside a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        cwd=SRC.parent, capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def median_ms(values: Sequence[float]) -> float:
    return statistics.median(values) * 1e3


def p90_ms(values: Sequence[float]) -> float:
    if len(values) < 2:
        return values[0] * 1e3
    return statistics.quantiles(values, n=10)[8] * 1e3
