"""polycrt benchmark: end-to-end metrics per workload, per-layer metrics traced.

Usage (from the repository root)::

    python3 bench/run.py --workload decode-p2-768 --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20 --trace 0

``--trace 0`` runs the closed loop for ``--seconds`` (longer if the main
operation has fewer than ``min_samples`` samples, so that ten lie beyond
its p90) and reports the end-to-end metrics.  ``--trace 1`` runs a fixed,
seeded list of operations three times (untraced, traced, traced again),
reports the per-layer metrics of the first traced pass and checks that the
second traced pass repeats every count exactly.  The last line of standard
output is a JSON object ``{"correct", "attempted", "failed", "metrics"}``;
a fuller record, and for traced runs the raw spans, go to ``bench/results``.

The benchmark imports polycrt from ``src/`` of the checkout it sits in, and
exits with status 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

# The loop never measures longer than this, whatever --seconds asks.
HARD_CAP_S = 120.0
# Fresh-interpreter import timings per run, spread over the run.
IMPORT_REPS = 5


def _peak_rss_mib(child: bool) -> float:
    who = resource.RUSAGE_CHILDREN if child else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def _timings(rec) -> dict:
    """p50/p90 per operation kind, scaled and raw, with sample counts."""
    out = {}
    for kind in sorted(rec.samples):
        scaled, raw = rec.scaled(kind), rec.raw(kind)
        if scaled:
            out[kind] = {"samples": len(scaled), "p50_ms": W.median_ms(scaled), "p90_ms": W.p90_ms(scaled),
                         "raw_p50_ms": W.median_ms(raw), "raw_p90_ms": W.p90_ms(raw)}
    return out


def _calibration(rec) -> dict:
    return {"reference_s": W.CAL_REF_S, "samples": len(rec.cal),
            "median_s": statistics.median(rec.cal), "min_s": min(rec.cal), "max_s": max(rec.cal)}


def _import_probe(rec) -> None:
    cal_index = rec.calibrate()
    rec.add("import", W.import_seconds(), cal_index)


def run_timed(wl, seconds: float) -> dict:
    """Closed loop for the end-to-end metrics; tracing off.

    Set-up repetitions and import probes are spread evenly over the run, so
    their medians see the same machine as the operations do.
    """
    rec = W.Recorder()
    W.import_seconds()  # may compile bytecode; not counted
    wl.setup(rec)
    reps = wl.shape["setup_reps"]
    due = sorted([(k * seconds / IMPORT_REPS, _import_probe) for k in range(IMPORT_REPS)]
                 + [(k * seconds / reps, wl.setup) for k in range(1, reps)], key=lambda d: d[0])
    units, i = 0, 0
    start = time.perf_counter()
    while True:
        while due and due[0][0] <= time.perf_counter() - start:
            due.pop(0)[1](rec)
        units += wl.step(rec, i)
        i += 1
        elapsed = time.perf_counter() - start
        enough = len(rec.samples[wl.main_kind]) >= wl.shape["min_samples"] or rec.failed
        if elapsed >= HARD_CAP_S or (elapsed >= seconds and enough):
            break
    for _, action in due:
        action(rec)
    setup = rec.scaled("setup")
    setup_s = statistics.median(rec.scaled("import")) + (statistics.median(setup) if setup else 0.0)
    main = rec.scaled(wl.main_kind)
    busy = sum(sum(rec.scaled(k)) for k in wl.throughput_kinds)
    metrics = {
        "setup_s": (setup_s, "s", len(rec.samples["import"])),
        "peak_rss_mib": (_peak_rss_mib(wl.child_rss), "MiB", 1),
        "throughput_per_s": (units / busy if busy else 0.0, "1/s", units),
        "main_op_p50_ms": (W.median_ms(main) if main else 0.0, "ms", len(main)),
        "main_op_p90_ms": (W.p90_ms(main) if main else 0.0, "ms", len(main)),
    }
    return {
        "rec": rec,
        "metrics": metrics,
        "detail": {"loop_s": elapsed, "steps": i, "timings": _timings(rec), "calibration": _calibration(rec)},
    }


def _fixed_pass(name: str, shape: dict, seed: int, tracer=None):
    wl = W.WORKLOADS[name](shape, seed, inproc=True)
    rec = W.Recorder(tracer)
    wl.setup(rec)
    for i in range(shape["trace_steps"]):
        wl.step(rec, i)
    return wl, rec


def _scaled_total(rec) -> float:
    return sum(sum(rec.scaled(kind)) for kind in rec.samples)


def run_traced(name: str, shape: dict, seed: int) -> dict:
    """Per-layer metrics from a fixed op list, traced against untraced."""
    import tracing as T

    _, plain = _fixed_pass(name, shape, seed)
    passes = []
    for _ in range(2):
        tracer = T.install(T.Tracer())
        try:
            wl, rec = _fixed_pass(name, shape, seed, tracer)
        finally:
            T.uninstall(tracer)
        passes.append((wl, rec, tracer))
    wl, rec, tracer = passes[0]
    counts_a, counts_b = tracer.exact_counts(), passes[1][2].exact_counts()
    repeat_ok = counts_a == counts_b
    # Self times are scaled like the end-to-end timings, by the pass's median calibration.
    scale = W.CAL_REF_S / statistics.median(rec.cal)
    layer = {k: v * scale if T.unit(k) == "ms" else v for k, v in tracer.layer_metrics().items()}
    probe = W.Recorder()
    for _ in range(IMPORT_REPS):
        _import_probe(probe)
    layer["cli.import_ms"] = W.median_ms(probe.scaled("import"))
    layer["trace.overhead_frac"] = _scaled_total(rec) / _scaled_total(plain) - 1.0
    return {
        "wl": wl,
        "recs": [plain, rec, passes[1][1]],
        "metrics": {k: (v, T.unit(k), None) for k, v in layer.items()},
        "repeat_ok": repeat_ok,
        "tracer": tracer,
        "detail": {
            "counts": counts_a,
            "counts_repeat": counts_b,
            "counts_repeat_identical": repeat_ok,
            "untraced_scaled_s": _scaled_total(plain),
            "traced_scaled_s": _scaled_total(rec),
            "timings_traced": _timings(rec),
            "calibration": _calibration(rec),
        },
    }


def _write_spans(path: Path, tracer, rec) -> None:
    with path.open("w") as out:
        out.write(json.dumps({"fields": ["id", "name", "start_ns", "end_ns", "parent", "op"],
                              "ops": rec.op_kinds}) + "\n")
        for i, span in enumerate(tracer.spans):
            out.write(json.dumps([i, *span]) + "\n")


def _pin_to_one_cpu() -> None:
    """Keep this process and its children on one vCPU.

    The calibration loop then runs where the timed work, CLI children
    included, runs, so its speed state is the one the timings saw.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def run_one(args) -> int:
    shape = W.SHAPES[args.workload]["smoke" if args.smoke else "full"]
    _pin_to_one_cpu()
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    if args.trace:
        out = run_traced(args.workload, shape, args.seed)
        wl, recs = out["wl"], out["recs"]
        attempted = sum(r.attempted for r in recs) + 1
        failed = sum(r.failed for r in recs) + (0 if out["repeat_ok"] else 1)
    else:
        wl = W.WORKLOADS[args.workload](shape, args.seed)
        out = run_timed(wl, args.seconds)
        recs = [out["rec"]]
        attempted, failed = recs[0].attempted, recs[0].failed
    metrics = out["metrics"]
    correct = failed == 0
    stem = f"{args.workload}_seed{args.seed}_trace{args.trace}{'_smoke' if args.smoke else ''}"
    RESULTS.mkdir(exist_ok=True)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": wl.describe(),
        "load": "closed loop, 1 caller, single process and thread",
        "environment": env,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ops_frac": failed / attempted,
        "failures": [f for r in recs for f in r.failures],
        "metrics": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in metrics.items()},
        **out["detail"],
    }
    if args.trace:
        spans = RESULTS / f"{stem}.spans.jsonl"
        _write_spans(spans, out["tracer"], recs[1])
        record["spans_file"] = str(spans.relative_to(ROOT))
    (RESULTS / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}"
          f" (python {env['python']}, nproc {env['nproc']})")
    for k, (v, u, n) in metrics.items():
        print(f"  {k:36s} {v:14.4f} {u:6s}" + (f" n={n}" if n is not None else ""))
    print(f"  {'failed_ops_frac':36s} {failed / attempted:14.4f} {'frac':6s} n={attempted}")
    for kind, t in record.get("timings", record.get("timings_traced", {})).items():
        print(f"  op {kind:11s} p50 {t['p50_ms']:10.3f} ms  p90 {t['p90_ms']:10.3f} ms  n={t['samples']}"
              f"  (unscaled p50 {t['raw_p50_ms']:.3f} ms)")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, n) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    ok = True
    for name in W.WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.smoke:
            cmd.append("--smoke")
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.splitlines()
        sys.stdout.write("".join(line + "\n" for line in lines[:-1]))
        sys.stderr.write(done.stderr)
        ok = ok and done.returncode == 0 and bool(lines) and json.loads(lines[-1])["correct"]
    print("all workloads correct" if ok else "SOME WORKLOADS FAILED")
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true", help="tiny shapes, for the self-test")
    args = parser.parse_args()
    if not (SRC / "polycrt" / "__init__.py").is_file():
        print(f"error: no polycrt source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    global W
    import workloads as W

    if not Path(W.pc.__file__).resolve().is_relative_to(SRC):
        print(f"error: polycrt imported from {W.pc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(W.WORKLOADS)} or all")
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
