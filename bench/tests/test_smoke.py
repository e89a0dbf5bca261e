"""Smoke self-test of the benchmark harness on tiny shapes.

Runs every workload untraced and traced through ``bench/run.py --smoke`` and
checks the emitted names and units against ``BENCHMARK.json``.  It asserts
nothing about timings.  Run with ``python3 -m pytest bench/tests``.
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(BENCH / "run.py"), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int, seed: int = 3) -> dict:
    done = _run("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                "--trace", str(trace), "--smoke")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_spec_names_are_well_formed():
    names = WORKLOADS + [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.match(name), name
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(BENCH))
    import workloads

    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)
    assert sorted(workloads.SHAPES) == sorted(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_workload_emits_declared_metrics(workload, trace):
    result = _result(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    for value in result["metrics"].values():
        assert isinstance(value["value"], (int, float))


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_the_same_seed(workload):
    counts = []
    for _ in range(2):
        _result(workload, 1, seed=5)
        record = json.loads((BENCH / "results" / f"{workload}_seed5_trace1_smoke.json").read_text())
        assert record["counts_repeat_identical"]
        assert (ROOT / record["spans_file"]).is_file()
        counts.append(record["counts"])
    assert counts[0] == counts[1]


def test_all_runs_every_workload():
    done = _run("--workload", "all", "--seed", "2", "--seconds", "0.2", "--trace", "0", "--smoke")
    assert done.returncode == 0, done.stderr
    for name in WORKLOADS:
        assert f"workload {name} " in done.stdout
    for metric in SPEC["end_to_end"]:
        assert metric["name"] in done.stdout


def test_refuses_without_source_tree():
    bare = BENCH / "results" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for f in BENCH.glob("*.py"):
            shutil.copy(f, bare / "bench" / f.name)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=60,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0
    assert done.stdout == ""
