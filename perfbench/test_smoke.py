"""Smoke tests of the benchmark itself: every workload at smoke scale, with
and without tracing, prints every metric BENCHMARK.json names and checks
every output."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 1):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.2", "--trace", str(trace), "--scale", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    return lines, json.loads(lines[-1])


def digest_of(lines) -> str:
    return next(l.split()[2] for l in lines if l.startswith("engine.search_digest = "))


def check_metrics(result, names_units) -> None:
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    assert set(result["metrics"]) == set(names_units)
    for name, unit in names_units.items():
        assert result["metrics"][name]["unit"] == unit, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed_and_no_failures(workload):
    lines0, untraced = result_of(run(workload, 0))
    check_metrics(untraced, {m["name"]: m["unit"] for m in SPEC["end_to_end"]})
    for m in SPEC["end_to_end"]:
        assert untraced["metrics"][m["name"]]["value"] > 0, m["name"]
    assert any(l.startswith("failed_frac = 0 ") for l in lines0)

    lines1, traced = result_of(run(workload, 1))
    check_metrics(traced, {m["name"]: m["unit"] for m in SPEC["per_layer"]})
    assert digest_of(lines0) == digest_of(lines1)


def test_dpll_operations_never_reach_conflict_or_proofs():
    lines, _ = result_of(run("unguided", 1))
    dpll = next(l for l in lines if l.startswith("kind dpll:"))
    assert " conflict=0s " in dpll and " proofs=0s " in dpll
    cl = next(l for l in lines if l.startswith("kind cl_default:"))
    assert " conflict=0s " not in cl


@pytest.mark.parametrize("workload", WORKLOADS)
def test_full_workloads_have_a_middle_operation(workload):
    """p50 reads one operation's time only if the operation count is odd
    (see workloads.py); the count must not depend on the seed."""
    sys.path.insert(0, str(HERE))
    import run as runner
    import workloads

    c = runner.Clsat(ROOT / "src")
    clock = workloads.SolveClock(c.engine)
    counts = {len(workloads.build(workload, c, seed, "full", clock)) for seed in (1, 2)}
    assert len(counts) == 1 and counts.pop() % 2 == 1


def test_no_result_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "perfbench").mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    for f in HERE.glob("*.py"):
        shutil.copy(f, bare / "perfbench")
    try:
        proc = run("guided", 0, cwd=bare)
        assert proc.returncode != 0
        assert "{" not in proc.stdout
    finally:
        shutil.rmtree(bare)
