"""Smoke test of the benchmark: every workload at minimal size, both modes.

Run from the repository root with ``python -m pytest bench/test_smoke.py``.
"""

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import tracer  # noqa: E402

END_TO_END = {"tasks_per_s", "task_p50_ms", "task_tail_ms", "setup_s", "peak_rss_mb", "passed_frac"}
WORKLOADS = ("identities", "ledger", "grid")


@functools.cache
def run(workload, trace):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "0",
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_failed_tasks(workload):
    record, result = run(workload, 0)
    assert result["failed"] == 0
    assert record["end_to_end"]["failed_frac"]["value"] == 0


# decide leaves diag(h, -h) vs diag(-h, h) at unknown: the constant-multiplier
# search converges to X = -Y, which solves X H Y* = H' but is no conjugation
@pytest.mark.xfail(strict=True, reason="constant_multiplier_search misses sign-swapped diagonal pairs")
@pytest.mark.parametrize("trace", [0, 1])
def test_sign_swapped_pair_decided(trace):
    record, result = run("grid", trace)
    gap = record["known_gaps"]["sign_swapped_pair"]
    assert gap["verdict"] != "inequivalent" and result["correct"] is True
    assert gap["verdict"] == gap["expected"] == "equivalent"


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    record, result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert set(result["metrics"]) == END_TO_END
    assert result["correct"] is True and result["attempted"] >= 1
    assert set(record["end_to_end"]) == END_TO_END | {"failed_frac"}
    # only undecided verdicts may fail a task without making the run incorrect
    assert all("undecided: " in message for message in record["failures"])
    for metric in result["metrics"].values():
        assert metric["value"] > 0 and metric["unit"]
    assert {"python", "numpy", "nproc", "git_sha"} <= set(record["machine"])
    assert record["src_lines"]["total"] > 0
    # latencies are each pool task's median run; every task ran at least twice
    assert record["tail"]["samples"] == record["pool_tasks"]
    assert record["runs_per_task"][0] >= 2


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_metrics(workload):
    record, result = run(workload, 1)
    assert set(result["metrics"]) == set(tracer.PER_LAYER)
    assert result["correct"] is True
    assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
    assert result["metrics"]["jsonio.bytes"]["value"] > 0
    spans = np.load(ROOT / record["spans_file"])
    assert len(spans["start"]) == min(record["spans_recorded"], tracer.MAX_SPANS)
    # self time: a span's duration minus what its children cover
    duration = spans["end"] - spans["start"]
    children = np.zeros_like(duration)
    has_parent = spans["parent"] >= 0
    np.add.at(children, spans["parent"][has_parent], duration[has_parent])
    own = duration - children
    assert (own > -1e-6).all()
    assert own.sum() == pytest.approx(duration[~has_parent].sum(), rel=1e-6)


def test_tail_leaves_ten_samples():
    import run as bench_run

    info = bench_run.tail([float(i) for i in range(150)])
    assert info["value_s"] == 139.0 and info["beyond"] == 10
    assert info["percentile"] == pytest.approx(100 * 139 / 149)
    assert bench_run.tail([1.0] * 5)["percentile"] == 50


def test_refuses_without_sources():
    # a directory holding the benchmark alone, without the program's sources
    bare = BENCH / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    (bare / "bench").mkdir(parents=True)
    try:
        for path in BENCH.glob("*.py"):
            shutil.copy(path, bare / "bench" / path.name)
        done = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "grid", "--seed", "0",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=60, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert done.returncode != 0 and done.stdout == ""
