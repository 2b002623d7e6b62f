"""The per-metric verdicts of ``tools/bench_pairs.py`` on synthetic runs; no benchmark runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

RATE = {"name": "tasks_per_s", "better": "higher", "bound": 0.25}
LATENCY = {"name": "task_p50_ms", "better": "lower", "bound": 0.25}
PASSED = {"name": "passed_frac", "better": "higher", "bound": 0.05}


def runs(values, name="tasks_per_s"):
    return [{"metrics": {name: v}} for v in values]


def verdict_of(parent, change, metric=RATE):
    name = metric["name"]
    return bench_pairs.summarize(runs(parent, name), runs(change, name), [metric])[name]


PARENT = [10.0, 10.1, 9.9, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0, 10.05]


def test_clear_gain_is_better():
    out = verdict_of(PARENT, [v * 1.3 for v in PARENT])
    assert out["change_wins"] == 10
    assert out["verdict"] == "better"
    assert out["bound"] == 0.25


def test_nine_of_ten_wins_suffice_eight_do_not():
    change = [v * 1.3 for v in PARENT]
    change[0] = 9.0  # one lost pair
    assert verdict_of(PARENT, change)["change_wins"] == 9
    assert verdict_of(PARENT, change)["verdict"] == "better"
    change[1] = 9.0  # a second lost pair: no longer better, and not worse by the bound
    out = verdict_of(PARENT, change)
    assert out["change_wins"] == 8
    assert out["verdict"] == "same"


def test_gain_within_the_parent_spread_is_not_better():
    parent = [8.0, 9.0, 10.0, 11.0, 12.0, 8.5, 9.5, 10.5, 11.5, 10.0]
    change = [v + 0.5 for v in parent]  # wins every pair, moves the median less than the IQR
    out = verdict_of(parent, change)
    assert out["change_wins"] == 10
    assert out["parent"]["q3"] - out["parent"]["q1"] > 0.5
    assert out["verdict"] == "same"


@pytest.mark.parametrize("metric, factor", [(RATE, 0.7), (LATENCY, 1.3)])
def test_median_past_the_bound_is_worse(metric, factor):
    parent = [100.0 + i for i in range(10)]
    out = verdict_of(parent, [v * factor for v in parent], metric)
    assert out["verdict"] == "worse"


@pytest.mark.parametrize("metric, factor", [(RATE, 0.8), (LATENCY, 1.2)])
def test_loss_inside_the_bound_is_same(metric, factor):
    parent = [100.0 + i for i in range(10)]
    assert verdict_of(parent, [v * factor for v in parent], metric)["verdict"] == "same"


def test_lower_latency_is_better():
    parent = [50.0 + i / 10 for i in range(10)]
    assert verdict_of(parent, [v * 0.8 for v in parent], LATENCY)["verdict"] == "better"


def test_parent_spread_wider_than_the_bound_is_unresolved():
    parent = [4.0, 6.0, 10.0, 14.0, 16.0, 5.0, 9.0, 11.0, 15.0, 10.0]
    out = verdict_of(parent, list(parent))
    assert out["verdict"] == "unresolved"


def test_identical_sides_are_same():
    out = verdict_of([1.0] * 10, [1.0] * 10, PASSED)
    assert out["change_wins"] == 0
    assert out["verdict"] == "same"


def test_every_metric_gets_its_own_row():
    parent = [{"metrics": {"tasks_per_s": 10.0 + i / 10, "task_p50_ms": 50.0}} for i in range(10)]
    change = [{"metrics": {"tasks_per_s": 14.0 + i / 10, "task_p50_ms": 80.0}} for i in range(10)]
    out = bench_pairs.summarize(parent, change, [RATE, LATENCY])
    assert out["tasks_per_s"]["verdict"] == "better"
    assert out["task_p50_ms"]["verdict"] == "worse"
    assert out["tasks_per_s"]["parent"]["runs"] == [10.0 + i / 10 for i in range(10)]
