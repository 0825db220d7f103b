"""tools/bench_compare.py pairs runs, flips their order and counts wins."""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_compare  # noqa: E402

TREES = {"base": Path("base-tree"), "change": Path("change-tree")}


class FakeRunner:
    """Records each call; the change is 10 ms faster except on the pairs listed."""

    def __init__(self, slower_pairs=()):
        self.calls = []
        self.slower_pairs = set(slower_pairs)

    def __call__(self, tree, workload, seed):
        self.calls.append((tree.name, workload, seed))
        pair = (len(self.calls) - 1) // 2
        p50 = 60.0 + pair % 3  # base quartiles 60-62
        if tree == TREES["change"]:
            p50 += 5.0 if pair in self.slower_pairs else -10.0
        metrics = {"setup_s": 0.4, "jobs_per_s": 1000.0 / p50, "job_p50_ms": p50, "peak_rss_mb": 48.0}
        return {
            "correct": True,
            "attempted": 10,
            "failed": 0,
            "metrics": {k: {"value": v, "unit": ""} for k, v in metrics.items()},
        }


def test_pairs_alternate_which_tree_runs_first_and_cycle_the_seeds():
    runner = FakeRunner()
    out = bench_compare.compare(TREES, ["grid"], [1, 17], 4, runner)
    trees = [c[0] for c in runner.calls]
    assert trees == ["base-tree", "change-tree", "change-tree", "base-tree"] * 2
    assert [c[2] for c in runner.calls] == [1, 1, 17, 17, 1, 1, 17, 17]
    assert {c[1] for c in runner.calls} == {"grid"}
    pairs = out["grid"]["pairs"]
    assert [p["seed"] for p in pairs] == [1, 17, 1, 17]
    assert [p["first"] for p in pairs] == ["base", "change", "base", "change"]
    assert [p["change"]["job_p50_ms"] - p["base"]["job_p50_ms"] for p in pairs] == [-10.0] * 4


def test_wins_follow_each_metrics_direction():
    out = bench_compare.compare(TREES, ["grid"], [1], 10, FakeRunner(slower_pairs={3}))
    metrics = out["grid"]["metrics"]
    assert metrics["job_p50_ms"]["wins"] == 9  # lower is better
    assert metrics["jobs_per_s"]["wins"] == 9  # higher is better
    assert metrics["setup_s"]["wins"] == metrics["peak_rss_mb"]["wins"] == 0  # ties win nothing
    base = metrics["job_p50_ms"]["base"]
    assert (base["q1"], base["median"], base["q3"]) == (60.0, 61.0, 61.75)
    assert base["iqr"] == pytest.approx(1.75)
    assert metrics["job_p50_ms"]["gain"] and metrics["jobs_per_s"]["gain"]
    assert not metrics["setup_s"]["gain"]


def test_eight_wins_in_ten_is_no_gain():
    out = bench_compare.compare(TREES, ["grid"], [1], 10, FakeRunner(slower_pairs={3, 7}))
    assert out["grid"]["metrics"]["job_p50_ms"]["wins"] == 8
    assert not out["grid"]["metrics"]["job_p50_ms"]["gain"]


def test_a_run_that_fails_its_oracle_check_writes_nothing():
    def failing(tree, workload, seed):
        run = FakeRunner()(tree, workload, seed)
        return {**run, "correct": tree == TREES["base"]}

    with pytest.raises(SystemExit, match="change run failed"):
        bench_compare.compare(TREES, ["grid"], [1], 2, failing)


def test_the_run_length_recorded_is_the_one_the_benchmark_declares():
    # pairs run at perfbench's default length, which must be BENCHMARK.json's
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert bench_compare.default_seconds(ROOT) == spec["run_seconds"]
