"""tools/bench_snapshot.py runs perfbench from a fresh copy of the checkout."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_snapshot  # noqa: E402


def test_the_snapshot_runs_from_a_copy_without_bytecode_caches():
    seen = []

    def runner(tree, *argv):
        seen.append((tree, argv))
        assert tree.resolve() != ROOT and ROOT not in tree.resolve().parents
        run_py = "perfbench/run.py"
        assert (tree / run_py).read_bytes() == (ROOT / run_py).read_bytes()
        assert not any(tree.rglob("__pycache__"))
        trace = int(argv[-1])
        return [
            {
                "workload": name,
                "correct": True,
                "attempted": 10,
                "failed": 0,
                "metrics": {"job_p50_ms": {"value": 50.0 + trace, "unit": "ms"}},
            }
            for name in ("grid", "cli")
        ]

    out = bench_snapshot.snapshot(runner)
    assert [argv for _, argv in seen] == [("--trace", "0"), ("--trace", "1")] * bench_snapshot.RUNS
    assert len({tree for tree, _ in seen}) == 1
    assert not seen[0][0].exists()  # the copy is removed afterwards
    assert out["grid"]["trace1"]["metrics"]["job_p50_ms"]["value"] == 51.0
    assert out["cli"]["trace0"]["attempted"] == 10 * bench_snapshot.RUNS
