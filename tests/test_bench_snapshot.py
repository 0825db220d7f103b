"""tools/bench_snapshot.py runs perfbench from a fresh copy of the checkout."""

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import bench_common  # noqa: E402
import bench_snapshot  # noqa: E402


def _throwaway_checkout(repo: Path) -> Path:
    """A git repository holding perfbench/run.py and a bytecode cache that .gitignore lists."""
    (repo / "perfbench" / "__pycache__").mkdir(parents=True)
    shutil.copy2(ROOT / "perfbench" / "run.py", repo / "perfbench" / "run.py")
    (repo / "perfbench" / "__pycache__" / "run.pyc").write_bytes(b"")
    (repo / ".gitignore").write_text("__pycache__/\n")
    user = ["-c", "user.name=finstoch", "-c", "user.email=finstoch@example.invalid"]
    for argv in (["init", "-q"], ["add", "-A"], [*user, "commit", "-q", "-m", "fixture"]):
        subprocess.run(["git", *argv], cwd=repo, check=True, capture_output=True)
    return repo


def test_the_snapshot_runs_from_a_copy_without_bytecode_caches(tmp_path, monkeypatch):
    # the copy is made from a repository of its own, so the test runs outside a checkout too
    monkeypatch.setattr(bench_common, "ROOT", _throwaway_checkout(tmp_path / "repo"))
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
