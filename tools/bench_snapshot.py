"""Write a benchmark snapshot of this checkout to bench/BENCH_<N>.json.

    python3 tools/bench_snapshot.py 7

Copies this checkout into a temporary directory (uncommitted changes
included, files that .gitignore lists left out), so bytecode cached in
the checkout does not move ``setup_s`` or ``peak_rss_mb``, and runs
``perfbench/run.py`` from the copy over every workload three times with
``--trace 0`` (end-to-end metrics) and three times with ``--trace 1``
(per-layer metrics), alternating the two, at the harness's default seed
and run length.  For each workload and trace setting the file gives the
median of each metric over the three runs, ``correct`` when every run
was correct, ``attempted`` and ``failed`` summed over the runs, and
under ``runs`` the three JSON lines themselves.  It also records the
commit (``git describe --dirty``), the Python version and the numpy
version.  Nothing is written when a run fails or a workload's output
fails its oracle check.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable

from bench_common import copy_checkout, git, run_perfbench, write_doc

RUNS = 3


def summarize(runs: list[dict]) -> dict:
    """Median of each metric over the runs of one workload, with the runs kept."""
    return {
        "correct": all(r["correct"] for r in runs),
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {
            name: {
                "value": statistics.median(r["metrics"][name]["value"] for r in runs),
                "unit": metric["unit"],
            }
            for name, metric in runs[0]["metrics"].items()
        },
        "runs": runs,
    }


def snapshot(runner: Callable[..., list[dict]] = run_perfbench) -> dict[str, dict]:
    """Each workload's summaries, alternating the trace settings, run from a fresh copy."""
    runs: dict[int, list[dict]] = {0: [], 1: []}
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        copy_checkout(tree)
        for _ in range(RUNS):
            for trace in runs:
                lines = runner(tree, "--trace", str(trace))
                runs[trace].append({line.pop("workload"): line for line in lines})
    return {
        name: {f"trace{trace}": summarize([lines[name] for lines in runs[trace]]) for trace in runs}
        for name in runs[0][0]
    }


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 tools/bench_snapshot.py N", file=sys.stderr)
        return 2
    commit = git("describe", "--always", "--dirty")
    write_doc(f"BENCH_{argv[0]}.json", {"commit": commit}, {"workloads": snapshot()})
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
