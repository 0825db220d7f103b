"""Write a benchmark snapshot of this checkout to bench/BENCH_<N>.json.

    python3 tools/bench_snapshot.py 7

Runs ``perfbench/run.py`` over every workload twice, with ``--trace 0``
(end-to-end metrics) and with ``--trace 1`` (per-layer metrics), at the
harness's default seed and run length.  The file keeps each workload's
JSON line from both runs, plus the commit (``git describe --dirty``),
the Python version and the numpy version.  Nothing is written when a
run fails or a workload's output fails its oracle check.
"""

from __future__ import annotations

import json
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def run(trace: int) -> dict[str, dict]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--trace", str(trace)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"error: perfbench/run.py --trace {trace} exited {proc.returncode}")
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return {line.pop("workload"): line for line in lines}


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not argv[0].isdigit():
        print("usage: python3 tools/bench_snapshot.py N", file=sys.stderr)
        return 2
    commit = subprocess.run(
        ["git", "describe", "--always", "--dirty"], cwd=ROOT, stdout=subprocess.PIPE, text=True
    ).stdout.strip()
    end_to_end, per_layer = run(0), run(1)
    doc = {
        "commit": commit,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "workloads": {
            name: {"trace0": end_to_end[name], "trace1": per_layer[name]} for name in end_to_end
        },
    }
    out = ROOT / "bench" / f"BENCH_{argv[0]}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
