"""Job-level benchmark of finstoch: grid, algebra, closure and cli workloads.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Each workload runs in a fresh worker process with BLAS/OpenMP pinned to
one thread and the library imported from ``src/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json
with ``--trace 0``, its per-layer metrics with ``--trace 1``.  Without
``--workload`` every workload runs in turn, one JSON line each.

``setup_s`` is the median of three set-ups: two set-up-only workers and
the measuring worker itself.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("grid", "algebra", "closure", "cli")
TIMEOUT_S = 170


def spawn_worker(args: list[str], timeout: float) -> dict:
    env = dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        PERFBENCH_SPAWN=repr(perf_counter()),
    )
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker {' '.join(args)} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(spec: dict, workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = perf_counter() + TIMEOUT_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(2):
            setups.append(spawn_worker(base + ["--seconds", "0", "--setup-only"], TIMEOUT_S)["setup_s"])
    result = spawn_worker(
        base + ["--seconds", str(seconds), "--trace", str(trace)],
        max(1.0, deadline - perf_counter()),
    )
    raw = result["metrics"]
    if not trace:
        raw["setup_s"] = statistics.median(setups + [raw["setup_s"]])
    wanted = spec["per_layer" if trace else "end_to_end"]
    # a layer that does not run in this workload reads 0
    value = (lambda name: raw.get(name, 0.0)) if trace else raw.__getitem__
    result["metrics"] = {m["name"]: {"value": float(value(m["name"])), "unit": m["unit"]} for m in wanted}
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, help="default: every workload in turn")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "finstoch" / "__init__.py").is_file():
        print(f"error: no finstoch sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    code = 0
    for workload in [args.workload] if args.workload else WORKLOADS:
        try:
            result = run_workload(spec, workload, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as e:
            print(f"error: {workload}: {e}", file=sys.stderr)
            return 1
        if not args.workload:
            result = {"workload": workload, **result}
        print(json.dumps(result), flush=True)
        code = code or (0 if result["correct"] else 1)
    return code


if __name__ == "__main__":
    sys.exit(main())
