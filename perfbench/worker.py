"""One workload in one fresh process: set up, time jobs, check them, report.

Started by run.py with BLAS/OpenMP pinned to one thread and
``PERFBENCH_SPAWN`` set to the launcher's ``perf_counter()`` just before
the spawn (CLOCK_MONOTONIC, so it compares across processes).  Prints
one JSON object as its last line of standard output.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
CLI_COMMAND = [sys.executable, "-m", "finstoch.cli"]
TRACED_CLI_COMMAND = [sys.executable, str(HERE / "cli_child.py")]
# Rounds in the traced phase: a fixed number, so counts repeat exactly.
TRACED_ROUNDS = {"grid": 10, "algebra": 10, "closure": 5, "cli": 1}
SPIN_ITERS = 100_000
SPIN_NOMINAL_S = 0.02
_SPIN_ARRAY = np.random.default_rng(0).random((256, 256))


def spin() -> float:
    """Seconds taken by fixed reference work: the host's current speed.

    The work mixes what the jobs do (interpreter arithmetic, allocation
    of small hashed objects, numpy reductions on a cache-sized array) and
    calls nothing of finstoch, so a change to the library cannot move it.
    """
    start = perf_counter()
    total = 0
    for i in range(SPIN_ITERS):
        total += i * i
    table = {frozenset((i % 97, i % 89, i)): (i, str(i)) for i in range(SPIN_ITERS // 10)}
    sorted(table.values())
    for _ in range(10):
        total += int((_SPIN_ARRAY * _SPIN_ARRAY.T).sum(axis=0).argmax())
    return perf_counter() - start


class Harness:
    """Closed loop with one client: each op starts when the previous returns."""

    def __init__(self, workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.durations: list[float] = []
        self.names: list[str] = []
        self.spins: list[float] = []

    def run_ops(self, ops, r: int, timed: bool = True) -> None:
        for op in ops:
            gc.collect()  # each job starts without the previous one's garbage
            if timed:
                self.spins.append(spin())
            start = perf_counter()
            try:
                out = op.run()
            except Exception:
                traceback.print_exc()
                out = None
            elapsed = perf_counter() - start
            problems = op.check(out) if out is not None else ["raised"]
            if timed:
                self.attempted += 1
                self.durations.append(elapsed)
                self.names.append(op.name)
            if problems and op.known_fault:
                self.failed += timed
            elif problems:
                self.correct = False
            if problems:
                kind = "known fault" if op.known_fault else "WRONG"
                print(f"{kind}: {op.name} round {r}: {'; '.join(problems)}", file=sys.stderr)

    def run_for(self, seconds: float, first_round: int) -> None:
        """Whole rounds until the timed job time reaches ``seconds``."""
        r = first_round
        while sum(self.durations) < seconds:
            self.run_ops(self.wl.round(r), r)
            r += 1
        self.spins.append(spin())

    def scaled(self) -> list[float]:
        """Job times at the reference speed, from the spins on either side.

        Needs the closing spin that ends every timed phase.
        """
        return [
            d * 2 * SPIN_NOMINAL_S / (a + b)
            for d, a, b in zip(self.durations, self.spins, self.spins[1:])
        ]


def make_workload(name: str, seed: int, workdir: Path):
    if name == "cli":
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return workloads.Cli(seed, workdir, env, CLI_COMMAND)
    return {"grid": workloads.Grid, "algebra": workloads.Algebra, "closure": workloads.Closure}[name](seed)


def peak_rss_mb(workload: str) -> float:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def end_to_end(h: Harness, setup_s: float, workload: str) -> dict[str, float]:
    d = h.scaled()
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(d) / sum(d),
        "job_p50_ms": statistics.median(d) * 1e3,
        "peak_rss_mb": peak_rss_mb(workload),
    }


def traced_phase(name: str, wl, h: Harness, trace_path: Path) -> dict[str, float]:
    """Re-run the first rounds, a fixed number, with every layer wrapped in spans."""
    import tracing

    tracer = tracing.Tracer()
    traced = Harness(wl)
    child_dir = OUT / f"cli-trace-{os.getpid()}"
    if name == "cli":
        child_dir.mkdir()
        wl.command = TRACED_CLI_COMMAND
        wl.env = dict(wl.env, PERFBENCH_TRACE_OUT=str(child_dir))
    else:
        tracing.install(tracer)
    try:
        for r in range(1, 1 + TRACED_ROUNDS[name]):
            tracer.job = r
            traced.run_ops(wl.round(r), r)
        traced.spins.append(spin())
        for path in sorted(child_dir.glob("*.json")):
            _merge_child(tracer, path)
    finally:
        shutil.rmtree(child_dir, ignore_errors=True)
    tracer.dump(trace_path)
    h.attempted += traced.attempted
    h.failed += traced.failed
    h.correct &= traced.correct

    metrics = tracing.layer_metrics(tracer, len(traced.durations))
    if name == "cli":  # untraced wall time of each subcommand
        for sub in set(h.names):
            times = [d for d, n in zip(h.durations, h.names) if n == sub]
            metrics[f"cli.{sub}.wall_ms"] = statistics.median(times) * 1e3
    overhead = statistics.median(traced.scaled()) - statistics.median(h.scaled())
    metrics["trace.overhead_ms"] = overhead * 1e3
    return metrics


def _merge_child(tracer, path: Path) -> None:
    """Append one traced CLI process's spans and counts; its pid is the job."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    offset = len(tracer.spans)
    for name, start, end, parent, _ in doc["spans"]:
        tracer.spans.append((name, start, end, parent + offset if parent >= 0 else -1, path.stem))
    tracer.counts.update(doc["counts"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=("grid", "algebra", "closure", "cli"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    spawned = float(os.environ["PERFBENCH_SPAWN"])

    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"cli-{args.seed}-{os.getpid()}"
    try:
        wl = make_workload(args.workload, args.seed, workdir)
        h = Harness(wl)
        warm_up = wl.round(0)
        if args.workload == "cli":  # one invocation warms the file cache
            warm_up = warm_up[:1]
        h.run_ops(warm_up, 0, timed=False)
        # set-up time at the reference speed, measured just after it
        setup_s = (perf_counter() - spawned) * 2 * SPIN_NOMINAL_S / (spin() + spin())
        if not h.correct:
            return 1
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        h.run_for(args.seconds, 1)
        if args.trace:
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            metrics = traced_phase(args.workload, wl, h, trace_path)
        else:
            metrics = end_to_end(h, setup_s, args.workload)
        for label, times in (("raw", h.durations), ("reference speed", h.scaled())):
            q = statistics.quantiles(times, n=10)
            print(
                f"{args.workload} {label}: {len(times)} jobs, p50 {statistics.median(times) * 1e3:.2f} ms, "
                f"p90 {q[-1] * 1e3:.2f} ms, {sum(times):.2f} s",
                file=sys.stderr,
            )
        print(
            json.dumps(
                {
                    "correct": h.correct,
                    "attempted": h.attempted,
                    "failed": h.failed,
                    "metrics": metrics,
                }
            )
        )
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
