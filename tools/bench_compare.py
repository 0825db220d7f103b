"""Compare this checkout with a base commit in alternating benchmark runs.

    python3 tools/bench_compare.py BASE N [--workload grid] [--seeds 1,17] [--pairs 10]

Checks BASE out into a temporary ``git worktree`` (local git only), copies
this checkout beside it (uncommitted changes included, files that
.gitignore lists left out), and runs ``perfbench/run.py --workload W
--seed S`` from the two trees, one pair at a time, at the run length
perfbench sets.  Both trees are fresh directories, so bytecode cached in
this checkout does not favour it.  Pair i uses seed
``seeds[i % len(seeds)]``; even pairs run the base first and odd pairs
the change first, so neither tree always runs on a host warmed by the
other.  ``--workload`` takes a comma-separated list, and each workload
gets its own pairs.

It writes ``bench/COMPARE_<N>.json``: both commits, the Python and numpy
versions, each tree's run length (the default ``--seconds`` of its
``perfbench/run.py``), and per workload every pair's end-to-end metrics,
then per metric of BENCHMARK.json the number of pairs the change won,
each side's median and quartiles, and ``gain``: the change won at least
9 in 10 pairs and its median is better than the base's by more than the
base's interquartile range.  Nothing is written when a run fails or a
workload's output fails its oracle check.
"""

from __future__ import annotations

import argparse
import ast
import json
import statistics
import sys
import tempfile
from pathlib import Path
from typing import Callable

from bench_common import ROOT, copy_checkout, git, run_perfbench, write_doc

WIN_SHARE = 0.9

Runner = Callable[[Path, str, int], dict]


def run_one(tree: Path, workload: str, seed: int) -> dict:
    """The JSON line of one ``perfbench/run.py`` run of one workload from ``tree``."""
    return run_perfbench(tree, "--workload", workload, "--seed", str(seed))[-1]


def default_seconds(tree: Path) -> int:
    """The run length ``perfbench/run.py`` in ``tree`` uses when given no ``--seconds``."""
    for node in ast.walk(ast.parse((tree / "perfbench" / "run.py").read_text())):
        first = node.args[0] if isinstance(node, ast.Call) and node.args else None
        if isinstance(first, ast.Constant) and first.value == "--seconds":
            return next(ast.literal_eval(k.value) for k in node.keywords if k.arg == "default")
    raise SystemExit(f"error: {tree}: perfbench/run.py declares no --seconds default")


def run_pairs(trees: dict[str, Path], workload: str, seeds: list[int], pairs: int, runner: Runner) -> list[dict]:
    """Alternating base/change runs, the first tree flipping every pair."""
    out = []
    for i in range(pairs):
        seed = seeds[i % len(seeds)]
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        runs = {side: runner(trees[side], workload, seed) for side in order}
        for side, run in runs.items():
            if not run["correct"] or run["failed"]:
                raise SystemExit(f"error: {workload} seed {seed}: the {side} run failed its oracle check")
        metrics = {side: {k: m["value"] for k, m in runs[side]["metrics"].items()} for side in runs}
        out.append({"seed": seed, "first": order[0], **metrics})
    return out


def _spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1}


def summarize(pairs: list[dict], better: dict[str, str]) -> dict:
    """Wins, medians and quartiles of each metric over the pairs."""
    out = {}
    for name, direction in better.items():
        sign = 1.0 if direction == "higher" else -1.0
        base = [p["base"][name] for p in pairs]
        change = [p["change"][name] for p in pairs]
        wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
        b, c = _spread(base), _spread(change)
        gain = wins >= WIN_SHARE * len(pairs) and sign * (c["median"] - b["median"]) > b["iqr"]
        out[name] = {"better": direction, "wins": wins, "base": b, "change": c, "gain": gain}
    return out


def compare(
    trees: dict[str, Path],
    workloads: list[str],
    seeds: list[int],
    pairs: int,
    runner: Runner = run_one,
) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    out = {}
    for workload in workloads:
        runs = run_pairs(trees, workload, seeds, pairs, runner)
        out[workload] = {"pairs": runs, "metrics": summarize(runs, better)}
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("base", help="the commit to compare against")
    ap.add_argument("n", type=int, help="writes bench/COMPARE_<n>.json")
    ap.add_argument("--workload", default="grid", help="comma-separated (default: grid)")
    ap.add_argument("--seeds", default="1,17", help="comma-separated (default: 1,17)")
    ap.add_argument("--pairs", type=int, default=10, help="pairs per workload (default: 10)")
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2 for quartiles")
    seeds = [int(s) for s in args.seeds.split(",")]
    base = git("rev-parse", "--verify", f"{args.base}^{{commit}}")
    commits = {"base": base, "change": git("describe", "--always", "--dirty")}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        copy_checkout(trees["change"])
        git("worktree", "add", "--detach", str(trees["base"]), base)
        try:
            seconds = {side: default_seconds(tree) for side, tree in trees.items()}
            workloads = compare(trees, args.workload.split(","), seeds, args.pairs)
        finally:
            git("worktree", "remove", "--force", str(trees["base"]))
    body = {"seconds": seconds, "seeds": seeds, "workloads": workloads}
    write_doc(f"COMPARE_{args.n}.json", {"commits": commits}, body)
    return 0


if __name__ == "__main__":
    sys.exit(main())
