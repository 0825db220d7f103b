"""What tools/bench_snapshot.py and tools/bench_compare.py share.

How a fresh copy of the checkout is made, how ``perfbench/run.py`` is
started and read, and how a file under ``bench/`` records what produced
it.
"""

from __future__ import annotations

import json
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True
    ).stdout.strip()


def copy_checkout(dest: Path) -> None:
    """This checkout's files as they are on disk, without what .gitignore lists.

    Bytecode caches are left out with the rest, so a run from ``dest``
    does not depend on what earlier runs in this checkout compiled.
    """
    for name in git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0"):
        if (ROOT / name).is_file():  # a tracked file deleted on disk is left out
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, dest / name)


def run_perfbench(tree: Path, *argv: str) -> list[dict]:
    """The JSON lines of one ``perfbench/run.py`` run from ``tree``; exits if the run fails."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), *argv],
        cwd=tree,
        stdout=subprocess.PIPE,
        text=True,
    )
    lines = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"error: {tree}: perfbench/run.py {' '.join(argv)} exited {proc.returncode}")
    return lines


def write_doc(name: str, commits: dict, body: dict) -> None:
    """Write ``bench/<name>``: the commits, the Python and numpy versions, then ``body``."""
    doc = {**commits, "python": platform.python_version(), "numpy": np.__version__, **body}
    out = ROOT / "bench" / name
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(out)
