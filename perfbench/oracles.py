"""Reference computations the benchmark checks the library against.

Nothing here calls finstoch.  Joints are plain numpy arrays with one
axis per named wire; marginals are numpy sums; independence is the
product identity evaluated one conditioning cell at a time; derivation
steps are checked by a rule table written apart from
``finstoch.semigraphoid.RULES``; CLI runs are compared with verdicts
known from how their inputs were built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

ATOL = 1e-9


def marginal(arr: np.ndarray, names, keep) -> np.ndarray:
    """Sum out every wire not in ``keep``; axes follow ``keep``'s order."""
    names = list(names)
    axes = [names.index(w) for w in keep]
    out = arr.sum(axis=tuple(i for i in range(arr.ndim) if i not in axes))
    kept = sorted(axes)
    return out.transpose([kept.index(a) for a in axes])


def _grouped(arr, names, groups, given):
    m = marginal(arr, names, [w for g in groups for w in g] + list(given))
    shape = [math.prod(arr.shape[list(names).index(w)] for w in g) for g in groups]
    nw = math.prod(arr.shape[list(names).index(w)] for w in given)
    return m.reshape(shape + [nw])


def ci_product_residual(arr, names, x, y, given=()) -> float:
    """max |q(xyw) q(w) - q(xw) q(yw)| over every cell, looping over w."""
    m = _grouped(arr, names, [x, y], given)
    worst = 0.0
    for k in range(m.shape[-1]):
        q = m[:, :, k]
        worst = max(worst, float(np.abs(q * q.sum() - np.outer(q.sum(1), q.sum(0))).max()))
    return worst


def mutual_product_residual(arr, names, parts, given=()) -> float:
    """max |q(x1..xk w) - q(x1 w)...q(xk w) / q(w)^(k-1)|, looping over w."""
    m = _grouped(arr, names, parts, given)
    k = len(parts)
    worst = 0.0
    for c in range(m.shape[-1]):
        q = m[..., c]
        qw = q.sum()
        if qw == 0.0:
            continue
        margins = [q.sum(axis=tuple(j for j in range(k) if j != i)) for i in range(k)]
        product = reduce(np.multiply.outer, margins) / qw ** (k - 1)
        worst = max(worst, float(np.abs(q - product).max()))
    return worst


# ---------------------------------------------------------------------------
# joints of the constructions, built without the library


def ah_names(rows: int, cols: int, expose: bool) -> list[str]:
    cells = [f"S[{i},{j}]" for i in range(1, rows + 1) for j in range(1, cols + 1)]
    if not expose:
        return cells
    return (
        ["T"]
        + [f"R[{i}]" for i in range(1, rows + 1)]
        + [f"C[{j}]" for j in range(1, cols + 1)]
        + cells
    )


def ah_joint(q, f, g, h, rows: int, cols: int, expose: bool) -> np.ndarray:
    """Row/column latent joint with one kernel shared by every row, column, cell."""
    return ah_joint_boxes(q, [f] * rows, [g] * cols, [[h] * cols] * rows, expose)


def ah_joint_boxes(q, fs, gs, hs, expose: bool) -> np.ndarray:
    """Row/column latent joint from per-box kernels, one broadcast factor at a time.

    Axes are T, R[1..rows], C[1..cols], then the entries row-major.
    ``hs[i][j]`` has shape (row tail, latent, column tail, entry).
    """
    rows, cols = len(fs), len(gs)
    nlat = 1 + rows + cols
    ndim = nlat + rows * cols

    def place(mat, axes):
        shape = [1] * ndim
        order = sorted(range(len(axes)), key=lambda k: axes[k])
        for k in order:
            shape[axes[k]] = mat.shape[k]
        return mat.transpose(order).reshape(shape)

    joint = place(q, [0])
    for i in range(rows):
        joint = joint * place(fs[i], [0, 1 + i])
    for j in range(cols):
        joint = joint * place(gs[j], [0, 1 + rows + j])
    for i in range(rows):
        for j in range(cols):
            joint = joint * place(hs[i][j], [1 + i, 0, 1 + rows + j, nlat + i * cols + j])
    return joint if expose else joint.sum(axis=tuple(range(nlat)))


def definetti_joint(q, f, n: int, expose: bool) -> np.ndarray:
    """Latent A then X[1..n], drawn independently given A."""
    joint = q.reshape([-1] + [1] * n)
    for i in range(n):
        shape = [1] * (n + 1)
        shape[0], shape[1 + i] = f.shape
        joint = joint * f.reshape(shape)
    return joint if expose else joint.sum(axis=0)


def chain_joint(init, steps) -> np.ndarray:
    """Markov chain: ``init`` on the first wire, then one matrix per step."""
    joint = init
    for mat in steps:
        joint = joint[..., None] * mat.reshape((1,) * (joint.ndim - 1) + mat.shape)
    return joint


# ---------------------------------------------------------------------------
# the independences the grid model asserts, listed from its construction


def _entry_statements(rows: int, cols: int):
    """Each entry vs every other wire, given its row tail, latent and column tail."""
    everything = set(ah_names(rows, cols, True))
    out = []
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            given = [f"R[{i}]", "T", f"C[{j}]"]
            rest = everything - set(given) - {f"S[{i},{j}]"}
            out.append(([f"S[{i},{j}]"], sorted(rest), given))
    return out


def ah_local_statements(rows: int, cols: int):
    """(x, y, given) per box: outputs vs non-descendant wires, given inputs."""
    everything = set(ah_names(rows, cols, True))
    out = []
    for i in range(1, rows + 1):
        mine = {f"R[{i}]"} | {f"S[{i},{j}]" for j in range(1, cols + 1)}
        out.append(([f"R[{i}]"], sorted(everything - mine - {"T"}), ["T"]))
    for j in range(1, cols + 1):
        mine = {f"C[{j}]"} | {f"S[{i},{j}]" for i in range(1, rows + 1)}
        out.append(([f"C[{j}]"], sorted(everything - mine - {"T"}), ["T"]))
    return out + _entry_statements(rows, cols)


def ah_ordered_statements(rows: int, cols: int):
    """Stages T=1, tails=2, entries=3: outputs vs the earlier-or-same stage."""
    tails = [f"R[{i}]" for i in range(1, rows + 1)] + [f"C[{j}]" for j in range(1, cols + 1)]
    out = [([t], [u for u in tails if u != t], ["T"]) for t in tails]
    return out + _entry_statements(rows, cols)


def local_markov_oracle(arr, names, rows, cols) -> float:
    return max(ci_product_residual(arr, names, *s) for s in ah_local_statements(rows, cols))


def ordered_markov_oracle(arr, names, rows, cols) -> float:
    return max(ci_product_residual(arr, names, *s) for s in ah_ordered_statements(rows, cols))


def ah_lemma_oracle(arr, names, n: int) -> tuple[float, float, float]:
    """The three screening-off facts of the square grid, as residuals."""
    rs = [f"R[{i}]" for i in range(1, n + 1)]
    cs = [f"C[{j}]" for j in range(1, n + 1)]
    cells = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    r1 = mutual_product_residual(arr, names, [[f"S[{i},{j}]"] for i, j in cells], rs + cs + ["T"])
    r2 = 0.0
    for i, j in cells:
        others = (
            [r for k, r in enumerate(rs, 1) if k != i]
            + [c for k, c in enumerate(cs, 1) if k != j]
            + [f"S[{k},{l}]" for k, l in cells if k != i and l != j]
        )
        if others:
            given = [f"R[{i}]", f"C[{j}]", "T"]
            r2 = max(r2, ci_product_residual(arr, names, [f"S[{i},{j}]"], others, given))
    r3 = mutual_product_residual(arr, names, [[w] for w in rs + cs], ["T"])
    return r1, r2, r3


def grid_swap_residual(arr: np.ndarray, rows: int, cols: int) -> float:
    """Worst deviation under swaps of adjacent rows and of adjacent columns."""
    perms = []
    for k in range(rows - 1):
        cells = np.arange(rows * cols).reshape(rows, cols)
        cells[[k, k + 1]] = cells[[k + 1, k]]
        perms.append(cells.ravel())
    for k in range(cols - 1):
        cells = np.arange(rows * cols).reshape(rows, cols)
        cells[:, [k, k + 1]] = cells[:, [k + 1, k]]
        perms.append(cells.ravel())
    return max((float(np.abs(arr.transpose(p) - arr).max()) for p in perms), default=0.0)


def sequence_swap_residual(arr: np.ndarray) -> float:
    return max(
        (float(np.abs(np.swapaxes(arr, k, k + 1) - arr).max()) for k in range(arr.ndim - 1)),
        default=0.0,
    )


# ---------------------------------------------------------------------------
# semigraphoid rules, restated on (left, right, given) triples


def _triple(s):
    return frozenset(s.left), frozenset(s.right), frozenset(s.given)


def rule_holds(rule: str, premises, conclusion) -> bool:
    """True iff ``conclusion`` follows from ``premises`` by one core rule."""
    c = _triple(conclusion)
    ps = [_triple(p) for p in premises]
    if rule == "contraction" and len(ps) == 2:
        for (x, yz, w1), (x2, z, w) in (ps, ps[::-1]):
            # X _||_ Y | Z,W and X _||_ Z | W give X _||_ Y,Z | W
            if x == x2 == c[0] and w1 == z | w and c[1] == yz | z and c[2] == w:
                return True
        return False
    if len(ps) != 1:
        return False
    (x, y, w), (cx, cy, cw) = ps[0], c
    if rule == "symmetry":
        return (cx, cy, cw) == (y, x, w)
    if rule == "decomposition":
        return bool(cx) and cx <= x and cy == y and cw == w
    if rule == "weak_union":
        return bool(cx) and cx <= x and cy == y and cw == w | (x - cx)
    return False


def first_bad_step(axioms, steps) -> int | None:
    """Index of the first step that no core rule licenses, else None."""
    known = list(axioms)
    for k, step in enumerate(steps):
        if not all(0 <= i < len(known) for i in step.premises):
            return k
        if not rule_holds(step.rule, [known[i] for i in step.premises], step.conclusion):
            return k
        known.append(step.conclusion)
    return None


# ---------------------------------------------------------------------------
# command-line runs


@dataclass(frozen=True)
class Expect:
    """What a correct CLI run prints and returns.

    ``lines`` lists (verdict, check-name prefix) for every stdout line,
    or is None when stdout must hold no PASS line.  ``stderr_has`` must
    then appear in the diagnostic.
    """

    code: int
    lines: tuple[tuple[str, str], ...] | None
    stderr_has: str = ""


def cli_problems(expect: Expect, code: int, stdout: str, stderr: str) -> list[str]:
    """Every way a run misses ``expect``; empty when it matches."""
    problems = []
    if "Traceback" in stderr:
        problems.append("traceback on stderr")
    if code != expect.code:
        problems.append(f"exit {code}, expected {expect.code}")
    out = stdout.splitlines()
    if expect.lines is None:
        if any(line.startswith("PASS") for line in out):
            problems.append("PASS line on input that cannot be evaluated")
        if expect.stderr_has not in stderr:
            problems.append(f"diagnostic does not name {expect.stderr_has!r}")
        return problems
    if len(out) != len(expect.lines):
        problems.append(f"{len(out)} lines, expected {len(expect.lines)}")
    for line, (verdict, name) in zip(out, expect.lines):
        if not line.startswith(f"{verdict} {name}"):
            problems.append(f"line {line!r}, expected {verdict} {name}...")
    return problems
