"""Generative constructions with shared latents, and invariance checks.

The sequence construction draws one latent and emits conditionally
independent entries X[1..n].  The grid construction draws a shared
latent T, per-row tails R[i], per-column tails C[j], and entries
S[i,j] from (R[i], T, C[j]).  Both joints are exact sums over the
latents.  Invariance under row, column, or sequence permutations is
checked on wire names of the forms ``P[i]`` and ``P[i,j]``; adjacent
transpositions generate the full permutation action.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ci import ci_residual, mutual_ci_residual
from .errors import BadWireNaming, DomainMismatch, ShapeMismatch
from .kernels import (
    DEFAULT_ATOL,
    FinSet,
    JointState,
    Kernel,
    contract,
)

# positions as _Naming.rename spells them: from 1, without leading zeros
_SEQ_RE = re.compile(r"^(?P<prefix>.*)\[(?P<i>[1-9][0-9]*)\]$")
_GRID_RE = re.compile(r"^(?P<prefix>.*)\[(?P<i>[1-9][0-9]*),(?P<j>[1-9][0-9]*)\]$")


@dataclass(frozen=True)
class PermSpec:
    """A permutation of rows, columns, or sequence positions (1-based)."""

    target: str
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(k) for k in self.perm))
        if self.target not in ("row", "column", "sequence"):
            raise ShapeMismatch(f"unknown permutation target {self.target!r}")
        if sorted(self.perm) != list(range(1, len(self.perm) + 1)):
            raise ShapeMismatch(f"not a permutation of 1..{len(self.perm)}")

    def __call__(self, k: int) -> int:
        return self.perm[k - 1]


def adjacent_transpositions(n: int, target: str) -> list[PermSpec]:
    """The n-1 swaps of neighbouring positions; they generate everything."""
    out = []
    for k in range(1, n):
        perm = list(range(1, n + 1))
        perm[k - 1], perm[k] = perm[k], perm[k - 1]
        out.append(PermSpec(target, tuple(perm)))
    return out


def grid_transpositions(rows: int, cols: int) -> list[PermSpec]:
    return adjacent_transpositions(rows, "row") + adjacent_transpositions(
        cols, "column"
    )


@dataclass(frozen=True)
class _Naming:
    kind: str  # "sequence" | "grid"
    prefix: str
    rows: int
    cols: int

    def rename(self, wire: str, sigma: PermSpec) -> str:
        if self.kind == "sequence":
            i = int(_SEQ_RE.match(wire)["i"])
            if sigma.target != "sequence":
                raise ShapeMismatch(
                    f"{sigma.target} permutation applied to a sequence state"
                )
            return f"{self.prefix}[{sigma(i)}]"
        m = _GRID_RE.match(wire)
        i, j = int(m["i"]), int(m["j"])
        if sigma.target == "row":
            i = sigma(i)
        elif sigma.target == "column":
            j = sigma(j)
        else:
            raise ShapeMismatch("sequence permutation applied to a grid state")
        return f"{self.prefix}[{i},{j}]"

    def check_perm(self, sigma: PermSpec) -> None:
        want = {
            "row": self.rows,
            "column": self.cols,
            "sequence": self.rows,
        }[sigma.target]
        if len(sigma.perm) != want:
            raise ShapeMismatch(
                f"{sigma.target} permutation of {len(sigma.perm)} positions "
                f"applied to {want}"
            )


def decode_names(names: Sequence[str]) -> _Naming:
    """Decode wire names as a complete grid P[i,j] or sequence P[i].

    Each position is named exactly once and spelled as ``_Naming.rename``
    spells it, without leading zeros.  The work is linear in the names;
    no index set is built from the largest index.
    """
    if not names:
        raise BadWireNaming("no wires to decode")
    kind, matches = "grid", [_GRID_RE.match(w) for w in names]
    if not all(matches):
        kind, matches = "sequence", [_SEQ_RE.match(w) for w in names]
    if not all(matches):
        raise BadWireNaming(
            "wire names must all look like P[i] or all like P[i,j], "
            "positions from 1 without leading zeros"
        )
    prefixes = {m["prefix"] for m in matches}
    if len(prefixes) != 1:
        raise BadWireNaming(f"inconsistent wire prefixes {sorted(prefixes)}")
    (pfx,) = prefixes
    n = len(names)
    # an index with more digits than n is out of range, and n + 1 stands in for it
    cells = {
        tuple(int(k) if len(k) <= len(str(n)) else n + 1 for k in m.groups()[1:])
        for m in matches
    }
    rows = max(c[0] for c in cells)
    cols = max(c[1] for c in cells) if kind == "grid" else 1
    # n distinct cells within 1..rows x 1..cols fill it exactly when rows * cols == n
    if len(cells) != n or rows * cols != n:
        shape = "1..m x 1..n" if kind == "grid" else "1..n"
        raise BadWireNaming(f"{kind} positions are not a complete {shape}, each named once")
    return _Naming(kind, pfx, rows, cols)


def invariance_residual(p: JointState, generators: Iterable[PermSpec]) -> float:
    """Largest deviation of p from its image under each generator.

    Raises DomainMismatch when a position and its image carry different
    carriers, since the image is then no state on the same factors.
    """
    naming = decode_names(p.wire_names)
    carriers = p.kernel.cod
    worst = 0.0
    for sigma in generators:
        naming.check_perm(sigma)
        renamed = [naming.rename(w, sigma) for w in p.wire_names]
        order = [renamed.index(w) for w in p.wire_names]  # transposing by it gives the image
        if any(carriers[k] != c for k, c in zip(order, carriers)):
            raise DomainMismatch("carriers differ across permuted positions")
        worst = max(worst, float(np.abs(p.array.transpose(order) - p.array).max()))
    return worst


def build_definetti_joint(
    q: Kernel, f: Kernel, n: int, expose_latent: bool = False
) -> JointState:
    """Joint of n entries X[i] drawn independently given one shared latent A."""
    if q.dom or len(q.cod) != 1:
        raise ShapeMismatch("q must be a state with a single factor")
    if f.dom != q.cod or len(f.cod) != 1:
        raise ShapeMismatch("f must map the latent carrier to a single factor")
    if n < 1:
        raise ShapeMismatch("n must be at least 1")
    # labels: None for the latent, i for X[i]; the range stays lazy, so a
    # huge n hits the wire cap before anything of size n exists
    xs = range(1, n + 1)
    arr = contract(
        itertools.chain([(q.matrix[0], [None])], ((f.matrix, [None, i]) for i in xs)),
        itertools.chain([None] if expose_latent else [], xs),
    )
    wires = [(f"X[{i}]", f.cod[0]) for i in xs]
    if expose_latent:
        wires = [("A", q.cod[0])] + wires
    return JointState.from_array(arr, wires)


@dataclass(frozen=True, eq=False)
class AHSpec:
    """Kernels and grid shape for the row/column latent construction."""

    q: Kernel  # state on the shared latent carrier
    f: Kernel  # latent -> row tail
    g: Kernel  # latent -> column tail
    h: Kernel  # (row tail, latent, column tail) -> entry
    rows: int
    cols: int

    def __post_init__(self):
        if self.q.dom or len(self.q.cod) != 1:
            raise ShapeMismatch("q must be a state with a single factor")
        a = self.q.cod[0]
        if self.f.dom != (a,) or len(self.f.cod) != 1:
            raise ShapeMismatch("f must map the latent to a single factor")
        if self.g.dom != (a,) or len(self.g.cod) != 1:
            raise ShapeMismatch("g must map the latent to a single factor")
        want = (self.f.cod[0], a, self.g.cod[0])
        if self.h.dom != want or len(self.h.cod) != 1:
            raise ShapeMismatch(
                "h must consume (row tail, latent, column tail) and emit one factor"
            )
        if self.rows < 1 or self.cols < 1:
            raise ShapeMismatch("grid must have at least one row and column")


def _ah_wires(spec: AHSpec, expose_latents: bool) -> Iterator[tuple[str, FinSet]]:
    a, b, c, x = spec.q.cod[0], spec.f.cod[0], spec.g.cod[0], spec.h.cod[0]
    rows, cols = range(1, spec.rows + 1), range(1, spec.cols + 1)
    if expose_latents:
        yield ("T", a)
        yield from ((f"R[{i}]", b) for i in rows)
        yield from ((f"C[{j}]", c) for j in cols)
    yield from ((f"S[{i},{j}]", x) for i in rows for j in cols)


def build_ah_joint(spec: AHSpec, expose_latents: bool = False) -> JointState:
    """Exact joint of the grid entries, optionally with the latents kept.

    The probability of an assignment multiplies q at the shared latent,
    f at each row tail, g at each column tail, and h at each entry, and
    sums over whatever is not exposed.
    """
    rows, cols = range(1, spec.rows + 1), range(1, spec.cols + 1)
    # lazy, so a large grid hits the wire cap before its operands exist
    operands = itertools.chain(
        [(spec.q.matrix[0], ["T"])],
        ((spec.f.matrix, ["T", f"R[{i}]"]) for i in rows),
        ((spec.g.matrix, ["T", f"C[{j}]"]) for j in cols),
        (
            (spec.h.array, [f"R[{i}]", "T", f"C[{j}]", f"S[{i},{j}]"])
            for i in rows
            for j in cols
        ),
    )
    arr = contract(operands, (w for w, _ in _ah_wires(spec, expose_latents)))
    return JointState.from_array(arr, list(_ah_wires(spec, expose_latents)))


@dataclass(frozen=True)
class AHLemmaReport:
    """The three screening-off facts of the grid construction."""

    entries_independent: bool  # all S[i,j] jointly, given every tail
    entry_separated: bool  # each S[i,j] vs. unrelated tails and entries
    tails_independent: bool  # all R[i], C[j] jointly, given T
    residuals: tuple[float, float, float]


def verify_ah_lemmas(spec: AHSpec) -> AHLemmaReport:
    """Check the three independence facts on the latent-exposed joint.

    The report's booleans hold each residual to DEFAULT_ATOL.
    """
    if spec.rows != spec.cols:
        raise ShapeMismatch("a square grid is required")
    n = spec.rows
    p = build_ah_joint(spec, expose_latents=True)
    rs = [f"R[{i}]" for i in range(1, n + 1)]
    cs = [f"C[{j}]" for j in range(1, n + 1)]
    entries = [f"S[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    tails = rs + cs + ["T"]
    r1 = mutual_ci_residual(p, [[e] for e in entries], tails)
    r2 = 0.0
    for i, j in itertools.product(range(1, n + 1), repeat=2):
        unrelated = (
            [f"R[{k}]" for k in range(1, n + 1) if k != i]
            + [f"C[{l}]" for l in range(1, n + 1) if l != j]
            + [f"S[{k},{l}]" for k in range(1, n + 1) for l in range(1, n + 1) if k != i and l != j]
        )
        if unrelated:
            tails_ij = [f"R[{i}]", f"C[{j}]", "T"]
            r2 = max(r2, ci_residual(p, [f"S[{i},{j}]"], unrelated, tails_ij))
    r3 = mutual_ci_residual(p, [[w] for w in rs + cs], ["T"])
    return AHLemmaReport(
        entries_independent=r1 <= DEFAULT_ATOL,
        entry_separated=r2 <= DEFAULT_ATOL,
        tails_independent=r3 <= DEFAULT_ATOL,
        residuals=(r1, r2, r3),
    )
