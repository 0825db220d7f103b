"""Generative constructions with shared latents, and invariance checks.

The sequence construction draws one latent and emits conditionally
independent entries X[1..n].  The grid construction draws a shared
latent T, per-row tails R[i], per-column tails C[j], and entries
S[i,j] from (R[i], T, C[j]).  Both joints are exact sums over the
latents.  Wire names ``P[i]`` and ``P[i,j]`` decode to index
positions with one or two slots.  A sequence or row permutation moves
slot 0 of its positions and a column permutation slot 1; adjacent
transpositions generate the full permutation action.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from .ci import _worst_residuals
from .errors import BadWireNaming, DomainMismatch, ShapeMismatch
from .kernels import (
    DEFAULT_ATOL,
    FinSet,
    JointState,
    Kernel,
    contract,
)

# one spelling per position: from 1, ASCII digits, no leading zeros; so an index
# with more digits than there are wires is out of range without being converted
_NAME_RE = re.compile(r"^(?P<prefix>.*)\[(?P<index>[1-9][0-9]*(,[1-9][0-9]*)?)\]$")
# each target's index arity and the slot it moves
_ACTIONS = {"sequence": (1, 0), "row": (2, 0), "column": (2, 1)}
# what messages call a shape of each arity, and its complete set of positions
_SHAPES = {1: ("sequence", "1..n"), 2: ("grid", "1..m x 1..n")}


@dataclass(frozen=True)
class PermSpec:
    """A permutation of rows, columns, or sequence positions (1-based)."""

    target: str
    perm: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "perm", tuple(int(k) for k in self.perm))
        if self.target not in _ACTIONS:
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
    prefix: str
    shape: tuple[int, ...]  # (n,) or (rows, cols)
    positions: tuple[tuple[int, ...], ...]  # each wire's (i,) or (i, j), in wire order

    @property
    def kind(self) -> str:
        return _SHAPES[len(self.shape)][0]

    def transpositions(self) -> list[PermSpec]:
        """The adjacent swaps of every target acting on this shape, target by target."""
        acting = [(t, a) for t, (arity, a) in _ACTIONS.items() if arity == len(self.shape)]
        return [sigma for t, a in acting for sigma in adjacent_transpositions(self.shape[a], t)]

    def image_order(self, sigma: PermSpec) -> list[int]:
        """The axes that transpose a state into its image: m's is the wire sigma moves onto m."""
        arity, a = _ACTIONS[sigma.target]
        if arity != len(self.shape):
            raise ShapeMismatch(f"{sigma.target} permutation applied to a {self.kind} state")
        want = self.shape[a]
        if len(sigma.perm) != want:
            raise ShapeMismatch(
                f"{sigma.target} permutation of {len(sigma.perm)} positions "
                f"applied to {want}"
            )
        moved = {
            pos[:a] + (sigma(pos[a]),) + pos[a + 1 :]: k for k, pos in enumerate(self.positions)
        }
        return [moved[pos] for pos in self.positions]


def decode_names(names: Sequence[str]) -> _Naming:
    """Decode wire names as a complete grid P[i,j] or sequence P[i].

    Each position is named exactly once, counted from 1 without leading
    zeros, and kept per wire.  The work is linear in the names; no index
    set is built from the largest index.
    """
    if not names:
        raise BadWireNaming("no wires to decode")
    matches = [_NAME_RE.match(w) for w in names]
    if not all(matches) or len({m["index"].count(",") for m in matches}) != 1:
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
    cells = tuple(
        tuple(int(k) if len(k) <= len(str(n)) else n + 1 for k in m["index"].split(","))
        for m in matches
    )
    shape = tuple(map(max, zip(*cells)))
    # n distinct cells within the box 1..shape fill it exactly when its size is n
    if len(set(cells)) != n or math.prod(shape) != n:
        kind, span = _SHAPES[len(shape)]
        raise BadWireNaming(f"{kind} positions are not a complete {span}, each named once")
    return _Naming(pfx, shape, cells)


def invariance_residual(p: JointState, generators: Iterable[PermSpec]) -> float:
    """Largest deviation of p from its image under each generator.

    Raises DomainMismatch when a position and its image carry different
    carriers, since the image is then no state on the same factors.
    """
    naming = decode_names(p.wire_names)
    carriers = p.kernel.cod
    worst = 0.0
    for sigma in generators:
        order = naming.image_order(sigma)
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
    ns = range(1, n + 1)
    rs, cs = [f"R[{i}]" for i in ns], [f"C[{j}]" for j in ns]
    entries = [f"S[{i},{j}]" for i in ns for j in ns]

    def entry_vs_unrelated():
        for i, j in itertools.product(ns, repeat=2):
            unrelated = [f"R[{k}]" for k in ns if k != i] + [f"C[{l}]" for l in ns if l != j]
            unrelated += [f"S[{k},{l}]" for k in ns for l in ns if k != i and l != j]
            if unrelated:
                yield [[f"S[{i},{j}]"], unrelated], [f"R[{i}]", f"C[{j}]", "T"]

    lemma1 = ([[e] for e in entries], rs + cs + ["T"])  # the entries, given every tail
    lemma3 = ([[w] for w in rs + cs], ["T"])  # the tails, given the latent
    r1, r2, r3 = _worst_residuals(p, [[lemma1], entry_vs_unrelated(), [lemma3]])
    return AHLemmaReport(
        entries_independent=r1 <= DEFAULT_ATOL,
        entry_separated=r2 <= DEFAULT_ATOL,
        tails_independent=r3 <= DEFAULT_ATOL,
        residuals=(r1, r2, r3),
    )
