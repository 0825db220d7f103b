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

import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .ci import ci_residual, mutual_ci_residual
from .errors import BadWireNaming, DomainMismatch, ShapeMismatch
from .kernels import (
    DEFAULT_ATOL,
    MAX_ENTRIES,
    FinSet,
    JointState,
    Kernel,
    as_equal_residual,
    contract,
    reindex,
)

_SEQ_RE = re.compile(r"^(?P<prefix>.*)\[(?P<i>\d+)\]$")
_GRID_RE = re.compile(r"^(?P<prefix>.*)\[(?P<i>\d+),(?P<j>\d+)\]$")


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


def decode_names(names: Sequence[str], prefix: str | None = None) -> _Naming:
    """Decode wire names as a complete grid P[i,j] or sequence P[i]."""
    if not names:
        raise BadWireNaming("no wires to decode")
    grid = all(_GRID_RE.match(n) for n in names)
    seq = not grid and all(_SEQ_RE.match(n) for n in names)
    if not grid and not seq:
        raise BadWireNaming(
            "wire names must all look like P[i] or all like P[i,j]"
        )
    rx = _GRID_RE if grid else _SEQ_RE
    prefixes = {rx.match(n)["prefix"] for n in names}
    if len(prefixes) != 1 or (prefix is not None and prefixes != {prefix}):
        raise BadWireNaming(f"inconsistent wire prefixes {sorted(prefixes)}")
    (pfx,) = prefixes
    if grid:
        cells = {(int(rx.match(n)["i"]), int(rx.match(n)["j"])) for n in names}
        rows = max(i for i, _ in cells)
        cols = max(j for _, j in cells)
        if cells != {(i, j) for i in range(1, rows + 1) for j in range(1, cols + 1)}:
            raise BadWireNaming("grid positions are not a complete 1..m x 1..n")
        return _Naming("grid", pfx, rows, cols)
    positions = {int(rx.match(n)["i"]) for n in names}
    n = max(positions)
    if positions != set(range(1, n + 1)):
        raise BadWireNaming("sequence positions are not a complete 1..n")
    return _Naming("sequence", pfx, n, 1)


def invariance_residual(
    p: JointState, generators: Iterable[PermSpec], prefix: str | None = None
) -> float:
    """Largest deviation of p from its image under each generator."""
    naming = decode_names(p.wire_names, prefix)
    worst = 0.0
    for sigma in generators:
        naming.check_perm(sigma)
        moved = JointState(
            p.kernel, tuple(naming.rename(w, sigma) for w in p.wire_names)
        )
        back = reindex(moved, p.wire_names)
        worst = max(worst, float(np.abs(back.kernel.matrix - p.kernel.matrix).max()))
    return worst


def check_invariance(
    p: JointState,
    generators: Iterable[PermSpec],
    atol: float = DEFAULT_ATOL,
    prefix: str | None = None,
) -> bool:
    """Exact distributional invariance under each generator, within atol."""
    return invariance_residual(p, generators, prefix) <= atol


def check_as_invariance(
    p: Kernel,
    m: Kernel,
    generators: Iterable[PermSpec],
    wire_names: Sequence[str],
    atol: float = DEFAULT_ATOL,
    prefix: str | None = None,
) -> bool:
    """Almost-sure invariance of a kernel under output permutations.

    The codomain factors of p are named like grid or sequence wires;
    each generator permutes them, and the permuted kernel must agree
    with p on the support of the input state m.
    """
    if len(wire_names) != len(p.cod):
        raise ShapeMismatch("one name per codomain factor is required")
    if m.cod != p.dom:
        raise DomainMismatch("state does not land in the kernel's domain")
    naming = decode_names(wire_names, prefix)
    ncod = len(p.cod)
    ndom = len(p.dom)
    for sigma in generators:
        naming.check_perm(sigma)
        renamed = [naming.rename(w, sigma) for w in wire_names]
        perm = [renamed.index(w) for w in wire_names]
        arr = p.array.transpose(
            list(range(ndom)) + [ndom + k for k in perm]
        )
        moved = Kernel(
            p.dom,
            tuple(p.cod[k] for k in perm),
            arr.reshape(p.matrix.shape),
        )
        if moved.cod != p.cod:
            raise DomainMismatch(
                "carriers differ across permuted positions"
            )
        if as_equal_residual(moved, p, m, atol) > atol:
            return False
    return True


def build_definetti_joint(
    q: Kernel,
    f: Kernel,
    n: int,
    expose_latent: bool = False,
    prefix: str = "X",
    latent_name: str = "A",
    max_entries: int = MAX_ENTRIES,
) -> JointState:
    """Joint of n entries drawn independently given one shared latent."""
    if q.dom or len(q.cod) != 1:
        raise ShapeMismatch("q must be a state with a single factor")
    if f.dom != q.cod or len(f.cod) != 1:
        raise ShapeMismatch("f must map the latent carrier to a single factor")
    if n < 1:
        raise ShapeMismatch("n must be at least 1")
    xs = [f"{prefix}[{i}]" for i in range(1, n + 1)]
    # None labels the latent, so no prefix or latent name can clash with it
    arr = contract(
        [(q.matrix[0], [None])] + [(f.matrix, [None, x]) for x in xs],
        ([None] if expose_latent else []) + xs,
        max_entries,
    )
    wires = [(x, f.cod[0]) for x in xs]
    if expose_latent:
        wires = [(latent_name, q.cod[0])] + wires
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


def ah_wires(spec: AHSpec, expose_latents: bool) -> list[tuple[str, FinSet]]:
    a, b, c, x = spec.q.cod[0], spec.f.cod[0], spec.g.cod[0], spec.h.cod[0]
    wires: list[tuple[str, FinSet]] = []
    if expose_latents:
        wires.append(("T", a))
        wires += [(f"R[{i}]", b) for i in range(1, spec.rows + 1)]
        wires += [(f"C[{j}]", c) for j in range(1, spec.cols + 1)]
    wires += [
        (f"S[{i},{j}]", x)
        for i in range(1, spec.rows + 1)
        for j in range(1, spec.cols + 1)
    ]
    return wires


def build_ah_joint(
    spec: AHSpec,
    expose_latents: bool = False,
    max_entries: int = MAX_ENTRIES,
) -> JointState:
    """Exact joint of the grid entries, optionally with the latents kept.

    The probability of an assignment multiplies q at the shared latent,
    f at each row tail, g at each column tail, and h at each entry, and
    sums over whatever is not exposed.
    """
    rows, cols = range(1, spec.rows + 1), range(1, spec.cols + 1)
    operands = [(spec.q.matrix[0], ["T"])]
    operands += [(spec.f.matrix, ["T", f"R[{i}]"]) for i in rows]
    operands += [(spec.g.matrix, ["T", f"C[{j}]"]) for j in cols]
    operands += [
        (spec.h.array, [f"R[{i}]", "T", f"C[{j}]", f"S[{i},{j}]"])
        for i in rows
        for j in cols
    ]
    wires = ah_wires(spec, expose_latents)
    arr = contract(operands, [w for w, _ in wires], max_entries)
    return JointState.from_array(arr, wires)


@dataclass(frozen=True)
class AHLemmaReport:
    """The three screening-off facts of the grid construction."""

    entries_independent: bool  # all S[i,j] jointly, given every tail
    entry_separated: bool  # each S[i,j] vs. unrelated tails and entries
    tails_independent: bool  # all R[i], C[j] jointly, given T
    residuals: tuple[float, float, float]

    @property
    def all_hold(self) -> bool:
        return (
            self.entries_independent
            and self.entry_separated
            and self.tails_independent
        )


def verify_ah_lemmas(
    spec: AHSpec,
    atol: float = DEFAULT_ATOL,
    max_entries: int = MAX_ENTRIES,
) -> AHLemmaReport:
    """Check the three independence facts on the latent-exposed joint."""
    if spec.rows != spec.cols:
        raise ShapeMismatch("a square grid is required")
    n = spec.rows
    p = build_ah_joint(spec, expose_latents=True, max_entries=max_entries)
    rs = [f"R[{i}]" for i in range(1, n + 1)]
    cs = [f"C[{j}]" for j in range(1, n + 1)]
    entries = [f"S[{i},{j}]" for i in range(1, n + 1) for j in range(1, n + 1)]
    tails = rs + cs + ["T"]
    r1 = mutual_ci_residual(p, [[e] for e in entries], tails)
    r2 = 0.0
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            others = (
                [f"R[{k}]" for k in range(1, n + 1) if k != i]
                + [f"C[{l}]" for l in range(1, n + 1) if l != j]
                + [
                    f"S[{k},{l}]"
                    for k in range(1, n + 1)
                    for l in range(1, n + 1)
                    if k != i and l != j
                ]
            )
            if not others:
                continue
            r2 = max(
                r2,
                ci_residual(
                    p, [f"S[{i},{j}]"], others, [f"R[{i}]", f"C[{j}]", "T"]
                ),
            )
    r3 = mutual_ci_residual(p, [[w] for w in rs + cs], ["T"])
    return AHLemmaReport(
        entries_independent=r1 <= atol,
        entry_separated=r2 <= atol,
        tails_independent=r3 <= atol,
        residuals=(r1, r2, r3),
    )
