"""Generative constructions with shared latents, and invariance checks.

Each latent construction is written once, as a lazy list of boxes in
wire order: a box's name, the kernel it runs, its input wires and its
one output wire.  The sequence construction draws one latent A and
emits conditionally independent entries X[1..n].  The grid
construction draws a shared latent T, per-row tails R[i], per-column
tails C[j], and entries S[i,j] from (R[i], T, C[j]).  A joint
contracts the list once, an exact sum over the latents, the wires some
box reads; the grid's wiring-diagram model and its lemma families read
the same list.  Wire names ``P[i]`` and ``P[i,j]`` decode to index
positions with one or two slots.  A sequence or row permutation moves
slot 0 of its positions and a column permutation slot 1; adjacent
transpositions generate the full permutation action.
"""

from __future__ import annotations

import itertools
import math
import re
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from .ci import _worst_residuals
from .errors import MAX_WIRES, BadWireNaming, DomainMismatch, ShapeMismatch, SizeLimit
from .kernels import DEFAULT_ATOL, JointState, Kernel, contract

if TYPE_CHECKING:
    from .models import CausalModel

# one spelling per position: from 1, ASCII digits, no leading zeros; so an index
# with more digits than there are wires is out of range without being converted
_NAME_RE = re.compile(r"(?P<prefix>.*)\[(?P<index>[1-9][0-9]*(,[1-9][0-9]*)?)\]")
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
    matches = [_NAME_RE.fullmatch(w) for w in names]
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


def _contract_boxes(boxes: Iterable[tuple], expose: bool) -> JointState:
    """The joint of a box list: each box's kernel at its inputs and output, multiplied.

    The latents, the outputs some box reads, are summed out unless
    exposed; the other outputs stay in box order, the latents among
    them when exposed.  Each box brings a new wire, so contract meets
    the wire cap within the first MAX_WIRES + 1 boxes, and no more are
    drawn from a lazy list.
    """
    boxes = list(itertools.islice(boxes, MAX_WIRES + 1))
    read = {w for _, _, ins, _ in boxes for w in ins}
    wires = [(out, k.cod[0]) for _, k, _, out in boxes if expose or out not in read]
    arr = contract(((k.array, [*ins, out]) for _, k, ins, out in boxes), [w for w, _ in wires])
    return JointState.from_array(arr, wires)


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
    boxes = itertools.chain(
        [("alpha", q, (), "A")], ((f"beta[{i}]", f, ("A",), f"X[{i}]") for i in range(1, n + 1))
    )
    return _contract_boxes(boxes, expose_latent)


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


def _ah_boxes(rows: int, cols: int, q=None, f=None, g=None, h=None) -> Iterator[tuple]:
    """The grid construction's boxes in wire order: (name, kernel, input wires, output wire)."""
    rs, cs = range(1, rows + 1), range(1, cols + 1)
    yield "alpha", q, (), "T"
    yield from ((f"beta[{i}]", f, ("T",), f"R[{i}]") for i in rs)
    yield from ((f"gamma[{j}]", g, ("T",), f"C[{j}]") for j in cs)
    for i, j in itertools.product(rs, cs):
        yield f"eta[{i},{j}]", h, (f"R[{i}]", "T", f"C[{j}]"), f"S[{i},{j}]"


def expand_ah_model(rows: int, cols: int | None = None) -> CausalModel:
    """The row/column latent model on an explicit rows-by-cols grid.

    One box per entry of the grid's box list: alpha emits the shared
    latent T, beta[i] and gamma[j] the tails R[i] and C[j], and eta[i,j]
    consumes (R[i], T, C[j]) and emits the entry S[i,j].
    """
    from .models import Box, make_model  # so the numeric subcommands never load models

    cols = rows if cols is None else cols
    wires = 1 + rows + cols + rows * cols
    if min(rows, cols) < 1 or wires > MAX_WIRES:
        raise SizeLimit(
            f"{rows}x{cols} grid: sides must be at least 1 and its {wires} wires "
            f"at most {MAX_WIRES}, the most a contraction can address"
        )
    return make_model(Box(name, ins, (out,)) for name, _, ins, out in _ah_boxes(rows, cols))


def build_ah_joint(spec: AHSpec, expose_latents: bool = False) -> JointState:
    """Exact joint of the grid entries, optionally with the latents kept.

    The probability of an assignment multiplies q at the shared latent,
    f at each row tail, g at each column tail, and h at each entry, and
    sums over whatever is not exposed.
    """
    boxes = _ah_boxes(spec.rows, spec.cols, spec.q, spec.f, spec.g, spec.h)
    return _contract_boxes(boxes, expose_latents)


def _ah_families(rows: int, cols: int) -> list[list[tuple]]:
    """The grid's three lemma families of (parts, given), read from its box list's wiring.

    Entries are the outputs no box reads, tails the other read outputs of
    boxes with inputs.  The entries are jointly independent given their
    boxes' inputs; each entry, given its box's, of the other tails and the
    entries whose boxes share no tail with its own; the tails given theirs.
    """
    boxes = {out: set(ins) for _, _, ins, out in _ah_boxes(rows, cols)}
    read = set().union(*boxes.values())
    entries = {out: ins for out, ins in boxes.items() if out not in read}
    tails = {out: ins for out, ins in boxes.items() if ins and out in read}

    def jointly(outs):  # each output its own part, given every input of their boxes
        return [([[out] for out in outs], set().union(*outs.values()))]

    separated = []
    for e, ins in entries.items():
        unrelated = [t for t in tails if t not in ins]
        unrelated += [o for o, i in entries.items() if not tails.keys() & ins & i]
        if unrelated:
            separated.append(([[e], unrelated], ins))
    return [jointly(entries), separated, jointly(tails)]


@dataclass(frozen=True)
class AHLemmaReport:
    """The three screening-off facts of the grid construction."""

    entries_independent: bool  # all S[i,j] jointly, given every tail
    entry_separated: bool  # each S[i,j] vs. unrelated tails and entries
    tails_independent: bool  # all R[i], C[j] jointly, given T
    residuals: tuple[float, float, float]


def verify_ah_lemmas(spec: AHSpec) -> AHLemmaReport:
    """Check the three families of ``_ah_families`` on the latent-exposed joint of any grid.

    The report's booleans hold each residual to DEFAULT_ATOL.
    """
    p = build_ah_joint(spec, expose_latents=True)
    r1, r2, r3 = _worst_residuals(p, _ah_families(spec.rows, spec.cols))
    return AHLemmaReport(
        entries_independent=r1 <= DEFAULT_ATOL,
        entry_separated=r2 <= DEFAULT_ATOL,
        tails_independent=r3 <= DEFAULT_ATOL,
        residuals=(r1, r2, r3),
    )
