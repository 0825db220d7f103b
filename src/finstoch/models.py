"""Wiring diagrams of named boxes whose every wire is an overall output.

A model lists boxes with input and output wires.  Validity asks that
each wire is produced by exactly one box, that nothing is consumed from
outside, that every wire appears exactly once among the declared
overall outputs, and that the box-level precedence relation is acyclic.
Reachability, descendant sets, timing functions and the row/column
latent expansion all live here.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MAX_WIRES, FinstochError, InvalidTiming, SizeLimit, UnknownNode


@dataclass(frozen=True)
class Box:
    name: str
    in_wires: tuple[str, ...]
    out_wires: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "in_wires", tuple(self.in_wires))
        object.__setattr__(self, "out_wires", tuple(self.out_wires))


@dataclass(frozen=True)
class CausalModel:
    wires: tuple[str, ...]
    boxes: tuple[Box, ...]
    outputs: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        object.__setattr__(self, "boxes", tuple(self.boxes))
        object.__setattr__(self, "outputs", tuple(self.outputs))

    def box(self, name: str) -> Box:
        for b in self.boxes:
            if b.name == name:
                return b
        raise UnknownNode(f"no box named {name!r}")


def make_model(boxes: Iterable[Box], outputs: Iterable[str] | None = None) -> CausalModel:
    """Assemble a model from boxes; wires and outputs default to sorted order."""
    boxes = tuple(boxes)
    wires = sorted({w for b in boxes for w in b.out_wires + b.in_wires})
    outs = tuple(outputs) if outputs is not None else tuple(wires)
    return CausalModel(tuple(wires), boxes, outs)


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        return f"{self.rule}: {self.subject}: {self.detail}"


def _successors(m: CausalModel) -> dict[str, set[str]]:
    """Box-level precedence: b precedes c when c consumes a wire of b."""
    produced = {w: b.name for b in m.boxes for w in b.out_wires}
    succ: dict[str, set[str]] = {b.name: set() for b in m.boxes}
    for c in m.boxes:
        for w in c.in_wires:
            if w in produced:
                succ[produced[w]].add(c.name)
    return succ


def validate_model(m: CausalModel) -> list[Violation]:
    """All rule violations, each naming the offending wire or box."""
    out: list[Violation] = []
    names = [b.name for b in m.boxes]
    for n in sorted({n for n in names if names.count(n) > 1}):
        out.append(Violation("box-names", n, "box name declared more than once"))
    wire_set = set(m.wires)
    for w in sorted({w for w in m.wires if m.wires.count(w) > 1}):
        out.append(Violation("wire-names", w, "wire declared more than once"))
    for n in sorted(set(names) & wire_set):
        out.append(Violation("node-names", n, "name used for both a box and a wire"))
    for b in m.boxes:
        if not b.out_wires:
            out.append(Violation("box-outputs", b.name, "box emits no wires"))
        for w in sorted({w for w in b.out_wires if b.out_wires.count(w) > 1}):
            out.append(
                Violation("produced-once", w, f"box {b.name!r} emits it twice")
            )
        for w in sorted({w for w in b.in_wires if b.in_wires.count(w) > 1}):
            out.append(
                Violation("consumed-once", w, f"box {b.name!r} consumes it twice")
            )
        for w in b.in_wires + b.out_wires:
            if w not in wire_set:
                out.append(
                    Violation("unknown-wire", b.name, f"references wire {w!r}")
                )
    producers: dict[str, list[str]] = {w: [] for w in wire_set}
    for b in m.boxes:
        for w in b.out_wires:
            if w in producers:
                producers[w].append(b.name)
    for w in sorted(wire_set):
        n = len(producers[w])
        if n == 0:
            out.append(
                Violation("produced-once", w, "no box produces it (dangling input)")
            )
        elif n > 1:
            out.append(
                Violation("produced-once", w, f"produced by {sorted(producers[w])}")
            )
    counts = {w: m.outputs.count(w) for w in wire_set}
    for w in sorted(wire_set):
        if counts[w] == 0:
            out.append(
                Violation("pure-bloom", w, "wire is not an overall output")
            )
        elif counts[w] > 1:
            out.append(
                Violation("pure-bloom", w, "wire repeats in the overall outputs")
            )
    for w in m.outputs:
        if w not in wire_set:
            out.append(Violation("unknown-wire", w, "output is not a declared wire"))
    _, cyclic = _kahn(m)
    if cyclic:
        out.append(
            Violation("acyclic", cyclic[0], f"boxes on a cycle: {cyclic}")
        )
    return out


def ensure_valid(m: CausalModel) -> None:
    violations = validate_model(m)
    if violations:
        raise FinstochError(f"invalid model: {violations[0]}")


def _kahn(m: CausalModel) -> tuple[list[str], list[str]]:
    """Kahn peeling of the precedence relation, lexicographic among ready boxes.

    Returns the peeled box names and, sorted, the boxes never peeled
    because they sit on or behind a cycle.
    """
    succ = _successors(m)
    indeg = {b: 0 for b in succ}
    for tails in succ.values():
        for t in tails:
            indeg[t] += 1
    ready = [b for b, d in indeg.items() if d == 0]
    heapq.heapify(ready)
    order: list[str] = []
    while ready:
        b = heapq.heappop(ready)
        order.append(b)
        for t in succ[b]:
            indeg[t] -= 1
            if indeg[t] == 0:
                heapq.heappush(ready, t)
    return order, sorted(b for b, d in indeg.items() if d > 0)


def topo_order(m: CausalModel) -> list[Box]:
    """Boxes in a precedence-respecting order, lexicographic among ready ones."""
    order, cyclic = _kahn(m)
    if cyclic:
        raise FinstochError("model has a cycle")
    return [m.box(n) for n in order]


def _reachable(m: CausalModel, start: str) -> set[str]:
    """Boxes and wires reachable from start, start included."""
    succ: dict[str, list[str]] = {w: [] for w in m.wires}
    for b in m.boxes:
        succ.setdefault(b.name, []).extend(b.out_wires)
        for w in b.in_wires:
            succ.setdefault(w, []).append(b.name)
    seen = {start}
    stack = [start]
    while stack:
        for t in succ[stack.pop()]:
            if t not in seen:
                seen.add(t)
                stack.append(t)
    return seen


def reaches(m: CausalModel, a: str, b: str) -> bool:
    """Reflexive transitive reachability over boxes and wires."""
    nodes = {x.name for x in m.boxes}.union(m.wires)
    for n in (a, b):
        if n not in nodes:
            raise UnknownNode(f"no box or wire named {n!r}")
    return b in _reachable(m, a)


def non_descendants(m: CausalModel, box: str) -> frozenset[str]:
    """Wires the box cannot reach, not even through other boxes."""
    m.box(box)
    seen = _reachable(m, box)
    return frozenset(w for w in m.wires if w not in seen)


@dataclass(frozen=True, eq=False)
class TimingFunction:
    """Integer stage for each box; consumers must come strictly later."""

    times: Mapping[str, int]

    def __post_init__(self):
        object.__setattr__(self, "times", dict(self.times))

    def __getitem__(self, box: str) -> int:
        try:
            return self.times[box]
        except KeyError:
            raise UnknownNode(f"no time assigned to box {box!r}") from None


def validate_timing(m: CausalModel, t: TimingFunction) -> None:
    for name in t.times:
        m.box(name)
    for b in m.boxes:
        if b.name not in t.times:
            raise InvalidTiming(f"box {b.name!r} has no time")
    for b, tails in _successors(m).items():
        for c in tails:
            if not t[b] < t[c]:
                raise InvalidTiming(
                    f"box {b!r} (t={t[b]}) must come before {c!r} (t={t[c]})"
                )


def past(m: CausalModel, t: TimingFunction, box: str) -> frozenset[str]:
    """Wires emitted up to and including the box's stage."""
    m.box(box)
    validate_timing(m, t)
    cutoff = t[box]
    return frozenset(
        w for b in m.boxes if t[b.name] <= cutoff for w in b.out_wires
    )


def default_timing(m: CausalModel) -> TimingFunction:
    """Longest-path stages: each box one step after its latest producer."""
    ensure_valid(m)
    times: dict[str, int] = {}
    succ = _successors(m)
    preds: dict[str, list[str]] = {b.name: [] for b in m.boxes}
    for b, tails in succ.items():
        for t in tails:
            preds[t].append(b)
    for b in topo_order(m):
        times[b.name] = 1 + max((times[p] for p in preds[b.name]), default=0)
    return TimingFunction(times)


def expand_ah_model(rows: int, cols: int | None = None) -> CausalModel:
    """The row/column latent model on an explicit rows-by-cols grid.

    One source box emits the shared latent T; per-row and per-column
    boxes emit the tails R[i] and C[j]; one box per cell consumes
    (R[i], T, C[j]) and emits the entry S[i,j].
    """
    if cols is None:
        cols = rows
    wires = 1 + rows + cols + rows * cols
    if min(rows, cols) < 1 or wires > MAX_WIRES:
        raise SizeLimit(
            f"{rows}x{cols} grid: sides must be at least 1 and its {wires} wires "
            f"at most {MAX_WIRES}, the most a contraction can address"
        )
    boxes = [Box("alpha", (), ("T",))]
    for i in range(1, rows + 1):
        boxes.append(Box(f"beta[{i}]", ("T",), (f"R[{i}]",)))
    for j in range(1, cols + 1):
        boxes.append(Box(f"gamma[{j}]", ("T",), (f"C[{j}]",)))
    for i in range(1, rows + 1):
        for j in range(1, cols + 1):
            boxes.append(
                Box(f"eta[{i},{j}]", (f"R[{i}]", "T", f"C[{j}]"), (f"S[{i},{j}]",))
            )
    return make_model(boxes)
