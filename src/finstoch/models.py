"""Wiring diagrams of named boxes whose every wire is an overall output.

A model lists boxes with input and output wires.  Validity asks that
every box and wire has a non-empty name of its own, that each wire is
produced by exactly one box, that nothing is consumed from outside,
that no box reads one wire twice (a wire may feed any number of
boxes), that every wire appears exactly once among the declared
overall outputs, and that the box-level precedence relation is acyclic.
A model is checked once, when it is built: ``CausalModel`` raises
``InvalidModel`` listing every violation, so every other function takes
a valid, acyclic model.  The topological order, every box's
non-descendant and past wires, timing functions and the row/column
latent expansion all live here.
"""

from __future__ import annotations

import heapq
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .errors import MAX_WIRES, InvalidModel, InvalidTiming, SizeLimit, UnknownNode


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
        violations = validate_model(self)
        if violations:
            raise InvalidModel(violations)


def make_model(boxes: Iterable[Box]) -> CausalModel:
    """Assemble a model from boxes; its wires and outputs are in sorted order."""
    boxes = tuple(boxes)
    wires = tuple(sorted({w for b in boxes for w in b.out_wires + b.in_wires}))
    return CausalModel(wires, boxes, wires)


@dataclass(frozen=True)
class Violation:
    rule: str
    subject: str
    detail: str

    def __str__(self) -> str:
        subject = self.subject or "''"  # an empty name would print as nothing
        return f"{self.rule}: {subject}: {self.detail}"


def _successors(m: CausalModel) -> dict[str, set[str]]:
    """Box-level precedence: b precedes c when c consumes a wire of b."""
    produced = {w: b.name for b in m.boxes for w in b.out_wires}
    succ: dict[str, set[str]] = {b.name: set() for b in m.boxes}
    for c in m.boxes:
        for w in c.in_wires:
            if w in produced:
                succ[produced[w]].add(c.name)
    return succ


def _repeats(xs: Iterable[str]) -> list[str]:
    """The items that occur more than once, sorted."""
    return sorted(x for x, k in Counter(xs).items() if k > 1)


def validate_model(m: CausalModel) -> list[Violation]:
    """All rule violations, each naming the offending wire or box."""
    out: list[Violation] = []
    names = [b.name for b in m.boxes]
    if "" in names:
        out.append(Violation("box-names", "", "box name is empty"))
    for n in _repeats(names):
        out.append(Violation("box-names", n, "box name declared more than once"))
    wire_set = set(m.wires)
    if "" in wire_set:
        out.append(Violation("wire-names", "", "wire name is empty"))
    for w in _repeats(m.wires):
        out.append(Violation("wire-names", w, "wire declared more than once"))
    for n in sorted(set(names) & wire_set):
        out.append(Violation("node-names", n, "name used for both a box and a wire"))
    for b in m.boxes:
        if not b.out_wires:
            out.append(Violation("box-outputs", b.name, "box emits no wires"))
        for w in _repeats(b.out_wires):
            out.append(
                Violation("produced-once", w, f"box {b.name!r} emits it twice")
            )
        for w in _repeats(b.in_wires):
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
    counts = Counter(m.outputs)
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
    cyclic = sorted({b.name for b in m.boxes}.difference(_kahn(m)))
    if cyclic:
        out.append(
            Violation("acyclic", cyclic[0], f"boxes on a cycle: {cyclic}")
        )
    return out


def _kahn(m: CausalModel) -> list[str]:
    """Kahn peeling of the precedence relation, lexicographic among ready boxes.

    Boxes on or behind a cycle are never peeled, so they are missing
    from the returned names.
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
    return order


def topo_order(m: CausalModel) -> list[Box]:
    """Boxes in a precedence-respecting order, lexicographic among ready ones."""
    by_name = {b.name: b for b in m.boxes}
    return [by_name[n] for n in _kahn(m)]


def non_descendants(m: CausalModel) -> dict[str, frozenset[str]]:
    """For each box, the wires it cannot reach, not even through other boxes.

    A box reaches its outputs and whatever the boxes consuming them
    reach, so one pass in reverse topological order builds every box's
    reachable wires from those of its successors.
    """
    succ = _successors(m)
    reach: dict[str, set[str]] = {}
    for b in reversed(topo_order(m)):
        seen = reach[b.name] = set(b.out_wires)
        for c in succ[b.name]:
            seen |= reach[c]
    return {
        b.name: frozenset(w for w in m.wires if w not in reach[b.name])
        for b in m.boxes
    }


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
    names = {b.name for b in m.boxes}
    for name in t.times:
        if name not in names:
            raise UnknownNode(f"no box named {name!r}")
    for b in m.boxes:
        if b.name not in t.times:
            raise InvalidTiming(f"box {b.name!r} has no time")
    # producers in model order, consumers by name: the first pair reported
    # does not depend on how the hash seed orders a set
    for b, tails in _successors(m).items():
        for c in sorted(tails):
            if not t[b] < t[c]:
                raise InvalidTiming(
                    f"box {b!r} (t={t[b]}) must come before {c!r} (t={t[c]})"
                )


def past(m: CausalModel, t: TimingFunction) -> dict[str, frozenset[str]]:
    """For each box, the wires emitted up to and including its stage."""
    validate_timing(m, t)
    emitted: dict[int, list[str]] = {}
    for b in m.boxes:
        emitted.setdefault(t[b.name], []).extend(b.out_wires)
    upto: dict[int, frozenset[str]] = {}
    wires: frozenset[str] = frozenset()
    for stage in sorted(emitted):
        wires = upto[stage] = wires.union(emitted[stage])
    return {b.name: upto[t[b.name]] for b in m.boxes}


def default_timing(m: CausalModel) -> TimingFunction:
    """Longest-path stages: each box one step after its latest producer."""
    produced = {w: b.name for b in m.boxes for w in b.out_wires}
    times: dict[str, int] = {}
    for b in topo_order(m):
        times[b.name] = 1 + max((times[produced[w]] for w in b.in_wires), default=0)
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
