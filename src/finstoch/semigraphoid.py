"""Symbolic conditional-independence statements and derivations.

Statements are triples of disjoint symbol sets.  ``RULES`` holds the
four semigraphoid rules (symmetry, decomposition, weak union,
contraction) and nothing else: derivations replay a proof step by step
against it, and the closure forward-chains the same four from a set of
axioms over a finite ground set.

The closure works on (left, right, given) triples of int bitmasks over
the sorted ground set and builds each CIStatement once, when it
returns.  It finds the contraction partners of a statement by two exact
dict lookups, keyed by (left, given) and (left, right|given), so its
contraction work is proportional to the pairs it forms, not to the
number of statements sharing the left set, which a scan would touch.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

from .errors import BudgetExceeded, ShapeMismatch, UnknownWire, WireOverlap


@dataclass(frozen=True)
class CIStatement:
    """left independent of right, conditional on given."""

    left: frozenset[str]
    right: frozenset[str]
    given: frozenset[str] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "left", frozenset(self.left))
        object.__setattr__(self, "right", frozenset(self.right))
        object.__setattr__(self, "given", frozenset(self.given))
        if not self.left or not self.right:
            raise ShapeMismatch("a statement needs nonempty sides")
        if (
            self.left & self.right
            or self.left & self.given
            or self.right & self.given
        ):
            raise WireOverlap(f"statement groups overlap: {self}")

    @property
    def symbols(self) -> frozenset[str]:
        return self.left | self.right | self.given

    def __str__(self) -> str:
        def fmt(s: frozenset[str]) -> str:
            return ",".join(sorted(s))

        return f"{fmt(self.left)} _||_ {fmt(self.right)} | {fmt(self.given)}"


def _is_symmetry(premises: Sequence[CIStatement], c: CIStatement) -> bool:
    if len(premises) != 1:
        return False
    (p,) = premises
    return c.left == p.right and c.right == p.left and c.given == p.given


def _is_decomposition(premises: Sequence[CIStatement], c: CIStatement) -> bool:
    # X1,X2 _||_ Y | W entails X1 _||_ Y | W
    if len(premises) != 1:
        return False
    (p,) = premises
    return c.left <= p.left and c.right == p.right and c.given == p.given


def _is_weak_union(premises: Sequence[CIStatement], c: CIStatement) -> bool:
    # X1,X2 _||_ Y | W entails X1 _||_ Y | W,X2
    if len(premises) != 1:
        return False
    (p,) = premises
    if not c.left <= p.left or c.right != p.right:
        return False
    return c.given == p.given | (p.left - c.left)


def _contraction_once(p1: CIStatement, p2: CIStatement, c: CIStatement) -> bool:
    # p1: X _||_ Y | Z,W and p2: X _||_ Z | W entail X _||_ Z,Y | W
    if p1.left != p2.left or c.left != p2.left:
        return False
    if c.given != p2.given or p1.given != p2.right | p2.given:
        return False
    return c.right == p2.right | p1.right


def _is_contraction(premises: Sequence[CIStatement], c: CIStatement) -> bool:
    if len(premises) != 2:
        return False
    a, b = premises
    return _contraction_once(a, b, c) or _contraction_once(b, a, c)


RULES = {
    "symmetry": _is_symmetry,
    "decomposition": _is_decomposition,
    "weak_union": _is_weak_union,
    "contraction": _is_contraction,
}


@dataclass(frozen=True)
class DerivationStep:
    rule: str
    premises: tuple[int, ...]
    conclusion: CIStatement

    def __post_init__(self):
        object.__setattr__(self, "premises", tuple(int(i) for i in self.premises))


@dataclass(frozen=True)
class Derivation:
    """A replayable proof: axioms, then steps over a shared index space.

    Premise indices below ``len(axioms)`` refer to axioms; higher
    indices refer to conclusions of earlier steps, offset by the axiom
    count.
    """

    symbols: tuple[str, ...]
    axioms: tuple[CIStatement, ...]
    steps: tuple[DerivationStep, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", tuple(self.symbols))
        object.__setattr__(self, "axioms", tuple(self.axioms))
        object.__setattr__(self, "steps", tuple(self.steps))
        declared = set(self.symbols)
        for stmt in itertools.chain(
            self.axioms, (s.conclusion for s in self.steps)
        ):
            stray = stmt.symbols - declared
            if stray:
                raise UnknownWire(
                    f"statement uses undeclared symbols {sorted(stray)}"
                )

    def statements(self) -> list[CIStatement]:
        """Axioms followed by step conclusions, in premise-index order."""
        return list(self.axioms) + [s.conclusion for s in self.steps]


@dataclass(frozen=True)
class DerivationReport:
    ok: bool
    failed_step: int | None = None
    failed_rule: str | None = None
    message: str = ""

    def __bool__(self) -> bool:
        return self.ok


def validate_derivation(d: Derivation) -> DerivationReport:
    """Replay a derivation; report the first step that is not a rule instance."""
    known: list[CIStatement] = list(d.axioms)
    for k, step in enumerate(d.steps):
        checker = RULES.get(step.rule)
        if checker is None:
            return DerivationReport(False, k, step.rule, f"unknown rule {step.rule!r}")
        if any(i < 0 or i >= len(known) for i in step.premises):
            return DerivationReport(
                False, k, step.rule, f"premise index out of range in step {k}"
            )
        premises = [known[i] for i in step.premises]
        if not checker(premises, step.conclusion):
            return DerivationReport(
                False,
                k,
                step.rule,
                f"step {k} is not an instance of {step.rule}: {step.conclusion}",
            )
        known.append(step.conclusion)
    return DerivationReport(True)


Provenance = tuple[str, tuple[CIStatement, ...]]


@dataclass(frozen=True, eq=False)
class Closure:
    """Statements reachable from the axioms, with their provenance."""

    statements: frozenset[CIStatement]
    complete: bool
    ground: tuple[str, ...]
    axioms: tuple[CIStatement, ...]
    provenance: Mapping[CIStatement, Provenance] = field(repr=False)

    def derivation(self, *goals: CIStatement) -> Derivation:
        """A replayable derivation of closure statements from the axioms.

        The goals are visited in turn, each after the premises it rests
        on, and no statement is derived twice, so the first goal gets the
        steps it gets alone.
        """
        for stmt in goals:
            if stmt not in self.statements:
                raise UnknownWire(f"statement not in closure: {stmt}")
        order: list[CIStatement] = []
        seen: set[CIStatement] = set()

        def visit(s: CIStatement):
            if s in seen:
                return
            seen.add(s)
            rule, premises = self.provenance[s]
            for q in premises:
                visit(q)
            if rule != "axiom":
                order.append(s)

        for stmt in goals:
            visit(stmt)
        index = {s: i for i, s in enumerate(self.axioms)}
        steps = []
        for s in order:
            rule, premises = self.provenance[s]
            steps.append(
                DerivationStep(rule, tuple(index[q] for q in premises), s)
            )
            index[s] = len(index)
        return Derivation(self.ground, self.axioms, tuple(steps))


def semigraphoid_closure(
    axioms: Iterable[CIStatement],
    ground: Iterable[str],
    budget: int = 10_000,
) -> Closure:
    """Forward-chain the four core rules from the axioms to a fixed point.

    ``budget`` caps the number of statements derived beyond the axioms;
    exceeding it raises BudgetExceeded with the partial closure (its
    ``complete`` flag cleared) attached.
    """
    ground = tuple(sorted(set(ground)))
    bit = {s: 1 << i for i, s in enumerate(ground)}
    axioms = tuple(dict.fromkeys(axioms))
    for a in axioms:
        stray = a.symbols - bit.keys()
        if stray:
            raise UnknownWire(f"axiom uses symbols outside ground: {sorted(stray)}")

    # statement k is triples[k], a (left, right, given) triple of bitmasks
    # over ground, derived by origin[triples[k]] = (rule, premise numbers)
    triples: list[tuple[int, int, int]] = []
    origin: dict[tuple[int, int, int], tuple[str, tuple[int, ...]]] = {}
    by_lg: dict[tuple[int, int], list[int]] = {}
    by_lrg: dict[tuple[int, int], list[int]] = {}
    splits: dict[int, list[tuple[int, int]]] = {}

    def close(complete: bool) -> Closure:
        masks = {m for t in triples[len(axioms) :] for m in t}
        names = {m: frozenset(s for s in ground if m & bit[s]) for m in masks}
        stmts = list(axioms) + [
            CIStatement(names[l], names[r], names[g])
            for l, r, g in triples[len(axioms) :]
        ]
        provenance = {
            s: (rule, tuple(stmts[i] for i in premises))
            for s, (rule, premises) in zip(stmts, origin.values())
        }
        return Closure(frozenset(stmts), complete, ground, axioms, provenance)

    def admit(t: tuple[int, int, int], rule: str, premises: tuple[int, ...]):
        if t in origin:
            return
        if rule != "axiom" and len(triples) - len(axioms) >= budget:
            raise BudgetExceeded(
                f"closure budget of {budget} exhausted", partial=close(False)
            )
        origin[t] = (rule, premises)
        l, r, g = t
        by_lg.setdefault((l, g), []).append(len(triples))
        by_lrg.setdefault((l, r | g), []).append(len(triples))
        triples.append(t)

    for a in axioms:
        sides = (a.left, a.right, a.given)
        admit(tuple(sum(bit[s] for s in x) for x in sides), "axiom", ())

    # a FIFO queue: the walk reaches the statements admitted while it runs
    for k, (l, r, g) in enumerate(triples):
        admit((r, l, g), "symmetry", (k,))
        if l not in splits:
            # proper subsets of the left side by size, then lexicographically
            ones = [b for b in bit.values() if l & b]
            splits[l] = [
                (x, l ^ x)
                for size in range(1, len(ones))
                for x in map(sum, itertools.combinations(ones, size))
            ]
        for x, rest in splits[l]:
            admit((x, r, g), "decomposition", (k,))
            admit((x, r, g | rest), "weak_union", (k,))
        # contraction: X _||_ Y | Z,W and X _||_ Z | W give X _||_ Y,Z | W.
        # Partners t share the left side; k is the first premise when
        # t.right|t.given == g, the second when t.given == r|g.  Neither
        # index holds k itself, and none holds a statement twice.
        for j in sorted(by_lrg.get((l, g), []) + by_lg.get((l, r | g), [])):
            _, rj, gj = triples[j]
            if rj | gj == g:
                admit((l, rj | r, gj), "contraction", (k, j))
            else:
                admit((l, r | rj, g), "contraction", (j, k))
    return close(True)
