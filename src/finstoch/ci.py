"""Numeric conditional-independence checks on joint states.

Joint independence of wire groups X_1..X_k given W is checked on the
raw (X_1..X_k, W) marginal of the state: the residual is the largest
|p(x_1..x_k, w) - p(x_b, w) * prod_{i != b} p(x_i | w)| over cells, with
the largest part X_b kept as a joint marginal.  A conditioning cell has
zero mass when p(w) is exactly 0; its conditionals are uniform and its
recomposition is exactly 0, so the comparison is exact on support.  A
statement validates nothing.  Summing out the wires it does not name
takes one gathering copy the size of the state; the residual itself
allocates at most three arrays the size of the marginal.  A check made
of several statements reads them from one table, computing each once.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAPartition, WireOverlap
from .kernels import JointState, _marginal, _normalize

WireGroup = Iterable[str]


def _as_groups(p: JointState, groups: Sequence[WireGroup], given: WireGroup):
    """Validate disjointness and return the groups in p's wire order."""
    sets = [frozenset(g) for g in groups] + [frozenset(given)]
    taken: set[str] = set()
    for g in sets:
        for w in g:
            p.wire_index(w)
            if w in taken:
                raise WireOverlap(f"wire {w!r} occurs in more than one group")
        taken |= g
    return [[w for w in p.wire_names if w in g] for g in sets]


def mutual_ci_residual(
    p: JointState, parts: Sequence[WireGroup], given: WireGroup = ()
) -> float:
    """Largest deviation from the joint factorization of parts given ``given``.

    Wires outside the parts and the conditioning set are marginalized
    first.  With two parts this is the usual binary conditional
    independence residual.
    """
    groups = _as_groups(p, parts, given)  # the parts, then the given wires
    k = len(groups) - 1
    sizes = [math.prod(p.carrier(w).size for w in g) for g in groups]
    order = sorted(range(k + 1), key=sizes.__getitem__)  # largest group innermost
    axis = [order.index(j) for j in range(k + 1)]
    flat = [w for j in order for w in groups[j]]
    arr = _marginal(p.array, p.wire_names, flat).reshape([sizes[j] for j in order])
    big = max(range(k), key=sizes.__getitem__, default=k)

    def part(i: int) -> np.ndarray:  # p(x_i, w), broadcastable against arr
        return arr.sum(axis=tuple(axis[j] for j in range(k) if j != i), keepdims=True)

    recomposed = part(big)
    # zero mass: where p(w) is exactly 0 the recomposition is exactly 0
    np.copyto(recomposed, 0.0, where=recomposed.sum(axis=axis[big], keepdims=True) == 0.0)
    for i in range(k):
        if i != big and sizes[i] > 1:  # a one-element part's conditional is 1
            recomposed = recomposed * _normalize(part(i), axis=axis[i])
    recomposed -= arr
    return float(np.abs(recomposed, out=recomposed).max())


def ci_residual(
    p: JointState, x: WireGroup, y: WireGroup, given: WireGroup = ()
) -> float:
    """Residual of X independent of Y given W on the state p."""
    return mutual_ci_residual(p, [x, y], given)


def _worst_residuals(p: JointState, families: Iterable[Iterable[tuple]]) -> list[float]:
    """Largest residual of each family of (parts, given) statements on p; 0 if empty.

    A statement is evaluated once, keyed by its parts and given wires as sets, with its
    parts ordered by their first wire in p, so its bits do not depend on how it is listed.
    """
    first = lambda part: min(map(p.wire_index, part))
    table = functools.cache(lambda ps, g: mutual_ci_residual(p, sorted(ps, key=first), g))
    return [
        max((table(frozenset(map(frozenset, ps)), frozenset(g)) for ps, g in family), default=0.0)
        for family in families
    ]


def common_refinement(
    blocks1: Sequence[WireGroup], blocks2: Sequence[WireGroup]
) -> list[frozenset[str]]:
    """Nonempty pairwise intersections of two partitions of one ground set."""
    b1 = [frozenset(b) for b in blocks1]
    b2 = [frozenset(b) for b in blocks2]
    for name, blocks in (("first", b1), ("second", b2)):
        if not blocks:
            raise NotAPartition(f"{name} partition has no blocks")
        if any(not b for b in blocks):
            raise NotAPartition(f"{name} partition contains an empty block")
        if sum(len(b) for b in blocks) != len(frozenset().union(*blocks)):
            raise NotAPartition(f"{name} partition has overlapping blocks")
    if frozenset().union(*b1) != frozenset().union(*b2):
        raise NotAPartition("the two partitions cover different ground sets")
    return [i & j for i in b1 for j in b2 if i & j]


def check_partition_lemma(
    p: JointState,
    blocks1: Sequence[WireGroup],
    blocks2: Sequence[WireGroup],
    given: WireGroup = (),
) -> tuple[float, float, float]:
    """Joint-independence residuals of two partitions and their refinement.

    Whenever both premises hold the conclusion must hold as well; the
    three residuals are returned separately so a failed premise is
    visible rather than vacuously passing.
    """
    partitions = (blocks1, blocks2, common_refinement(blocks1, blocks2))
    return tuple(_worst_residuals(p, [[(blocks, given)] for blocks in partitions]))
