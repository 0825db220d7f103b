"""Numeric conditional-independence checks on joint states.

Joint independence of wire groups X_1..X_k given W is checked on the
raw (X_1..X_k, W) marginal of the state: the residual is the largest
|p(x_1..x_k, w) - p(x_b, w) * prod_{i != b} p(x_i | w)| over cells, with
the largest part X_b kept as a joint marginal.  A conditioning cell has
zero mass when p(w) is exactly 0; its conditionals are uniform and its
recomposition is exactly 0, so the comparison is exact on support.  A
statement validates nothing.  A statement writes into a scratch of
three flat buffers the size of the state: the gathering copy that
brings the wires it names into order, the marginal that sums out the
others, and p(x_b, w); the recomposition then overwrites the gathering
copy.  A check made of several
statements reads them from one table, which computes each once and
allocates one scratch for all of them, so no statement asks the
allocator for fresh pages.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAPartition, ShapeMismatch, WireOverlap
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


def _scratch(p: JointState) -> list[np.ndarray]:
    """Three flat float buffers the size of p, allocated without being written."""
    return [np.empty(p.array.size) for _ in range(3)]


def _check_scratch(p: JointState, scratch: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
    """Refuse a scratch a statement could not write without corrupting its own entries."""
    if len(scratch) != 3:
        raise ShapeMismatch(f"scratch has {len(scratch)} buffers, not 3")
    for b in scratch:
        if b.dtype != np.float64 or b.ndim != 1 or not b.flags.c_contiguous or not b.flags.writeable:
            raise ShapeMismatch("scratch buffers must be flat, writeable, C-contiguous float64")
        if b.size < p.array.size:
            raise ShapeMismatch(f"scratch buffer has {b.size} entries, the state {p.array.size}")
    if any(np.shares_memory(a, b) for i, a in enumerate(scratch) for b in scratch[i + 1 :]):
        raise ShapeMismatch("scratch buffers overlap")
    return scratch


def mutual_ci_residual(
    p: JointState,
    parts: Sequence[WireGroup],
    given: WireGroup = (),
    *,
    scratch: Sequence[np.ndarray] | None = None,
) -> float:
    """Largest deviation from the joint factorization of parts given ``given``.

    Wires outside the parts and the conditioning set are marginalized
    first.  With two parts this is the usual binary conditional
    independence residual.  ``scratch`` is internal: the statement table
    of ``_worst_residuals`` passes its three buffers to every statement.
    By default the call makes its own; a scratch that is not three
    disjoint, flat float64 buffers of at least p's size is refused.
    """
    groups = _as_groups(p, parts, given)  # the parts, then the given wires
    k = len(groups) - 1
    sizes = [math.prod(p.carrier(w).size for w in g) for g in groups]
    order = sorted(range(k + 1), key=sizes.__getitem__)  # largest group innermost
    axis = [order.index(j) for j in range(k + 1)]
    flat = [w for j in order for w in groups[j]]
    gather, marginal, third = _check_scratch(p, _scratch(p) if scratch is None else scratch)
    arr = _marginal(p.array, p.wire_names, flat, gather, marginal)
    arr = arr.reshape([sizes[j] for j in order])
    big = max(range(k), key=sizes.__getitem__, default=k)

    def part(i: int, out=None) -> np.ndarray:  # p(x_i, w), broadcastable against arr
        summed = tuple(axis[j] for j in range(k) if j != i)
        return np.add.reduce(arr, axis=summed, keepdims=True, out=out)

    kept = [sizes[j] if j in (big, k) else 1 for j in order]
    joint_b = part(big, third[: math.prod(kept)].reshape(kept))  # p(x_b, w)
    # zero mass: where p(w) is exactly 0 the recomposition is exactly 0
    np.copyto(joint_b, 0.0, where=joint_b.sum(axis=axis[big], keepdims=True) == 0.0)
    recomposed = gather[: arr.size].reshape(arr.shape)
    np.copyto(recomposed, joint_b)
    for i in range(k):
        if i != big and sizes[i] > 1:  # a one-element part's conditional is 1
            recomposed *= _normalize(part(i), axis=axis[i])
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
    scratch = _scratch(p)  # every statement overwrites the same three buffers
    table = functools.cache(
        lambda ps, g: mutual_ci_residual(p, sorted(ps, key=first), g, scratch=scratch)
    )
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
