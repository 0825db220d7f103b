"""Numeric conditional-independence checks on joint states.

Independence of wire groups X and Y given W is checked constructively:
conditional kernels of the (X,W) and (Y,W) marginals given W are
recomposed with the W marginal and compared entrywise to the (X,Y,W)
marginal.  Zero-mass conditioning cells recompose to zero either way,
so the comparison is exact on support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import NotAPartition, WireOverlap
from .kernels import DEFAULT_ATOL, JointState, marginalize, reindex

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


def _conditionals(arr: np.ndarray):
    """Row-normalize a (group, W)-shaped table; uniform at zero mass."""
    mass = arr.sum(axis=0, keepdims=True)
    null = mass == 0.0
    out = arr / np.where(null, 1.0, mass)
    return np.where(null, 1.0 / arr.shape[0], out)


def mutual_ci_residual(
    p: JointState, parts: Sequence[WireGroup], given: WireGroup = ()
) -> float:
    """Largest deviation from the joint factorization of parts given ``given``.

    Wires outside the parts and the conditioning set are marginalized
    first.  With two parts this is the usual binary conditional
    independence residual.
    """
    *ordered_parts, ordered_given = _as_groups(p, parts, given)
    flat = [w for g in ordered_parts for w in g] + ordered_given
    q = reindex(marginalize(p, flat), flat)
    sizes = [
        math.prod(q.carrier(w).size for w in g) for g in ordered_parts
    ]
    nw = math.prod(q.carrier(w).size for w in ordered_given)
    arr = q.array.reshape(sizes + [nw])
    k = len(sizes)
    recomposed = arr.sum(axis=tuple(range(k)))
    for i in range(k):
        others = tuple(j for j in range(k) if j != i)
        cond = _conditionals(arr.sum(axis=others))
        recomposed = recomposed * np.expand_dims(cond, others)
    return float(np.abs(arr - recomposed).max())


def check_mutual_ci(
    p: JointState,
    parts: Sequence[WireGroup],
    given: WireGroup = (),
    atol: float = DEFAULT_ATOL,
) -> bool:
    """True iff the parts are jointly independent given ``given`` within atol."""
    return mutual_ci_residual(p, parts, given) <= atol


def ci_residual(
    p: JointState, x: WireGroup, y: WireGroup, given: WireGroup = ()
) -> float:
    """Residual of X independent of Y given W on the state p."""
    return mutual_ci_residual(p, [x, y], given)


def check_ci(
    p: JointState,
    x: WireGroup,
    y: WireGroup,
    given: WireGroup = (),
    atol: float = DEFAULT_ATOL,
) -> bool:
    """True iff wire group X is independent of Y given W, within atol."""
    return ci_residual(p, x, y, given) <= atol


@dataclass(frozen=True)
class PartitionReport:
    """Premises and conclusion of the two-partition independence check."""

    premise_left: bool
    premise_right: bool
    conclusion: bool
    residuals: tuple[float, float, float]


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
    atol: float = DEFAULT_ATOL,
) -> PartitionReport:
    """Check joint independence for two partitions and their refinement.

    Whenever both premises hold the conclusion must hold as well; the
    three checks are reported independently so a failed premise is
    visible rather than vacuously passing.
    """
    refinement = common_refinement(blocks1, blocks2)
    r1 = mutual_ci_residual(p, list(blocks1), given)
    r2 = mutual_ci_residual(p, list(blocks2), given)
    r3 = mutual_ci_residual(p, refinement, given)
    return PartitionReport(
        premise_left=r1 <= atol,
        premise_right=r2 <= atol,
        conclusion=r3 <= atol,
        residuals=(r1, r2, r3),
    )
