"""Markov properties of joint states with respect to a causal model.

A box assignment attaches a carrier to every wire and a kernel to every
box.  Recomposition evaluates the model exactly; the local and ordered
screening-off conditions are per-box conditional independences; and
factorization peels boxes from the latest stage backwards, reading each
kernel off as a conditional of the current marginal.  For valid models
the three notions (compatibility with some assignment, local, ordered)
agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .ci import ci_residual
from .errors import ShapeMismatch, UnknownNode, UnknownWire, WireMismatch
from .kernels import (
    DEFAULT_ATOL,
    MAX_ENTRIES,
    FinSet,
    JointState,
    Kernel,
    conditional,
    contract,
    marginalize,
    max_abs_diff,
    reindex,
)
from .models import (
    Box,
    CausalModel,
    TimingFunction,
    default_timing,
    ensure_valid,
    non_descendants,
    past,
    topo_order,
    validate_timing,
)


@dataclass(frozen=True, eq=False)
class BoxAssignment:
    """A carrier per wire and a kernel per box."""

    carriers: Mapping[str, FinSet]
    kernels: Mapping[str, Kernel]

    def __post_init__(self):
        object.__setattr__(self, "carriers", dict(self.carriers))
        object.__setattr__(self, "kernels", dict(self.kernels))


def _check_assignment(m: CausalModel, asg: BoxAssignment) -> None:
    for w in m.wires:
        if w not in asg.carriers:
            raise UnknownWire(f"no carrier assigned to wire {w!r}")
    for b in m.boxes:
        k = asg.kernels.get(b.name)
        if k is None:
            raise UnknownNode(f"no kernel assigned to box {b.name!r}")
        want_dom = tuple(asg.carriers[w] for w in b.in_wires)
        want_cod = tuple(asg.carriers[w] for w in b.out_wires)
        if k.dom != want_dom or k.cod != want_cod:
            raise ShapeMismatch(
                f"kernel for box {b.name!r} does not match its wires"
            )


def recompose(
    m: CausalModel, asg: BoxAssignment, max_entries: int = MAX_ENTRIES
) -> JointState:
    """Exact joint over all wires obtained by running the model.

    Each wire's value is shared by every consumer and by the overall
    output, so the joint multiplies one kernel factor per box.
    """
    ensure_valid(m)
    _check_assignment(m, asg)
    current, have = np.ones(()), ()
    for b in topo_order(m):
        operands = [(current, have), (asg.kernels[b.name].array, b.in_wires + b.out_wires)]
        have += b.out_wires
        current = contract(operands, have, max_entries)
    current = contract([(current, have)], m.outputs, max_entries)
    return JointState.from_array(
        current, [(w, asg.carriers[w]) for w in m.outputs]
    )


def _require_same_wires(p: JointState, m: CausalModel) -> None:
    if set(p.wire_names) != set(m.wires):
        raise WireMismatch(
            "state wires and model wires differ: "
            f"{sorted(set(p.wire_names) ^ set(m.wires))}"
        )


def local_markov_residual(p: JointState, m: CausalModel) -> float:
    """Largest residual over boxes of: outputs _||_ non-descendants | inputs."""
    ensure_valid(m)
    _require_same_wires(p, m)
    worst = 0.0
    for b in m.boxes:
        rest = non_descendants(m, b.name) - set(b.in_wires)
        if not rest:
            continue
        worst = max(worst, ci_residual(p, b.out_wires, rest, b.in_wires))
    return worst


def check_local_markov(
    p: JointState, m: CausalModel, atol: float = DEFAULT_ATOL
) -> bool:
    return local_markov_residual(p, m) <= atol


def ordered_markov_residual(
    p: JointState, m: CausalModel, timing: TimingFunction | None = None
) -> float:
    """Largest residual over boxes of: outputs _||_ earlier wires | inputs."""
    ensure_valid(m)
    _require_same_wires(p, m)
    t = default_timing(m) if timing is None else timing
    validate_timing(m, t)
    worst = 0.0
    for b in m.boxes:
        rest = past(m, t, b.name) - set(b.in_wires) - set(b.out_wires)
        if not rest:
            continue
        worst = max(worst, ci_residual(p, b.out_wires, rest, b.in_wires))
    return worst


def check_ordered_markov(
    p: JointState,
    m: CausalModel,
    timing: TimingFunction | None = None,
    atol: float = DEFAULT_ATOL,
) -> bool:
    return ordered_markov_residual(p, m, timing) <= atol


def factorize(
    p: JointState, m: CausalModel, timing: TimingFunction | None = None
) -> BoxAssignment:
    """Read a kernel for every box off the state, latest stage first.

    The kernel of a peeled box is the conditional of the current
    marginal on its inputs and outputs, given the inputs; the box's
    outputs are then summed out and the next box is peeled.  For states
    compatible with the model this recomposes to p exactly; the
    recomposition residual is the caller's compatibility certificate.
    """
    ensure_valid(m)
    _require_same_wires(p, m)
    t = default_timing(m) if timing is None else timing
    validate_timing(m, t)
    remaining = sorted(m.boxes, key=lambda b: (t[b.name], b.name))
    kernels: dict[str, Kernel] = {}
    q = p
    while remaining:
        b = remaining.pop()
        keep = list(b.in_wires) + list(b.out_wires)
        marg = reindex(marginalize(q, keep), keep)
        kernels[b.name] = conditional(
            marg.kernel, range(len(b.in_wires))
        )
        q = marginalize(q, set(q.wire_names) - set(b.out_wires))
    carriers = {w: p.carrier(w) for w in m.wires}
    return BoxAssignment(carriers, kernels)


def recomposition_residual(p: JointState, m: CausalModel, asg: BoxAssignment) -> float:
    """Largest entrywise deviation of the model run on asg from p."""
    return max_abs_diff(reindex(recompose(m, asg), p.wire_names).kernel, p.kernel)


def compatibility_residual(
    p: JointState, m: CausalModel, timing: TimingFunction | None = None
) -> float:
    """Recomposition error of the constructive factorization of p along m."""
    return recomposition_residual(p, m, factorize(p, m, timing))


def check_compatible(
    p: JointState, m: CausalModel, atol: float = DEFAULT_ATOL
) -> bool:
    """True iff p factors through the model within atol."""
    return compatibility_residual(p, m) <= atol
