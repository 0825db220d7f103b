"""Markov properties of joint states with respect to a causal model.

A box assignment attaches a carrier to every wire and a kernel to every
box.  Recomposition evaluates the model exactly, as one contraction of
every box's kernel; the local and ordered screening-off conditions are
per-box conditional independences, screening off the wires that
``non_descendants`` or ``past`` maps each box to; and factorization
peels boxes from the latest stage backwards, reading each kernel off as
a conditional of the current marginal.  The two screening-off families
share one statement table in ``markov_residuals``.  A model is checked
when it is built, so nothing here checks it again; on every model the
three notions (compatibility with some assignment, local, ordered) agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from .ci import _worst_residuals
from .errors import ShapeMismatch, UnknownNode, UnknownWire, WireMismatch
from .kernels import (
    FinSet,
    JointState,
    Kernel,
    _flat_size,
    _marginal,
    _normalize,
    contract,
    max_abs_diff,
    reindex,
)
from .models import (
    CausalModel,
    TimingFunction,
    default_timing,
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


def recompose(m: CausalModel, asg: BoxAssignment) -> JointState:
    """Exact joint over all wires obtained by running the model.

    Each wire's value is shared by every consumer and by the overall
    output, so the joint multiplies one kernel factor per box.  Every
    wire is an output, so the contraction sums nothing and multiplies
    its operands last first; listed in reverse topological order, the
    kernels multiply in topological order.
    """
    _check_assignment(m, asg)
    joint = contract(
        ((asg.kernels[b.name].array, b.in_wires + b.out_wires) for b in reversed(topo_order(m))),
        m.outputs,
    )
    return JointState.from_array(joint, [(w, asg.carriers[w]) for w in m.outputs])


def _require_same_wires(p: JointState, m: CausalModel) -> None:
    if set(p.wire_names) != set(m.wires):
        raise WireMismatch(
            "state wires and model wires differ: "
            f"{sorted(set(p.wire_names) ^ set(m.wires))}"
        )


def _screening_off(m: CausalModel, screened: Mapping[str, frozenset[str]]):
    """Per box: outputs _||_ screened[box] | inputs, for boxes that screen off any wire."""
    for b in m.boxes:
        rest = screened[b.name] - set(b.in_wires) - set(b.out_wires)
        if rest:
            yield [b.out_wires, rest], b.in_wires


def local_markov_residual(p: JointState, m: CausalModel) -> float:
    """Largest residual over boxes of: outputs _||_ non-descendants | inputs."""
    _require_same_wires(p, m)
    return _worst_residuals(p, [_screening_off(m, non_descendants(m))])[0]


def ordered_markov_residual(
    p: JointState, m: CausalModel, timing: TimingFunction | None = None
) -> float:
    """Largest residual over boxes of: outputs _||_ earlier wires | inputs."""
    _require_same_wires(p, m)
    t = default_timing(m) if timing is None else timing
    return _worst_residuals(p, [_screening_off(m, past(m, t))])[0]


def markov_residuals(
    p: JointState, m: CausalModel, timing: TimingFunction | None = None
) -> tuple[float, float]:
    """The local and the ordered residual, each shared statement evaluated once."""
    _require_same_wires(p, m)
    t = default_timing(m) if timing is None else timing
    families = [_screening_off(m, non_descendants(m)), _screening_off(m, past(m, t))]
    return tuple(_worst_residuals(p, families))


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
    _require_same_wires(p, m)
    t = default_timing(m) if timing is None else timing
    validate_timing(m, t)
    remaining = sorted(m.boxes, key=lambda b: (t[b.name], b.name))
    kernels: dict[str, Kernel] = {}
    arr, names = p.array, list(p.wire_names)
    while remaining:
        b = remaining.pop()
        dom, cod = (tuple(map(p.carrier, ws)) for ws in (b.in_wires, b.out_wires))
        t = _marginal(arr, names, b.in_wires + b.out_wires).reshape(_flat_size(dom), -1)
        kernels[b.name] = Kernel(dom, cod, _normalize(t, axis=1))
        keep = [w for w in names if w not in b.out_wires]
        arr, names = _marginal(arr, names, keep), keep
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
