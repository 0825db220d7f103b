"""JSON document formats for every value the command line exchanges.

All loaders check the JSON type of every field and re-validate through
the library constructors, so malformed or non-stochastic documents fail
with ShapeMismatch naming the offending field.  Matrices are stored
row-major: rows enumerate domain tuples lexicographically by factor
order then element order, and likewise for the columns.

Each loader imports the types it builds when it runs, so reading a
model, timing or derivation loads no numpy, and a process loads only
the modules of the documents it reads.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Any, Mapping

from .errors import DEFAULT_ATOL, FinstochError, ShapeMismatch

if TYPE_CHECKING:
    from .exchange import AHSpec
    from .kernels import FinSet, JointState, Kernel
    from .markov import BoxAssignment
    from .models import CausalModel, TimingFunction
    from .quantiles import QuantileFunction
    from .semigraphoid import CIStatement, Derivation


_NOUNS = {list: "a list", str: "a string", int: "an integer", (int, float): "a number"}


def _get(obj: Any, key: str, where: str, kind: Any = object) -> Any:
    """Field key of the object obj, of type kind; a number is never a boolean."""
    if not isinstance(obj, Mapping):
        raise ShapeMismatch(f"{where}: expected an object")
    if key not in obj:
        raise ShapeMismatch(f"{where}: missing field {key!r}")
    value = obj[key]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind in _NOUNS):
        raise ShapeMismatch(f"{where}.{key}: expected {_NOUNS.get(kind, 'an object')}")
    return value


def _strings(value: Any, where: str) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ShapeMismatch(f"{where}: expected a list of strings")
    return list(value)


def finset_to_json(fs: FinSet) -> dict:
    return {"label": fs.label, "elements": list(fs.elements)}


def finset_from_json(obj: Any, where: str = "carrier") -> FinSet:
    from .kernels import FinSet

    label = _get(obj, "label", where, str)
    elements = _strings(_get(obj, "elements", where), f"{where}.elements")
    return FinSet(label, tuple(elements))


def kernel_to_json(k: Kernel) -> dict:
    return {
        "dom": [finset_to_json(f) for f in k.dom],
        "cod": [finset_to_json(f) for f in k.cod],
        "rows": k.matrix.tolist(),
    }


def kernel_from_json(obj: Any, atol: float = DEFAULT_ATOL, where: str = "kernel") -> Kernel:
    import numpy as np

    from .kernels import Kernel

    dom = [
        finset_from_json(f, f"{where}.dom[{i}]")
        for i, f in enumerate(_get(obj, "dom", where, list))
    ]
    cod = [
        finset_from_json(f, f"{where}.cod[{i}]")
        for i, f in enumerate(_get(obj, "cod", where, list))
    ]
    rows = _get(obj, "rows", where, list)
    try:
        mat = np.asarray(rows)
        # numpy reads a JSON true among numbers as 1.0; one pass finds it
        if mat.dtype.kind not in "fiu" or (
            mat.ndim == 2 and bool in map(type, itertools.chain.from_iterable(rows))
        ):
            raise ShapeMismatch("expected rows of numbers")
        return Kernel(tuple(dom), tuple(cod), mat, atol)
    except (FinstochError, TypeError, ValueError) as e:
        raise ShapeMismatch(f"{where}.rows: {e}") from e


def state_to_json(p: JointState) -> dict:
    out = kernel_to_json(p.kernel)
    out["wire_names"] = list(p.wire_names)
    return out


def state_from_json(obj: Any, atol: float = DEFAULT_ATOL, where: str = "state") -> JointState:
    from .kernels import JointState

    kernel = kernel_from_json(obj, atol, where)
    names = _strings(_get(obj, "wire_names", where), f"{where}.wire_names")
    try:
        return JointState(kernel, tuple(names))
    except FinstochError as e:
        raise ShapeMismatch(f"{where}.wire_names: {e}") from e


def model_to_json(m: CausalModel) -> dict:
    return {
        "wires": list(m.wires),
        "boxes": [
            {"name": b.name, "in": list(b.in_wires), "out": list(b.out_wires)}
            for b in m.boxes
        ],
        "outputs": list(m.outputs),
    }


def model_from_json(obj: Any, where: str = "model") -> CausalModel:
    from .models import Box, CausalModel

    wires = _strings(_get(obj, "wires", where), f"{where}.wires")
    boxes = []
    for i, b in enumerate(_get(obj, "boxes", where, list)):
        bw = f"{where}.boxes[{i}]"
        name = _get(b, "name", bw, str)
        boxes.append(
            Box(
                name,
                tuple(_strings(_get(b, "in", bw), f"{bw}.in")),
                tuple(_strings(_get(b, "out", bw), f"{bw}.out")),
            )
        )
    outputs = _strings(_get(obj, "outputs", where), f"{where}.outputs")
    return CausalModel(tuple(wires), tuple(boxes), tuple(outputs))


def timing_to_json(t: TimingFunction) -> dict:
    return dict(t.times)


def timing_from_json(obj: Any, where: str = "timing") -> TimingFunction:
    from .models import TimingFunction

    if not isinstance(obj, Mapping):
        raise ShapeMismatch(f"{where}: expected an object of box times")
    times = {}
    for name, value in obj.items():
        if not isinstance(name, str) or isinstance(value, bool) or not isinstance(value, int):
            raise ShapeMismatch(f"{where}[{name!r}]: expected an integer stage")
        times[name] = value
    return TimingFunction(times)


def assignment_to_json(asg: BoxAssignment) -> dict:
    return {
        "carriers": {w: finset_to_json(c) for w, c in sorted(asg.carriers.items())},
        "boxes": {b: kernel_to_json(k) for b, k in sorted(asg.kernels.items())},
    }


def assignment_from_json(
    obj: Any, atol: float = DEFAULT_ATOL, where: str = "assignment"
) -> BoxAssignment:
    from .markov import BoxAssignment

    carriers = {
        w: finset_from_json(c, f"{where}.carriers[{w!r}]")
        for w, c in _get(obj, "carriers", where, Mapping).items()
    }
    kernels = {
        b: kernel_from_json(k, atol, f"{where}.boxes[{b!r}]")
        for b, k in _get(obj, "boxes", where, Mapping).items()
    }
    return BoxAssignment(carriers, kernels)


def ahspec_to_json(spec: AHSpec) -> dict:
    return {
        "q": kernel_to_json(spec.q),
        "f": kernel_to_json(spec.f),
        "g": kernel_to_json(spec.g),
        "h": kernel_to_json(spec.h),
        "rows": spec.rows,
        "cols": spec.cols,
    }


def ahspec_from_json(obj: Any, atol: float = DEFAULT_ATOL, where: str = "spec") -> AHSpec:
    from .exchange import AHSpec

    kernels = {
        name: kernel_from_json(_get(obj, name, where), atol, f"{where}.{name}")
        for name in ("q", "f", "g", "h")
    }
    dims = {name: _get(obj, name, where, int) for name in ("rows", "cols")}
    try:
        return AHSpec(**kernels, **dims)
    except FinstochError as e:
        raise ShapeMismatch(f"{where}: {e}") from e


def statement_to_json(stmt: CIStatement) -> dict:
    return {
        "left": sorted(stmt.left),
        "right": sorted(stmt.right),
        "given": sorted(stmt.given),
    }


def statement_from_json(obj: Any, where: str = "statement") -> CIStatement:
    from .semigraphoid import CIStatement

    try:
        return CIStatement(
            frozenset(_strings(_get(obj, "left", where), f"{where}.left")),
            frozenset(_strings(_get(obj, "right", where), f"{where}.right")),
            frozenset(_strings(obj.get("given", []), f"{where}.given")),
        )
    except FinstochError as e:
        raise ShapeMismatch(f"{where}: {e}") from e


def derivation_to_json(d: Derivation) -> dict:
    return {
        "symbols": list(d.symbols),
        "axioms": [statement_to_json(a) for a in d.axioms],
        "steps": [
            {
                "rule": s.rule,
                "premises": list(s.premises),
                "conclusion": statement_to_json(s.conclusion),
            }
            for s in d.steps
        ],
    }


def derivation_from_json(obj: Any, where: str = "derivation") -> Derivation:
    from .semigraphoid import Derivation, DerivationStep

    symbols = _strings(_get(obj, "symbols", where), f"{where}.symbols")
    axioms = [
        statement_from_json(a, f"{where}.axioms[{i}]")
        for i, a in enumerate(_get(obj, "axioms", where, list))
    ]
    steps = []
    for i, s in enumerate(_get(obj, "steps", where, list)):
        sw = f"{where}.steps[{i}]"
        rule = _get(s, "rule", sw, str)
        premises = _get(s, "premises", sw)
        if not isinstance(premises, list) or not all(
            isinstance(k, int) and not isinstance(k, bool) for k in premises
        ):
            raise ShapeMismatch(f"{sw}.premises: expected a list of indices")
        steps.append(
            DerivationStep(
                rule,
                tuple(premises),
                statement_from_json(_get(s, "conclusion", sw), f"{sw}.conclusion"),
            )
        )
    try:
        return Derivation(tuple(symbols), tuple(axioms), tuple(steps))
    except FinstochError as e:
        raise ShapeMismatch(f"{where}: {e}") from e


def quantile_to_json(qf: QuantileFunction) -> dict:
    return {
        "dom": [finset_to_json(f) for f in qf.dom],
        "cod": finset_to_json(qf.cod),
        "order": list(qf.order),
        "rows": [
            [{"upper": bp.upper, "value": bp.value} for bp in row]
            for row in qf.rows
        ],
    }


def quantile_from_json(
    obj: Any, atol: float = DEFAULT_ATOL, where: str = "quantile"
) -> QuantileFunction:
    from .quantiles import Breakpoint, QuantileFunction

    dom = tuple(
        finset_from_json(f, f"{where}.dom[{i}]")
        for i, f in enumerate(_get(obj, "dom", where, list))
    )
    cod = finset_from_json(_get(obj, "cod", where), f"{where}.cod")
    order = tuple(_strings(_get(obj, "order", where), f"{where}.order"))
    rows = []
    for i, row in enumerate(_get(obj, "rows", where, list)):
        parsed = []
        if not isinstance(row, list):
            raise ShapeMismatch(f"{where}.rows[{i}]: expected a list")
        for k, bp in enumerate(row):
            bw = f"{where}.rows[{i}][{k}]"
            upper = _get(bp, "upper", bw, (int, float))
            parsed.append(Breakpoint(float(upper), _get(bp, "value", bw, str)))
        rows.append(tuple(parsed))
    try:
        return QuantileFunction(dom, cod, order, tuple(rows), atol)
    except FinstochError as e:
        raise ShapeMismatch(f"{where}: {e}") from e
