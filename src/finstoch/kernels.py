"""Finite stochastic kernels and the categorical operations on them.

A kernel is a row-stochastic matrix between products of finite carriers.
States are kernels out of the empty product; joint states additionally
name their tensor factors with wires.  Entries are addressed row-major:
lexicographic by factor order, then by element order within each factor,
which is exactly numpy's C-order reshape convention.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import InitVar, dataclass
from typing import Callable, Hashable, Iterable, Sequence

import numpy as np

from .errors import (
    DEFAULT_ATOL,
    MAX_ENTRIES,
    MAX_WIRES,
    DomainMismatch,
    ParamMismatch,
    ShapeMismatch,
    SizeLimit,
    UnknownWire,
)


@dataclass(frozen=True)
class FinSet:
    """An ordered finite set of named elements."""

    label: str
    elements: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "elements", tuple(self.elements))
        if not self.elements:
            raise ShapeMismatch(f"carrier {self.label!r} has no elements")
        if len(set(self.elements)) != len(self.elements):
            raise ShapeMismatch(f"carrier {self.label!r} repeats an element")

    @property
    def size(self) -> int:
        return len(self.elements)

    def index(self, element: str) -> int:
        try:
            return self.elements.index(element)
        except ValueError:
            raise ShapeMismatch(
                f"{element!r} is not an element of carrier {self.label!r}"
            ) from None


Factors = tuple[FinSet, ...]


def _factors(spec: FinSet | Iterable[FinSet]) -> Factors:
    if isinstance(spec, FinSet):
        return (spec,)
    return tuple(spec)


def _flat_size(factors: Factors) -> int:
    return math.prod(f.size for f in factors)


def _shape(factors: Factors) -> tuple[int, ...]:
    return tuple(f.size for f in factors)


@dataclass(frozen=True, eq=False)
class Kernel:
    """Row-stochastic matrix between products of finite carriers.

    ``matrix[i, j]`` is the probability of the j-th codomain tuple given
    the i-th domain tuple.  A kernel with empty ``dom`` is a state (one
    row); a kernel with empty ``cod`` has a single all-ones column.
    """

    dom: Factors
    cod: Factors
    matrix: np.ndarray
    atol: InitVar[float] = DEFAULT_ATOL

    def __post_init__(self, atol: float):
        dom = _factors(self.dom)
        cod = _factors(self.cod)
        object.__setattr__(self, "dom", dom)
        object.__setattr__(self, "cod", cod)
        mat = np.array(self.matrix, dtype=float)
        want = (_flat_size(dom), _flat_size(cod))
        if mat.shape != want:
            raise ShapeMismatch(
                f"matrix shape {mat.shape} does not match interface {want}"
            )
        # written so that a NaN entry or tolerance fails both tests
        lo = mat.min(initial=0.0)
        if not lo >= -atol:
            kind = "non-finite" if np.isnan(lo) else "negative"
            raise ShapeMismatch(f"{kind} entry {lo:g} in kernel matrix")
        bad = np.abs(mat.sum(axis=1) - 1.0).max(initial=0.0)
        if not bad <= atol:
            raise ShapeMismatch(
                f"row sums deviate from 1 by up to {bad:g} (atol={atol:g})"
            )
        mat.flags.writeable = False
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def state(cls, probs, cod: FinSet | Iterable[FinSet]) -> "Kernel":
        """Build a state (kernel out of the empty product) from a flat vector."""
        return cls((), _factors(cod), np.asarray(probs, dtype=float).reshape(1, -1))

    @property
    def dom_shape(self) -> tuple[int, ...]:
        return _shape(self.dom)

    @property
    def cod_shape(self) -> tuple[int, ...]:
        return _shape(self.cod)

    @property
    def array(self) -> np.ndarray:
        """The matrix reshaped with one axis per dom factor then cod factor."""
        return self.matrix.reshape(self.dom_shape + self.cod_shape)


def _check_entries(n: int) -> None:
    """The one entry cap: SizeLimit when an array of n entries is too large."""
    if n > MAX_ENTRIES:
        raise SizeLimit(f"{n} entries exceed the cap of {MAX_ENTRIES}")


def contract(
    operands: Iterable[tuple[np.ndarray, Sequence[Hashable]]],
    out: Iterable[Hashable],
) -> np.ndarray:
    """Sum of products of labelled arrays, keeping the ``out`` labels in order.

    Each operand lists one label per axis, usually a wire name; axes with
    the same label share one index, and labels missing from ``out`` are
    summed out.  When ``out`` keeps every label nothing is summed: the
    operands multiply one broadcast product at a time, last operand
    first, the order numpy's optimized einsum multiplies them in when it
    takes one step, so each entry keeps the bits einsum gives it.  Each
    partial product spans some of the result's axes, so none is larger
    than the result.  Otherwise ``einsum`` sums along the elimination
    order of _elimination_path, given to it as an explicit path, so no
    path is searched; no step's result exceeds the entry cap, or the
    largest operand when that is larger.  Raises SizeLimit before any
    allocation: as soon as the 53rd distinct label arrives (numpy
    addresses 52), so operands may be a lazy iterable of any length, or
    when the result would exceed the entry cap.
    """
    index: dict[Hashable, int] = {}
    size: dict[int, int] = {}
    args: list[tuple[np.ndarray, list[int]]] = []
    for arr, labels in operands:
        for label, n in zip(labels, arr.shape):
            if index.setdefault(label, len(index)) == MAX_WIRES:
                raise SizeLimit(f"more than the {MAX_WIRES} wires a contraction can address")
            size[index[label]] = n
        args.append((arr, [index[label] for label in labels]))
    out = [index[label] for label in out]
    _check_entries(math.prod(size[i] for i in out))
    if sorted(out) != list(range(len(index))):  # some label is summed out
        limit = max([MAX_ENTRIES] + [arr.size for arr, _ in args])
        path = _elimination_path([idx for _, idx in args], size, set(out), limit)
        return np.einsum(*itertools.chain.from_iterable(args), out, optimize=["einsum_path", *path])
    result = np.ones(())
    for arr, idx in reversed(args):
        axes = sorted(set(idx), key=out.index)
        # a view: the diagonal of any repeated label, axes in out's order
        view = np.einsum(arr, idx, axes)
        result = result * np.expand_dims(view, [k for k, i in enumerate(out) if i not in axes])
    return result


def _elimination_path(
    labels: list[list[int]], size: dict[int, int], out: set[int], limit: int
) -> list[tuple[int, ...]]:
    """Einsum steps that sum the labels not in ``out``, one label at a time.

    Bucket elimination: the next label summed is the one whose operands
    together span the fewest entries, on a tie the one numbered first.
    Its operands contract pairwise, smallest first, and each label is
    summed as soon as no remaining operand carries it, as einsum does
    along a given path.  No step's result exceeds ``limit`` entries: when
    the next pair would, the operand starts a new group, the groups then
    contract in one step, and when even that would exceed the limit, so
    does every remaining operand, which allocates only the result.  A
    last step multiplies what is left.  A step lists positions in
    einsum's current operand list, which drops the step's operands and
    appends its result.  With k operands, L summed labels and at most w
    labels on any operand or intermediate, choosing the L labels is
    O(L·k·w²) set work and the at most k + L steps are O(k·w) each.
    """
    ops = {k: set(idx) for k, idx in enumerate(labels)}  # in einsum's current order
    new_key = itertools.count(len(ops))
    steps: list[tuple[int, ...]] = []

    def entries(carried: set[int]) -> int:
        return math.prod(map(size.__getitem__, carried))

    def kept(group: list[int]) -> set[int]:
        """The labels a step over ``group`` keeps: those out or on another operand."""
        rest = [s for k, s in ops.items() if k not in group]
        return set().union(*(ops[k] for k in group)) & out.union(*rest)

    def merge(group: list[int]) -> int:
        order = list(ops)
        steps.append(tuple(order.index(key) for key in group))
        merged = kept(group)
        for key in group:
            del ops[key]
        key = next(new_key)
        ops[key] = merged
        return key

    while True:
        span: dict[int, set[int]] = {}
        for s in ops.values():
            for i in s - out:
                span.setdefault(i, set()).update(s)
        if not span:
            break
        label = min(span, key=lambda i: (entries(span[i]), i))
        groups: list[int] = []
        for key in sorted((k for k, s in ops.items() if label in s), key=lambda k: entries(ops[k])):
            if groups and entries(kept([groups[-1], key])) <= limit:
                groups[-1] = merge([groups[-1], key])
            else:
                groups.append(key)
        if label in ops[groups[0]]:  # not yet summed: a lone operand, or groups too large to pair
            if entries(kept(groups)) > limit:
                break
            merge(groups)
    if len(ops) > 1:
        merge(list(ops))
    return steps


def max_abs_diff(f: Kernel, g: Kernel) -> float:
    """Largest entrywise deviation between two kernels of equal interface."""
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("kernels have different interfaces")
    return float(np.max(np.abs(f.matrix - g.matrix)))


def _point_masses(dom: Factors, cod: Factors, cols: Callable[[np.ndarray], Sequence[int]]) -> Kernel:
    """Kernel whose row i is a point mass on column ``cols(rows)[i]``.

    cols runs only once the entry cap has passed, so no index array is
    built for a kernel too large to allocate.
    """
    n, width = _flat_size(dom), _flat_size(cod)
    _check_entries(n * width)
    mat = np.zeros((n, width))
    rows = np.arange(n)
    mat[rows, cols(rows)] = 1.0
    return Kernel(dom, cod, mat)


def deterministic_kernel(
    dom: FinSet | Iterable[FinSet],
    cod: FinSet | Iterable[FinSet],
    fn: Callable[[tuple[str, ...]], Sequence[str]],
) -> Kernel:
    """Kernel whose rows are point masses given by ``fn`` on element tuples."""
    dom = _factors(dom)
    cod = _factors(cod)

    def cols(_) -> list[int]:
        col = {ys: j for j, ys in enumerate(itertools.product(*(f.elements for f in cod)))}
        out = []
        for xs in itertools.product(*(f.elements for f in dom)):
            ys = tuple(fn(xs))
            if len(ys) != len(cod):
                raise ShapeMismatch(
                    f"map returned {len(ys)} values for {len(cod)} codomain factors"
                )
            if ys not in col:
                for f, y in zip(cod, ys):
                    f.index(y)  # raises, naming the carrier y is not in
            out.append(col[ys])
        return out

    return _point_masses(dom, cod, cols)


def identity(factors: FinSet | Iterable[FinSet]) -> Kernel:
    fs = _factors(factors)
    return _point_masses(fs, fs, lambda i: i)


def copy_kernel(factors: FinSet | Iterable[FinSet]) -> Kernel:
    fs = _factors(factors)
    n = _flat_size(fs)
    return _point_masses(fs, fs + fs, lambda i: i * (n + 1))


def discard_kernel(factors: FinSet | Iterable[FinSet]) -> Kernel:
    return _point_masses(_factors(factors), (), np.zeros_like)


def swap_kernel(x: FinSet | Iterable[FinSet], y: FinSet | Iterable[FinSet]) -> Kernel:
    xs, ys = _factors(x), _factors(y)
    nx, ny = _flat_size(xs), _flat_size(ys)
    # row (a, b) is a * ny + b; its column (b, a) is b * nx + a
    return _point_masses(xs + ys, ys + xs, lambda i: i % ny * nx + i // ny)


def compose(g: Kernel, f: Kernel) -> Kernel:
    """Sequential composite g after f, by the Chapman-Kolmogorov sum."""
    if f.cod != g.dom:
        raise DomainMismatch(
            f"cannot compose: intermediate interfaces differ "
            f"({[c.label for c in f.cod]} vs {[d.label for d in g.dom]})"
        )
    _check_entries(len(f.matrix) * g.matrix.shape[1])
    return Kernel(f.dom, g.cod, f.matrix @ g.matrix)


def tensor(f: Kernel, g: Kernel) -> Kernel:
    """Parallel composite; probabilities multiply across the two legs."""
    _check_entries(f.matrix.size * g.matrix.size)
    return Kernel(f.dom + g.dom, f.cod + g.cod, np.kron(f.matrix, g.matrix))


@dataclass(frozen=True, eq=False)
class JointState:
    """A state whose tensor factors are addressed by wire names."""

    kernel: Kernel
    wire_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "wire_names", tuple(self.wire_names))
        if self.kernel.dom:
            raise ShapeMismatch("a joint state must not have inputs")
        if len(self.wire_names) != len(self.kernel.cod):
            raise ShapeMismatch(
                f"{len(self.wire_names)} wire names for "
                f"{len(self.kernel.cod)} factors"
            )
        if len(set(self.wire_names)) != len(self.wire_names):
            raise ShapeMismatch("wire names repeat")

    @classmethod
    def from_array(cls, array, wires: Sequence[tuple[str, FinSet]]) -> "JointState":
        names = tuple(name for name, _ in wires)
        carriers = tuple(carrier for _, carrier in wires)
        return cls(Kernel.state(array, carriers), names)

    @property
    def array(self) -> np.ndarray:
        """Probabilities reshaped with one axis per wire."""
        return self.kernel.matrix.reshape(self.kernel.cod_shape)

    def carrier(self, wire: str) -> FinSet:
        return self.kernel.cod[self.wire_index(wire)]

    def wire_index(self, wire: str) -> int:
        try:
            return self.wire_names.index(wire)
        except ValueError:
            raise UnknownWire(f"no wire named {wire!r}") from None

    def wire_indices(self, wires: Iterable[str]) -> list[int]:
        return [self.wire_index(w) for w in wires]


def _marginal(
    arr: np.ndarray,
    names: Sequence[str],
    wires: Sequence[str],
    gather: np.ndarray | None = None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Raw marginal of ``arr`` (one axis per name) on ``wires``, in their order, C-contiguous.

    The marginal is written to ``out``.  When axes are summed, one gathering
    copy into ``gather`` moves them first and the wanted wires after them,
    in order, and one sequential reduce over the summed block into ``out``
    leaves the result C-contiguous; when nothing is summed the gathering
    copy goes straight into ``out`` and ``gather`` is not written.
    ``gather`` and ``out`` are flat float buffers of at least ``arr.size``
    entries that a statement table reuses for every statement; by default
    both are fresh arrays that the caller owns.
    """
    drop = [i for i, w in enumerate(names) if w not in wires]
    keep = [names.index(w) for w in wires]
    shape = [arr.shape[i] for i in keep]
    n = math.prod(shape)
    src = arr.transpose(drop + keep)
    out = np.empty(n) if out is None else out[:n]
    if drop:
        t = (np.empty(arr.size) if gather is None else gather[: arr.size]).reshape(src.shape)
        np.copyto(t, src)
        np.add.reduce(t.reshape(-1, n), axis=0, out=out)
    else:
        np.copyto(out.reshape(shape), src)
    return out.reshape(shape)


def marginalize(p: JointState, keep: Iterable[str]) -> JointState:
    """Sum out every wire not listed in ``keep``; kept wire order is p's."""
    keep = {p.wire_index(w) for w in keep}
    kept = [w for i, w in enumerate(p.wire_names) if i in keep]
    return JointState.from_array(
        _marginal(p.array, p.wire_names, kept), [(w, p.carrier(w)) for w in kept]
    )


def reindex(p: JointState, order: Sequence[str]) -> JointState:
    """Permute the tensor factors of p into the given wire order."""
    order = list(order)
    if sorted(p.wire_indices(order)) != list(range(len(p.wire_names))):
        raise ShapeMismatch("order is not a permutation of the wires")
    return JointState.from_array(
        _marginal(p.array, p.wire_names, order), [(w, p.carrier(w)) for w in order]
    )


def _normalize(t: np.ndarray, axis: int) -> np.ndarray:
    """Divide t by its sums along axis; uniform where a sum is exactly 0.

    The one zero-mass rule, shared by conditionals and the CI residual;
    almost-sure equality instead counts mass at or below atol as null.
    """
    mass = t.sum(axis=axis, keepdims=True)
    null = mass == 0.0
    return np.where(null, 1.0 / t.shape[axis], t / np.where(null, 1.0, mass))


def conditional(p: Kernel, given: Sequence[int]) -> Kernel:
    """Conditional of p onto the non-``given`` factors.

    ``given`` lists positions of codomain factors.  The result consumes
    those factors (in the order listed) followed by p's original inputs,
    and emits the remaining codomain factors in their original order, so
    that recomposing marginal and conditional reproduces p on every
    input of positive mass.  Rows at inputs of mass exactly 0 are uniform.
    """
    given = [int(i) for i in given]
    if len(set(given)) != len(given):
        raise ShapeMismatch("given positions repeat")
    if any(i < 0 or i >= len(p.cod) for i in given):
        raise ShapeMismatch("given position out of range")
    rest = [i for i in range(len(p.cod)) if i not in given]
    ndom = len(p.dom)
    perm = [ndom + i for i in given] + list(range(ndom)) + [ndom + i for i in rest]
    x_factors = tuple(p.cod[i] for i in given)
    y_factors = tuple(p.cod[i] for i in rest)
    nx = _flat_size(x_factors) * _flat_size(p.dom)
    ny = _flat_size(y_factors)
    t = p.array.transpose(perm).reshape(nx, ny)
    return Kernel(x_factors + p.dom, y_factors, _normalize(t, axis=1))


def as_equal_residual(f: Kernel, g: Kernel, p: Kernel, atol: float = DEFAULT_ATOL) -> float:
    """Largest rowwise deviation between f and g on the support of p.

    Supported inputs are those x with max_a p(x|a) > atol; unlike
    conditionals, which go uniform only at mass exactly 0, mass at or
    below atol counts as null here.
    """
    if f.dom != g.dom or f.cod != g.cod:
        raise DomainMismatch("kernels have different interfaces")
    if p.cod != f.dom:
        raise DomainMismatch("state does not land in the kernels' domain")
    support = p.matrix.max(axis=0) > atol
    if not support.any():
        return 0.0
    diff = np.abs(f.matrix[support] - g.matrix[support])
    return float(diff.max())


@dataclass(frozen=True)
class CSReport:
    """Outcome of the pairing-equality check and its a.s.-equality consequent."""

    antecedent_holds: bool
    consequent_holds: bool
    antecedent_residual: float
    consequent_residual: float


def _pairing(u: Kernel, v: Kernel, p: Kernel) -> Kernel:
    """(u ⊗ v) ∘ copy ∘ p, summed directly under the entry cap: Σₓ p(x|i)·u(a|x)·v(b|x)."""
    out = contract([(p.matrix, "ix"), (u.matrix, "xa"), (v.matrix, "xb")], "iab")
    return Kernel(p.dom, u.cod + v.cod, out.reshape(len(p.matrix), -1))


# cs_check's tolerances; the antecedent's is stricter (see cs_check)
ANTECEDENT_ATOL = 1e-12
CONSEQUENT_ATOL = 1e-6


def cs_check(p: Kernel, f: Kernel, g: Kernel, consequent_atol: float = CONSEQUENT_ATOL) -> CSReport:
    """Check the implication: equal pairings against p force a.s. equality.

    The antecedent asks that the three two-output composites pairing
    (f,f), (f,g) and (g,g) over a copy of p's output agree pairwise; the
    consequent is a.s. equality of f and g with respect to p, on the
    support that ``consequent_atol`` sets (see as_equal_residual).  The
    report's booleans hold the residuals to ANTECEDENT_ATOL and
    CONSEQUENT_ATOL; the antecedent's is stricter because deviations
    enter the pairings quadratically.
    """
    cons = as_equal_residual(f, g, p, consequent_atol)  # first: it checks the interfaces
    ff = _pairing(f, f, p)
    fg = _pairing(f, g, p)
    gg = _pairing(g, g, p)
    ante = max(max_abs_diff(ff, fg), max_abs_diff(fg, gg), max_abs_diff(ff, gg))
    return CSReport(ante <= ANTECEDENT_ATOL, cons <= CONSEQUENT_ATOL, ante, cons)


@dataclass(frozen=True, eq=False)
class ParamKernel:
    """Kernel whose final input factor is a parameter shared along composites."""

    base: Kernel

    def __post_init__(self):
        if not self.base.dom:
            raise ShapeMismatch("a parametric kernel needs a parameter factor")

    @property
    def param(self) -> FinSet:
        return self.base.dom[-1]

    @property
    def dom(self) -> Factors:
        return self.base.dom[:-1]

    @property
    def cod(self) -> Factors:
        return self.base.cod

    def slices(self) -> list[Kernel]:
        """The ordinary kernels obtained by fixing each parameter value."""
        na = _flat_size(self.dom)
        nw = self.param.size
        ny = _flat_size(self.cod)
        t = self.base.matrix.reshape(na, nw, ny)
        return [Kernel(self.dom, self.cod, t[:, w, :]) for w in range(nw)]


def parametric_cs_check(p: ParamKernel, f: ParamKernel, g: ParamKernel) -> CSReport:
    """The two-sided check of cs_check, run in the parametric category.

    A parametric kernel is one plain kernel per parameter value, so the
    check runs cs_check slice by slice and keeps the worst antecedent
    and consequent residuals.
    """
    if not p.param == f.param == g.param:
        labels = " vs ".join(repr(k.param.label) for k in (p, f, g))
        raise ParamMismatch(f"parameter factors differ ({labels})")
    reports = [cs_check(*s) for s in zip(p.slices(), f.slices(), g.slices())]
    ante = max(r.antecedent_residual for r in reports)
    cons = max(r.consequent_residual for r in reports)
    return CSReport(ante <= ANTECEDENT_ATOL, cons <= CONSEQUENT_ATOL, ante, cons)
