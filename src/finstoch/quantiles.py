"""Quantile representations of kernels over a totally ordered value set.

For each input, the unit interval is cut at the cumulative
probabilities of the output values taken in a fixed total order,
skipping zero-mass values.  Each half-open cell (r_{k-1}, r_k] maps to
one value, so a uniformly distributed point of [0,1] pushed through the
cell map reproduces the kernel row exactly: cell lengths are
differences of consecutive partial sums.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_left
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DomainMismatch, ShapeMismatch
from .kernels import DEFAULT_ATOL, FinSet, Kernel, _check_entries, _factors, _flat_size, _point_masses


def _final_breakpoint_slack(n: int) -> float:
    """How far from 1 the last of n breakpoints may lie: DEFAULT_ATOL plus two ulps each."""
    return DEFAULT_ATOL + 2 * n * math.ulp(1.0)


@dataclass(frozen=True)
class Breakpoint:
    upper: float
    value: str


@dataclass(frozen=True, eq=False)
class QuantileFunction:
    """Per-input staircase from (0,1] onto an ordered value carrier.

    Each row's final breakpoint must lie within DEFAULT_ATOL of 1, plus
    two ulps of 1 per breakpoint: a kernel row is validated by its sum,
    and its cumulative sum in another order rounds differently.
    """

    dom: tuple[FinSet, ...]
    cod: FinSet
    order: tuple[str, ...]
    rows: tuple[tuple[Breakpoint, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "dom", _factors(self.dom))
        object.__setattr__(self, "order", tuple(self.order))
        object.__setattr__(
            self, "rows", tuple(tuple(row) for row in self.rows)
        )
        if sorted(self.order) != sorted(self.cod.elements):
            raise ShapeMismatch("order must list every codomain element once")
        if len(self.rows) != _flat_size(self.dom):
            raise ShapeMismatch(
                f"{len(self.rows)} rows for {_flat_size(self.dom)} inputs"
            )
        rank = {v: k for k, v in enumerate(self.order)}
        for row in self.rows:
            if not row:
                raise ShapeMismatch("a row has no breakpoints")
            uppers = [bp.upper for bp in row]
            # written so that a NaN breakpoint fails each test
            if not uppers[0] > 0.0 or not all(
                b > a for a, b in itertools.pairwise(uppers)
            ):
                raise ShapeMismatch("breakpoints must increase from 0 to 1")
            if not abs(uppers[-1] - 1.0) <= _final_breakpoint_slack(len(row)):
                raise ShapeMismatch(f"final breakpoint {uppers[-1]!r} is not 1")
            ranks = [rank.get(bp.value) for bp in row]
            if None in ranks:
                raise ShapeMismatch("a breakpoint value is not in the carrier")
            if any(b <= a for a, b in itertools.pairwise(ranks)):
                raise ShapeMismatch(
                    "values must be strictly increasing in the order"
                )

    def value_at(self, row: int, r: float) -> str:
        """The value of cell containing r, i.e. the least upper >= r."""
        uppers = [bp.upper for bp in self.rows[row]]
        k = min(bisect_left(uppers, r), len(uppers) - 1)
        return self.rows[row][k].value


def quantile_pushback(f: Kernel, order: Sequence[str]) -> QuantileFunction:
    """Represent each row of f as cells of [0,1] in the given value order."""
    if len(f.cod) != 1:
        raise ShapeMismatch("a single codomain factor is required")
    cod = f.cod[0]
    order = tuple(order)
    if sorted(order) != sorted(cod.elements):
        raise ShapeMismatch("order must list every codomain element once")
    perm = [cod.index(v) for v in order]
    rows = []
    for raw in f.matrix:
        probs = raw[perm]
        cum = np.cumsum(probs)
        rows.append(
            tuple(
                Breakpoint(float(cum[k]), order[k])
                for k in range(len(order))
                if probs[k] > 0.0
            )
        )
    return QuantileFunction(f.dom, cod, order, tuple(rows))


def pushforward_residual(qf: QuantileFunction, f: Kernel) -> float:
    """Largest deviation between cell lengths and kernel probabilities."""
    if f.dom != qf.dom or f.cod != (qf.cod,):
        raise DomainMismatch("kernel interface does not match the quantile map")
    worst = 0.0
    for row, raw in zip(qf.rows, f.matrix):
        lengths = {v: 0.0 for v in qf.cod.elements}
        prev = 0.0
        for bp in row:
            lengths[bp.value] = bp.upper - prev
            prev = bp.upper
        for k, v in enumerate(qf.cod.elements):
            worst = max(worst, abs(lengths[v] - float(raw[k])))
    return worst


def outsourced_form(f: Kernel, order: Sequence[str]) -> tuple[Kernel, Kernel]:
    """A finite uniform seed and a cell map that together reproduce f.

    The seed is a state on the common refinement of every row's cells;
    the map sends (seed cell, input) deterministically to the value of
    the input's cell containing it.  Composing map after seed tensor
    identity returns f up to re-summation error.
    """
    return _outsourced(quantile_pushback(f, order))


def _cells(qf: QuantileFunction) -> tuple[np.ndarray, np.ndarray]:
    """The seed's cell masses, and each input's value index on every cell, under the entry cap."""
    uppers = sorted({bp.upper for row in qf.rows for bp in row})
    _check_entries(len(qf.rows) * len(uppers))
    table = np.empty((len(qf.rows), len(uppers)), dtype=np.intp)
    for x, row in enumerate(qf.rows):  # value_at on every cell, one searchsorted per input
        k = np.minimum(np.searchsorted([bp.upper for bp in row], uppers), len(row) - 1)
        table[x] = np.array([qf.cod.index(bp.value) for bp in row])[k]
    return np.diff([0.0] + uppers), table


def _outsourced(qf: QuantileFunction) -> tuple[Kernel, Kernel]:
    """outsourced_form's seed, whose masses are the cell lengths, and its map on (cell, input)."""
    masses = np.diff([0.0, *sorted({bp.upper for row in qf.rows for bp in row})])
    cells = FinSet("U", tuple(f"u{k}" for k in range(1, len(masses) + 1)))
    seed = Kernel((), (cells,), masses[None], _final_breakpoint_slack(len(masses)))
    return seed, _point_masses((cells,) + qf.dom, (qf.cod,), lambda _: _cells(qf)[1].T.ravel())


def outsourced_residual(qf: QuantileFunction, f: Kernel) -> float:
    """Largest deviation from f of the composite of outsourced_form's seed and map:
    per input, the cell masses summed by the value each cell maps to, without the map."""
    if f.dom != qf.dom or f.cod != (qf.cod,):
        raise DomainMismatch("kernel interface does not match the quantile map")
    masses, table = _cells(qf)
    sums = (np.bincount(cols, masses, minlength=qf.cod.size) for cols in table)
    return max(float(np.abs(s - raw).max()) for s, raw in zip(sums, f.matrix))
