"""Quantile staircases: pushback, pushforward checks, seed-plus-map form."""

import numpy as np
import pytest

from finstoch import (
    Breakpoint,
    DomainMismatch,
    Kernel,
    QuantileFunction,
    ShapeMismatch,
    compose,
    identity,
    max_abs_diff,
    outsourced_form,
    outsourced_residual,
    pushforward_residual,
    quantile_pushback,
    tensor,
)
from support import carrier, random_carrier, random_kernel


BIT = carrier("x", 2)


def test_pushback_worked_example():
    qf = quantile_pushback(Kernel.state([0.3, 0.7], BIT), ("0", "1"))
    assert qf.rows == ((Breakpoint(0.3, "0"), Breakpoint(1.0, "1")),)


def test_value_lookup_at_cell_boundaries():
    qf = quantile_pushback(Kernel.state([0.3, 0.7], BIT), ("0", "1"))
    assert qf.value_at(0, 1e-12) == "0"
    assert qf.value_at(0, 0.3) == "0"
    assert qf.value_at(0, 0.3 + 1e-9) == "1"
    assert qf.value_at(0, 1.0) == "1"
    # out-of-range arguments clamp to the last cell
    assert qf.value_at(0, 1.5) == "1"


def test_reordering_the_values_reorders_the_cells():
    qf = quantile_pushback(Kernel.state([0.3, 0.7], BIT), ("1", "0"))
    assert qf.rows[0] == (Breakpoint(0.7, "1"), Breakpoint(1.0, "0"))
    assert qf.value_at(0, 0.5) == "1"


def test_zero_probability_values_get_no_cell():
    tri = carrier("y", 3)
    qf = quantile_pushback(Kernel.state([0.5, 0.0, 0.5], tri), ("0", "1", "2"))
    assert [bp.value for bp in qf.rows[0]] == ["0", "2"]


def test_point_mass_rows_have_one_cell():
    tri = carrier("y", 3)
    f = Kernel((BIT,), (tri,), [[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])
    qf = quantile_pushback(f, ("0", "1", "2"))
    assert qf.rows[0] == (Breakpoint(1.0, "1"),)
    assert qf.rows[1] == (Breakpoint(1.0, "0"),)


def test_uniform_row_cuts_even_cells():
    quad = carrier("y", 4)
    qf = quantile_pushback(Kernel.state([0.25] * 4, quad), ("0", "1", "2", "3"))
    assert np.allclose([bp.upper for bp in qf.rows[0]], [0.25, 0.5, 0.75, 1.0])


def test_pushback_rejects_multi_factor_codomains():
    f = random_kernel(np.random.default_rng(1), BIT, (BIT, BIT))
    with pytest.raises(ShapeMismatch):
        quantile_pushback(f, ("0", "1"))
    with pytest.raises(ShapeMismatch):
        quantile_pushback(Kernel.state([0.3, 0.7], BIT), ("0", "0"))


def test_staircase_validation():
    good = ((Breakpoint(0.3, "0"), Breakpoint(1.0, "1")),)
    QuantileFunction((), BIT, ("0", "1"), good)
    with pytest.raises(ShapeMismatch):
        QuantileFunction((), BIT, ("0", "1", "2"), good)
    with pytest.raises(ShapeMismatch):
        QuantileFunction((BIT,), BIT, ("0", "1"), good)
    with pytest.raises(ShapeMismatch):
        QuantileFunction((), BIT, ("0", "1"), ((),))
    with pytest.raises(ShapeMismatch):
        QuantileFunction(
            (), BIT, ("0", "1"),
            ((Breakpoint(0.5, "0"), Breakpoint(0.4, "1")),),
        )
    with pytest.raises(ShapeMismatch):
        QuantileFunction(
            (), BIT, ("0", "1"),
            ((Breakpoint(0.0, "0"), Breakpoint(1.0, "1")),),
        )
    with pytest.raises(ShapeMismatch):
        QuantileFunction((), BIT, ("0", "1"), ((Breakpoint(0.5, "0"),),))
    with pytest.raises(ShapeMismatch):
        QuantileFunction((), BIT, ("0", "1"), ((Breakpoint(1.0, "9"),),))
    with pytest.raises(ShapeMismatch):
        QuantileFunction(
            (), BIT, ("0", "1"),
            ((Breakpoint(0.3, "1"), Breakpoint(1.0, "0")),),
        )


def test_nan_breakpoints_fail_the_staircase_checks():
    nan = float("nan")
    for row in (
        (Breakpoint(nan, "0"), Breakpoint(1.0, "1")),
        (Breakpoint(0.3, "0"), Breakpoint(nan, "1")),
    ):
        with pytest.raises(ShapeMismatch):
            QuantileFunction((), BIT, ("0", "1"), (row,))


def test_pushforward_reproduces_the_kernel():
    rng = np.random.default_rng(2)
    a = random_carrier(rng, "a", 2, 4)
    y = random_carrier(rng, "y", 2, 5)
    f = random_kernel(rng, a, y, zero_frac=0.3)
    qf = quantile_pushback(f, y.elements)
    assert pushforward_residual(qf, f) <= 1e-12
    assert pushforward_residual(qf, f) <= 1e-15


def test_shifted_breakpoint_is_detected():
    f = Kernel.state([0.3, 0.7], BIT)
    shifted = QuantileFunction(
        (), BIT, ("0", "1"),
        ((Breakpoint(0.31, "0"), Breakpoint(1.0, "1")),),
    )
    assert pushforward_residual(shifted, f) > 1e-12
    assert abs(pushforward_residual(shifted, f) - 0.01) <= 1e-12
    with pytest.raises(DomainMismatch):
        pushforward_residual(shifted, Kernel.state([0.25] * 4, carrier("y", 4)))


def test_lookup_is_monotone_and_lands_in_the_carrier():
    rng = np.random.default_rng(3)
    for _ in range(50):
        y = random_carrier(rng, "y", 2, 6)
        f = random_kernel(rng, random_carrier(rng, "a", 2, 3), y, zero_frac=0.2)
        qf = quantile_pushback(f, y.elements)
        rank = {v: k for k, v in enumerate(qf.order)}
        for row in range(len(qf.rows)):
            picks = [qf.value_at(row, r) for r in np.linspace(1e-9, 1.0, 23)]
            assert all(v in y.elements for v in picks)
            ranks = [rank[v] for v in picks]
            assert ranks == sorted(ranks)


def test_outsourced_form_reproduces_the_kernel():
    rng = np.random.default_rng(4)
    a = carrier("a", 3)
    b = carrier("b", 2)
    y = carrier("y", 4)
    f = random_kernel(rng, (a, b), y, zero_frac=0.2)
    seed, mech = outsourced_form(f, y.elements)
    assert np.isin(mech.matrix, (0.0, 1.0)).all()
    assert seed.dom == () and seed.cod[0].label == "U"
    composite = compose(mech, tensor(seed, identity(f.dom)))
    assert max_abs_diff(composite, f) <= 1e-12


def test_seed_cells_refine_every_row():
    f = Kernel((BIT,), (BIT,), [[0.25, 0.75], [0.5, 0.5]])
    seed, mech = outsourced_form(f, ("0", "1"))
    cells = seed.cod[0]
    assert cells.elements == ("u1", "u2", "u3")
    assert np.allclose(seed.matrix[0], [0.25, 0.25, 0.5])
    assert mech.dom == (cells, BIT)
    composite = compose(mech, tensor(seed, identity(BIT)))
    assert max_abs_diff(composite, f) <= 1e-12


def test_deterministic_kernels_need_one_cell():
    f = Kernel((BIT,), (BIT,), [[0.0, 1.0], [1.0, 0.0]])
    seed, mech = outsourced_form(f, ("0", "1"))
    assert seed.cod[0].size == 1
    assert max_abs_diff(compose(mech, tensor(seed, identity(BIT))), f) == 0.0


def test_outsourced_mechanism_is_value_at_on_every_seed_cell():
    rng = np.random.default_rng(5)
    for _ in range(20):
        dom = tuple(random_carrier(rng, l, 1, 4) for l in "ab"[: rng.integers(1, 3)])
        y = random_carrier(rng, "y", 2, 6)
        f = random_kernel(rng, dom, y, zero_frac=0.3)
        order = list(rng.permutation(y.elements))
        qf = quantile_pushback(f, order)
        seed, mech = outsourced_form(f, order)
        uppers = sorted({bp.upper for row in qf.rows for bp in row})
        nx = len(qf.rows)
        ref = np.zeros((len(uppers) * nx, y.size))
        for u, r in enumerate(uppers):
            for x in range(nx):
                ref[u * nx + x, y.index(qf.value_at(x, r))] = 1.0
        assert np.array_equal(mech.matrix, ref)


def test_outsourced_residual_sees_one_corrupted_row():
    rng = np.random.default_rng(6)
    f = random_kernel(rng, (carrier("a", 3), carrier("b", 2)), carrier("y", 4), zero_frac=0.2)
    qf = quantile_pushback(f, ("0", "1", "2", "3"))
    assert outsourced_residual(qf, f) <= 1e-12
    rows = f.matrix.copy()
    rows[4] = np.roll(rows[4], 1)
    assert outsourced_residual(qf, Kernel(f.dom, f.cod, rows)) > 1e-6
    with pytest.raises(DomainMismatch):
        outsourced_residual(qf, random_kernel(rng, carrier("a", 6), carrier("y", 4)))


def test_outsourced_residual_is_the_composite_of_outsourced_form():
    rng = np.random.default_rng(7)
    for _ in range(30):
        dom = tuple(random_carrier(rng, l, 1, 4) for l in "ab"[: rng.integers(1, 3)])
        y = random_carrier(rng, "y", 2, 6)
        f = random_kernel(rng, dom, y, zero_frac=0.3)
        order = list(rng.permutation(y.elements))
        seed, mech = outsourced_form(f, order)
        dense = max_abs_diff(compose(mech, tensor(seed, identity(f.dom))), f)
        r = outsourced_residual(quantile_pushback(f, order), f)
        assert r == pytest.approx(dense, abs=1e-15)


def test_one_seed_cannot_carry_two_row_masses():
    # each row loads, but their masses differ by 1.8e-9: the seed's last cell
    # carries row 0's excess, and row 1's last value receives it too
    f = Kernel((BIT,), (BIT,), [[0.5, 0.5000000009], [0.5, 0.4999999991]])
    seed, _ = outsourced_form(f, ("0", "1"))
    assert seed.matrix[0].sum() == pytest.approx(1.0000000009, abs=1e-15)
    r = outsourced_residual(quantile_pushback(f, ("0", "1")), f)
    assert r == pytest.approx(1.8e-9, rel=1e-6)
