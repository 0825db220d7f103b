"""Kernel algebra: composition, tensor, structure maps, conditionals."""

import itertools
import math

import numpy as np
import pytest

from finstoch import (
    DomainMismatch,
    UnknownWire,
    FinSet,
    JointState,
    Kernel,
    ParamMismatch,
    ShapeMismatch,
    SizeLimit,
    as_equal,
    as_equal_residual,
    compose,
    conditional,
    copy_kernel,
    cs_check,
    deterministic_kernel,
    discard_kernel,
    identity,
    is_deterministic,
    marginalize,
    max_abs_diff,
    param_lift,
    parametric_as_equal,
    parametric_compose,
    parametric_cs_check,
    parametric_tensor,
    ParamKernel,
    reindex,
    swap_kernel,
    tensor,
    uniform_state,
)
from finstoch.kernels import _pairing
from support import (
    carrier,
    random_carrier,
    random_joint,
    random_kernel,
    random_state,
    slow_compose,
    slow_tensor,
)

A = carrier("A", 2)
B = carrier("B", 2)
C = carrier("C", 2)


def test_finset_basics():
    assert A.size == 2
    assert A.index("1") == 1
    with pytest.raises(ShapeMismatch):
        A.index("missing")
    with pytest.raises(ShapeMismatch):
        FinSet("E", ())
    with pytest.raises(ShapeMismatch):
        FinSet("D", ("x", "x"))


def test_kernel_validation():
    with pytest.raises(ShapeMismatch):
        Kernel((A,), (B,), [[0.5, 0.5, 0.0]])
    with pytest.raises(ShapeMismatch):
        Kernel((A,), (B,), [[0.6, 0.6], [0.5, 0.5]])
    with pytest.raises(ShapeMismatch):
        Kernel((A,), (B,), [[-0.2, 1.2], [0.5, 0.5]])
    k = Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(ValueError):
        k.matrix[0, 0] = 1.0


def test_kernel_rejects_nan_entries_and_tolerances():
    with pytest.raises(ShapeMismatch, match="non-finite entry"):
        Kernel((A,), (B,), [[np.nan, 1.0], [0.5, 0.5]])
    with pytest.raises(ShapeMismatch, match="non-finite entry"):
        Kernel.state([0.5, 0.5, np.nan, 0.0], (A, B))
    with pytest.raises(ShapeMismatch):
        Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]], atol=np.nan)


def test_state_has_one_row():
    p = Kernel.state([0.3, 0.7], A)
    assert p.dom == ()
    assert p.matrix.shape == (1, 2)


def test_compose_two_by_two():
    f = Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]])
    g = Kernel((B,), (C,), [[0.5, 0.5], [0.2, 0.8]])
    got = compose(g, f)
    assert got.dom == (A,)
    assert got.cod == (C,)
    assert np.allclose(got.matrix, [[0.29, 0.71], [0.38, 0.62]], atol=1e-15)


def test_compose_matches_loop_sum():
    rng = np.random.default_rng(11)
    for _ in range(40):
        d = random_carrier(rng, "D", 2, 4)
        e = random_carrier(rng, "E", 2, 4)
        f = random_carrier(rng, "F", 2, 4)
        u = random_kernel(rng, d, e)
        v = random_kernel(rng, e, f)
        assert np.allclose(compose(v, u).matrix, slow_compose(u, v), atol=1e-12)


def test_compose_interface_mismatch():
    f = Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]])
    with pytest.raises(DomainMismatch):
        compose(f, f)


def test_compose_identity_and_discard():
    rng = np.random.default_rng(12)
    f = random_kernel(rng, A, B)
    assert max_abs_diff(compose(identity(B), f), f) == 0.0
    assert max_abs_diff(compose(f, identity(A)), f) == 0.0
    assert np.allclose(
        compose(discard_kernel(B), f).matrix, discard_kernel(A).matrix
    )


def test_tensor_of_states_multiplies():
    p = Kernel.state([0.3, 0.7], A)
    q = Kernel.state([0.5, 0.5], B)
    got = tensor(p, q)
    assert got.cod == (A, B)
    assert np.allclose(got.matrix, [[0.15, 0.15, 0.35, 0.35]], atol=1e-15)


def test_tensor_matches_loop_product():
    rng = np.random.default_rng(13)
    for _ in range(40):
        u = random_kernel(rng, random_carrier(rng, "D"), random_carrier(rng, "E"))
        v = random_kernel(rng, random_carrier(rng, "F"), random_carrier(rng, "G"))
        assert np.allclose(tensor(u, v).matrix, slow_tensor(u, v), atol=1e-14)


def test_tensor_interchange_with_compose():
    rng = np.random.default_rng(14)
    for _ in range(20):
        d, e, f = (random_carrier(rng, l, 2, 3) for l in "DEF")
        g, h, i = (random_carrier(rng, l, 2, 3) for l in "GHI")
        u1, u2 = random_kernel(rng, d, e), random_kernel(rng, e, f)
        v1, v2 = random_kernel(rng, g, h), random_kernel(rng, h, i)
        lhs = compose(tensor(u2, v2), tensor(u1, v1))
        rhs = tensor(compose(u2, u1), compose(v2, v1))
        assert max_abs_diff(lhs, rhs) <= 1e-12


def test_structure_maps_are_deterministic():
    for k in (identity(A), copy_kernel(A), discard_kernel(A), swap_kernel(A, B)):
        assert is_deterministic(k)


def test_copy_rows_are_diagonal_point_masses():
    cp = copy_kernel(A)
    assert cp.matrix.tolist() == [[1, 0, 0, 0], [0, 0, 0, 1]]


def test_swap_moves_coordinates():
    d = carrier("D", 3)
    sw = swap_kernel(A, d)
    arr = sw.array  # axes (A, D, D, A)
    for i in range(2):
        for j in range(3):
            assert arr[i, j, j, i] == 1.0


STRUCTURE_FACTORS = [(), (A,), (A, carrier("D", 3)), (carrier("D", 3), B, C)]


@pytest.mark.parametrize("fs", STRUCTURE_FACTORS, ids=["empty", "one", "two", "three"])
def test_structure_maps_equal_their_numpy_matrices(fs):
    n = math.prod(f.size for f in fs)
    eye = np.eye(n)
    assert identity(fs).dom == fs and identity(fs).cod == fs
    assert np.array_equal(identity(fs).matrix, eye)
    cp = copy_kernel(fs)
    assert cp.cod == fs + fs
    assert np.array_equal(cp.matrix, np.einsum("ij,ik->ijk", eye, eye).reshape(n, n * n))
    assert discard_kernel(fs).cod == ()
    assert np.array_equal(discard_kernel(fs).matrix, np.ones((n, 1)))
    for gs in STRUCTURE_FACTORS:
        m = math.prod(g.size for g in gs)
        sw = swap_kernel(fs, gs)
        assert sw.dom == fs + gs and sw.cod == gs + fs
        # entry ((a, b), (b', a')) is [a = a'][b = b']
        ref = np.eye(n * m).reshape(n, m, n, m).transpose(0, 1, 3, 2)
        assert np.array_equal(sw.matrix, ref.reshape(n * m, m * n))


def test_point_mass_kernels_share_the_entry_cap():
    big = carrier("N", 1025)  # 1025² entries exceed 2²⁰
    for build in (
        lambda: identity(big),
        lambda: copy_kernel(carrier("N", 102)),  # 102³ entries
        lambda: swap_kernel(big, big),
        lambda: deterministic_kernel(big, big, lambda xs: xs),
        # 2⁴⁰ rows: the cap must fire before any row index exists
        lambda: discard_kernel([carrier(f"b{k}", 2) for k in range(40)]),
    ):
        with pytest.raises(SizeLimit):
            build()


def test_deterministic_kernel_names_the_carrier_a_value_is_missing_from():
    d = carrier("D", 3)
    with pytest.raises(ShapeMismatch, match="carrier 'D'"):
        deterministic_kernel(A, (A, d), lambda xs: (xs[0], "7"))


def test_comonoid_laws_exact():
    for car in (A, carrier("D", 3)):
        cp = copy_kernel(car)
        idk = identity(car)
        left = compose(tensor(discard_kernel(car), idk), cp)
        right = compose(tensor(idk, discard_kernel(car)), cp)
        assert max_abs_diff(left, idk) == 0.0
        assert max_abs_diff(right, idk) == 0.0
        assoc1 = compose(tensor(cp, idk), cp)
        assoc2 = compose(tensor(idk, cp), cp)
        assert max_abs_diff(assoc1, assoc2) == 0.0
        assert max_abs_diff(compose(swap_kernel(car, car), cp), cp) == 0.0


def test_copy_naturality_residual_for_a_fair_coin():
    f = Kernel.state([0.5, 0.5], A)
    lhs = compose(copy_kernel(A), f)
    rhs = compose(tensor(f, f), copy_kernel(()))
    assert max_abs_diff(lhs, rhs) == pytest.approx(0.25)
    assert not is_deterministic(f)


def test_copy_naturality_exact_for_deterministic():
    rng = np.random.default_rng(15)
    d = carrier("D", 3)
    values = list(rng.integers(0, 2, size=3))
    f = deterministic_kernel(d, A, lambda xs: (str(values[d.index(xs[0])]),))
    assert is_deterministic(f)
    lhs = compose(copy_kernel(A), f)
    rhs = compose(tensor(f, f), copy_kernel(d))
    assert max_abs_diff(lhs, rhs) == 0.0


def test_deterministic_kernel_arity_check():
    with pytest.raises(ShapeMismatch):
        deterministic_kernel(A, (A, B), lambda xs: xs)


def test_uniform_state():
    u = uniform_state((A, B))
    assert np.allclose(u.matrix, 0.25)


def test_marginalize_keeps_listed_wires():
    wires = [("x", A), ("y", B)]
    p = JointState.from_array([[0.2, 0.2], [0.3, 0.3]], wires)
    got = marginalize(p, ["x"])
    assert got.wire_names == ("x",)
    assert np.allclose(got.kernel.matrix, [[0.4, 0.6]])
    assert marginalize(p, ["x", "y"]).kernel.matrix.tolist() == p.kernel.matrix.tolist()
    empty = marginalize(p, [])
    assert empty.wire_names == ()
    assert empty.kernel.matrix.tolist() == [[1.0]]


def test_marginalize_unknown_wire():
    p = JointState.from_array([[0.2, 0.2], [0.3, 0.3]], [("x", A), ("y", B)])
    with pytest.raises(UnknownWire):
        marginalize(p, ["z"])


def test_reindex_transposes_the_array():
    p = JointState.from_array([[0.2, 0.2], [0.3, 0.3]], [("x", A), ("y", B)])
    got = reindex(p, ["y", "x"])
    assert got.wire_names == ("y", "x")
    assert np.allclose(got.array, [[0.2, 0.3], [0.2, 0.3]])
    with pytest.raises(ShapeMismatch):
        reindex(p, ["x", "x"])


def test_is_deterministic_thresholds():
    assert is_deterministic(Kernel((A,), (B,), [[1.0, 0.0], [0.0, 1.0]]))
    assert not is_deterministic(Kernel((A,), (B,), [[0.5, 0.5], [0.0, 1.0]]))


def test_conditional_of_a_product_state_is_constant():
    p = tensor(Kernel.state([0.4, 0.6], A), Kernel.state([0.25, 0.75], B))
    c = conditional(p, [0])
    assert c.dom == (A,)
    assert c.cod == (B,)
    assert np.allclose(c.matrix, [[0.25, 0.75], [0.25, 0.75]])


def test_conditional_worked_two_wire_example():
    p = Kernel.state([0.2, 0.2, 0.3, 0.3], (A, B))
    c = conditional(p, [0])
    assert np.allclose(c.matrix, [[0.5, 0.5], [0.5, 0.5]])


def test_conditional_zero_mass_rows_are_uniform():
    p = Kernel.state([0.0, 0.0, 0.4, 0.6], (A, B))
    c = conditional(p, [0])
    assert np.allclose(c.matrix[0], [0.5, 0.5])
    assert np.allclose(c.matrix[1], [0.4, 0.6])


def test_conditional_recomposes_exactly():
    rng = np.random.default_rng(16)
    for _ in range(30):
        nf = int(rng.integers(2, 4))
        facs = tuple(random_carrier(rng, l, 2, 3) for l in "DEF"[:nf])
        p = random_state(rng, facs, zero_frac=0.3)
        k = int(rng.integers(1, nf))
        given = [int(i) for i in rng.choice(nf, size=k, replace=False)]
        rest = [i for i in range(nf) if i not in given]
        c = conditional(p, given)
        assert c.dom == tuple(facs[i] for i in given)
        assert c.cod == tuple(facs[i] for i in rest)
        arr = p.array
        x_shape = tuple(facs[i].size for i in given)
        y_shape = tuple(facs[i].size for i in rest)
        for idx in itertools.product(*(range(f.size) for f in facs)):
            row = int(
                np.ravel_multi_index(tuple(idx[i] for i in given), x_shape)
            )
            col = int(np.ravel_multi_index(tuple(idx[i] for i in rest), y_shape))
            sel = tuple(
                idx[i] if i in given else slice(None) for i in range(nf)
            )
            mass = float(arr[sel].sum())
            assert abs(mass * c.matrix[row, col] - arr[idx]) <= 1e-15


def test_conditional_rejects_bad_positions():
    p = Kernel.state([0.25] * 4, (A, B))
    with pytest.raises(ShapeMismatch):
        conditional(p, [0, 0])
    with pytest.raises(ShapeMismatch):
        conditional(p, [2])


def test_as_equal_sees_only_the_support():
    p = Kernel.state([0.5, 0.5, 0.0], carrier("D", 3))
    f = Kernel((carrier("D", 3),), (B,), [[0.3, 0.7], [0.6, 0.4], [1.0, 0.0]])
    g = Kernel((carrier("D", 3),), (B,), [[0.3, 0.7], [0.6, 0.4], [0.0, 1.0]])
    assert as_equal(f, g, p)
    assert as_equal_residual(f, g, p) == 0.0
    assert max_abs_diff(f, g) == 1.0
    q = Kernel.state([0.4, 0.3, 0.3], carrier("D", 3))
    assert not as_equal(f, g, q)


def test_as_equal_interface_checks():
    f = random_kernel(np.random.default_rng(0), A, B)
    p = Kernel.state([1.0], carrier("U", 1))
    with pytest.raises(DomainMismatch):
        as_equal(f, f, p)


def test_cs_check_equal_kernels():
    rng = np.random.default_rng(17)
    p = random_state(rng, A)
    f = random_kernel(rng, A, B)
    rep = cs_check(p, f, f)
    assert rep.antecedent_holds and rep.consequent_holds
    assert rep.antecedent_residual == 0.0
    assert rep.implication_holds


def test_cs_check_off_support_difference_keeps_antecedent():
    d = carrier("D", 3)
    p = Kernel.state([0.6, 0.4, 0.0], d)
    f = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    g = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.8, 0.2]])
    rep = cs_check(p, f, g)
    assert rep.antecedent_residual == 0.0
    assert rep.antecedent_holds
    assert rep.consequent_holds
    assert rep.implication_holds


def test_cs_check_on_support_difference_breaks_antecedent():
    p = Kernel.state([0.5, 0.5], A)
    f = Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]])
    g = Kernel((A,), (B,), [[0.5, 0.5], [0.6, 0.4]])
    rep = cs_check(p, f, g)
    assert not rep.antecedent_holds
    assert rep.antecedent_residual > 1e-3
    assert rep.implication_holds  # vacuously


def test_cs_check_with_a_kernel_as_reference():
    d = carrier("D", 3)
    p = Kernel((A,), (d,), [[0.5, 0.5, 0.0], [0.2, 0.8, 0.0]])
    f = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    g = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.9, 0.1]])
    rep = cs_check(p, f, g)
    assert rep.antecedent_residual == 0.0
    assert rep.consequent_holds


def test_pairing_is_the_copy_tensor_composite():
    # the reference is the categorical definition: (u ⊗ v) ∘ copy ∘ p
    rng = np.random.default_rng(23)
    d = carrier("D", 3)
    p = random_kernel(rng, A, (d, B), zero_frac=0.3)
    u = random_kernel(rng, (d, B), (B, C))
    v = random_kernel(rng, (d, B), A)
    dense = compose(tensor(u, v), compose(copy_kernel(p.cod), p))
    assert max_abs_diff(_pairing(u, v, p), dense) <= 1e-15


def test_cs_check_pairings_are_not_held_to_the_entry_cap():
    # each pairing has 1025**2 > 2**20 entries
    y = carrier("Y", 1025)
    p = Kernel.state([1.0], carrier("u", 1))
    f = Kernel((carrier("u", 1),), (y,), np.full((1, y.size), 1 / y.size))
    rep = cs_check(p, f, f)
    assert rep.antecedent_holds and rep.consequent_holds


# ---------------------------------------------------------------------------
# parametric kernels


def test_param_lift_slices_are_constant():
    rng = np.random.default_rng(18)
    k = random_kernel(rng, A, B)
    w = carrier("W", 3)
    pk = param_lift(k, w)
    assert pk.param == w
    assert pk.dom == (A,)
    for s in pk.slices():
        assert max_abs_diff(s, k) == 0.0


def test_parametric_compose_agrees_with_plain_compose_per_slice():
    rng = np.random.default_rng(19)
    w = carrier("W", 2)
    f = ParamKernel(random_kernel(rng, (A, w), B))
    g = ParamKernel(random_kernel(rng, (B, w), C))
    got = parametric_compose(g, f)
    for fs, gs, hs in zip(f.slices(), g.slices(), got.slices()):
        assert max_abs_diff(compose(gs, fs), hs) <= 1e-14


def test_parametric_compose_single_parameter_value_is_plain_composition():
    rng = np.random.default_rng(20)
    w = carrier("W", 1)
    f0, g0 = random_kernel(rng, A, B), random_kernel(rng, B, C)
    got = parametric_compose(param_lift(g0, w), param_lift(f0, w))
    assert max_abs_diff(got.slices()[0], compose(g0, f0)) <= 1e-14


def test_parametric_tensor_copies_the_parameter():
    rng = np.random.default_rng(21)
    w = carrier("W", 2)
    f = ParamKernel(random_kernel(rng, (A, w), B))
    g = ParamKernel(random_kernel(rng, (C, w), C))
    got = parametric_tensor(f, g)
    for fs, gs, hs in zip(f.slices(), g.slices(), got.slices()):
        assert max_abs_diff(tensor(fs, gs), hs) <= 1e-14


def test_parametric_mismatched_parameters_raise():
    rng = np.random.default_rng(22)
    f = ParamKernel(random_kernel(rng, (A, carrier("W", 2)), B))
    g = ParamKernel(random_kernel(rng, (B, carrier("V", 2)), C))
    with pytest.raises(ParamMismatch):
        parametric_compose(g, f)
    with pytest.raises(ParamMismatch):
        parametric_tensor(f, g)
    # a shorter parameter must not truncate the slice-wise checks
    p = ParamKernel(random_kernel(rng, carrier("V", 3), A))
    f2 = ParamKernel(random_kernel(rng, (A, carrier("V", 2)), B))
    with pytest.raises(ParamMismatch):
        parametric_as_equal(f2, f2, p)
    with pytest.raises(ParamMismatch):
        parametric_cs_check(p, f2, f2)


def test_parametric_as_equal_is_slice_wise():
    w = carrier("W", 2)
    d = carrier("D", 2)
    # slice 0 puts no mass on the second input, slice 1 covers both
    p = ParamKernel(Kernel((w,), (d,), [[1.0, 0.0], [0.5, 0.5]]))
    f = ParamKernel(
        Kernel((d, w), (B,), [[0.3, 0.7], [0.3, 0.7], [0.2, 0.8], [0.9, 0.1]])
    )
    g = ParamKernel(
        Kernel((d, w), (B,), [[0.3, 0.7], [0.3, 0.7], [0.6, 0.4], [0.9, 0.1]])
    )
    # f and g differ only at (input 1, slice 0), which slice 0 never hits
    assert parametric_as_equal(f, g, p)
    q = ParamKernel(Kernel((w,), (d,), [[0.5, 0.5], [0.5, 0.5]]))
    assert not parametric_as_equal(f, g, q)


def test_parametric_cs_check_implication():
    w = carrier("W", 2)
    d = carrier("D", 2)
    p = ParamKernel(Kernel((w,), (d,), [[1.0, 0.0], [0.5, 0.5]]))
    f = ParamKernel(
        Kernel((d, w), (B,), [[0.3, 0.7], [0.3, 0.7], [0.2, 0.8], [0.9, 0.1]])
    )
    g = ParamKernel(
        Kernel((d, w), (B,), [[0.3, 0.7], [0.3, 0.7], [0.6, 0.4], [0.9, 0.1]])
    )
    rep = parametric_cs_check(p, f, g)
    assert rep.antecedent_residual == 0.0
    assert rep.consequent_holds
    assert rep.implication_holds


def test_max_abs_diff_requires_matching_interfaces():
    f = random_kernel(np.random.default_rng(1), A, B)
    g = random_kernel(np.random.default_rng(2), B, A)
    with pytest.raises(DomainMismatch):
        max_abs_diff(f, g)


def test_joint_state_wire_lookup():
    p = random_joint(np.random.default_rng(3), ["x", "y"])
    assert p.wire_index("y") == 1
    assert p.carrier("x").label == "x"
    with pytest.raises(UnknownWire):
        p.wire_index("z")
