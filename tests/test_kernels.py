"""Kernel algebra: composition, tensor, structure maps, conditionals."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    DEFAULT_ATOL,
    DomainMismatch,
    UnknownWire,
    FinSet,
    JointState,
    Kernel,
    ParamMismatch,
    ShapeMismatch,
    SizeLimit,
    as_equal_residual,
    compose,
    conditional,
    copy_kernel,
    cs_check,
    deterministic_kernel,
    discard_kernel,
    identity,
    marginalize,
    max_abs_diff,
    parametric_cs_check,
    ParamKernel,
    reindex,
    swap_kernel,
    tensor,
)
from finstoch import kernels
from finstoch.kernels import _marginal, _pairing, contract
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
        assert np.isin(k.matrix, (0.0, 1.0)).all()


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


def test_tensor_and_compose_share_the_entry_cap():
    # 1600 x 1600 = 2,560,000 entries exceed 2**20
    with pytest.raises(SizeLimit):
        tensor(identity(carrier("a", 40)), identity(carrier("b", 40)))
    # 2000 x 1000 entries from a 2000 x 1 and a 1 x 1000 matrix
    with pytest.raises(SizeLimit):
        u = Kernel.state(np.full(1000, 1e-3), carrier("u", 1000))
        compose(u, discard_kernel(carrier("d", 2000)))


def test_tensor_cap_fires_before_the_product_is_allocated():
    a, b = identity(carrier("a", 1024)), identity(carrier("b", 1024))  # 2**20 each
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            tensor(a, b)  # 2**40 entries
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
    assert not np.isin(f.matrix, (0.0, 1.0)).all()


def test_copy_naturality_exact_for_deterministic():
    rng = np.random.default_rng(15)
    d = carrier("D", 3)
    values = list(rng.integers(0, 2, size=3))
    f = deterministic_kernel(d, A, lambda xs: (str(values[d.index(xs[0])]),))
    assert np.isin(f.matrix, (0.0, 1.0)).all()
    lhs = compose(copy_kernel(A), f)
    rhs = compose(tensor(f, f), copy_kernel(d))
    assert max_abs_diff(lhs, rhs) == 0.0


def test_deterministic_kernel_arity_check():
    with pytest.raises(ShapeMismatch):
        deterministic_kernel(A, (A, B), lambda xs: xs)


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


@hs.composite
def _marginal_cases(draw):
    """An array with planted zeros, its wire names, and wanted wires in shuffled order."""
    sizes = draw(hs.lists(hs.integers(1, 3), max_size=5))
    names = tuple(f"w{k}" for k in range(len(sizes)))
    wires = draw(hs.permutations(names))[: draw(hs.integers(0, len(names)))]
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    arr = np.array(rng.random(sizes))  # 0-d when there are no wires
    arr[rng.random(sizes) < draw(hs.floats(0.0, 0.7))] = 0.0
    arr /= max(arr.sum(), 1.0)
    return arr, names, wires


@settings(max_examples=150, derandomize=True, deadline=None)
@given(_marginal_cases())
def test_marginal_matches_a_loop_sum(case):
    arr, names, wires = case
    keep = [names.index(w) for w in wires]
    want = np.zeros([arr.shape[k] for k in keep])
    for cell in itertools.product(*map(range, arr.shape)):
        want[tuple(cell[k] for k in keep)] += arr[cell]
    got = _marginal(arr, names, wires)
    assert got.shape == want.shape and got.flags.c_contiguous
    assert np.abs(got - want).max(initial=0.0) <= 1e-15


_RNG = np.random.default_rng(7)


@pytest.mark.parametrize(
    "operands, out",
    [
        ([(_RNG.random((3, 3)), "ii"), (_RNG.random((3, 2)), "ij")], "ij"),
        ([(np.array(0.5), ""), (_RNG.random((2, 3)), "ab")], "ab"),
        ([(_RNG.random(2), "t"), (_RNG.random((2, 3)), "tr"), (_RNG.random((2, 4)), "tc")], "trc"),
        ([(_RNG.random(2), "t"), (_RNG.random((3, 2)), "rt"), (_RNG.random((2, 4)), "tc")], "crt"),
        ([(_RNG.random((2, 3)), "tr"), (_RNG.random((2, 4)), "tc")], "rc"),
    ],
    ids=["repeated-label", "0-d-operand", "shared-label", "out-reordered", "summed-label"],
)
def test_contract_matches_unoptimized_einsum(operands, out):
    spec = ",".join(labels for _, labels in operands) + "->" + out
    want = np.einsum(spec, *(arr for arr, _ in operands), optimize=False)
    got = contract(operands, out)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize(
    "operands, out",
    [
        # every pair outgrows the operands and the result: one step of three
        ([(_RNG.random((3, 4)), "ix"), (_RNG.random((4, 3)), "xa"), (_RNG.random((4, 3)), "xb")],
         "iab"),
        # so does the step that would sum t alone: one step of everything left
        ([(_RNG.random(3), "t")] + [(_RNG.random((3, 3, 2)), "tr" + s) for s in "abc"]
         + [(_RNG.random(3), "r")], "abc"),
    ],
    ids=["pairs-too-large", "bucket-too-large"],
)
def test_contract_under_a_cap_the_result_just_meets(monkeypatch, operands, out):
    spec = ",".join(labels for _, labels in operands) + "->" + out
    want = np.einsum(spec, *(arr for arr, _ in operands), optimize=False)
    monkeypatch.setattr(kernels, "MAX_ENTRIES", want.size)
    got = contract(operands, out)
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= 1e-15


@hs.composite
def _contract_cases(draw):
    """Operands with shared, repeated and summed labels, 0-d ones among them, and a shuffled out."""
    sizes = draw(hs.lists(hs.integers(1, 3), min_size=1, max_size=6))  # one carrier per label
    labels = hs.lists(hs.integers(0, len(sizes) - 1), max_size=4)  # repeats allowed; [] is 0-d
    idxs = draw(hs.lists(labels, min_size=1, max_size=6))
    if draw(hs.booleans()):  # a label every operand carries
        sizes.append(draw(hs.integers(1, 3)))
        idxs = [idx + [len(sizes) - 1] for idx in idxs]
    used = sorted({i for idx in idxs for i in idx})
    out = draw(hs.permutations(used))[: draw(hs.integers(0, len(used)))]
    rng = np.random.default_rng(draw(hs.integers(0, 2**32 - 1)))
    operands = []
    for idx in idxs:
        arr = np.array(rng.random([sizes[i] for i in idx]))
        operands.append((arr / max(arr.sum(), 1.0), idx))  # every sum of products stays <= 1
    return operands, out


@settings(max_examples=300, derandomize=True, deadline=None)
@given(_contract_cases())
def test_contract_matches_unoptimized_einsum_on_drawn_operands(case):
    operands, out = case
    want = np.einsum(*itertools.chain.from_iterable(operands), out, optimize=False)
    got = contract(operands, out)
    assert got.shape == want.shape
    assert np.abs(got - want).max(initial=0.0) <= 1e-15
    # reversed and renamed, the labels are numbered anew, which moves the elimination order's ties
    renamed = contract(
        [(arr, [f"r{i}" for i in idx]) for arr, idx in operands[::-1]], [f"r{i}" for i in out]
    )
    bound = np.where(np.abs(got) < 1e-12, 1e-15, 1e-12 * np.abs(got))
    assert renamed.shape == got.shape and np.all(np.abs(renamed - got) <= bound)


def test_pairing_steps_stay_under_the_cap(monkeypatch):
    # p, u and v have 4e4 entries and each pairing 8e3, the cap here; p times u alone has 8e5
    rng = np.random.default_rng(98)
    i, x, y = carrier("I", 20), carrier("X", 2000), carrier("Y", 20)
    p, u, v = random_kernel(rng, i, x), random_kernel(rng, x, y), random_kernel(rng, x, y)
    monkeypatch.setattr(kernels, "MAX_ENTRIES", 8000)
    tracemalloc.start()
    try:
        rep = cs_check(p, u, v)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not rep.antecedent_holds
    assert peak < 8 * 8 * 40_000  # eight input-sized arrays; the pairwise path takes ~40


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
    assert as_equal_residual(f, g, p) <= DEFAULT_ATOL
    assert as_equal_residual(f, g, p) == 0.0
    assert max_abs_diff(f, g) == 1.0
    q = Kernel.state([0.4, 0.3, 0.3], carrier("D", 3))
    assert as_equal_residual(f, g, q) > DEFAULT_ATOL


def test_as_equal_counts_a_mass_of_exactly_atol_as_null():
    d = carrier("D", 2)
    f = Kernel((d,), (B,), [[0.3, 0.7], [1.0, 0.0]])
    g = Kernel((d,), (B,), [[0.3, 0.7], [0.0, 1.0]])
    above = np.nextafter(DEFAULT_ATOL, 1.0)
    assert as_equal_residual(f, g, Kernel.state([1 - DEFAULT_ATOL, DEFAULT_ATOL], d)) == 0.0
    assert as_equal_residual(f, g, Kernel.state([1 - above, above], d)) == 1.0


def test_as_equal_interface_checks():
    f = random_kernel(np.random.default_rng(0), A, B)
    p = Kernel.state([1.0], carrier("U", 1))
    with pytest.raises(DomainMismatch):
        as_equal_residual(f, f, p)


def test_cs_check_equal_kernels():
    rng = np.random.default_rng(17)
    p = random_state(rng, A)
    f = random_kernel(rng, A, B)
    rep = cs_check(p, f, f)
    assert rep.antecedent_holds and rep.consequent_holds
    assert rep.antecedent_residual == 0.0


def test_cs_check_off_support_difference_keeps_antecedent():
    d = carrier("D", 3)
    p = Kernel.state([0.6, 0.4, 0.0], d)
    f = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.1, 0.9]])
    g = Kernel((d,), (B,), [[0.3, 0.7], [0.6, 0.4], [0.8, 0.2]])
    rep = cs_check(p, f, g)
    assert rep.antecedent_residual == 0.0
    assert rep.antecedent_holds
    assert rep.consequent_holds


def test_cs_check_on_support_difference_breaks_antecedent():
    p = Kernel.state([0.5, 0.5], A)
    f = Kernel((A,), (B,), [[0.3, 0.7], [0.6, 0.4]])
    g = Kernel((A,), (B,), [[0.5, 0.5], [0.6, 0.4]])
    rep = cs_check(p, f, g)
    assert not rep.antecedent_holds
    assert rep.antecedent_residual > 1e-3


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


# ---------------------------------------------------------------------------
# parametric kernels


def test_parametric_mismatched_parameters_raise():
    rng = np.random.default_rng(22)
    p = ParamKernel(random_kernel(rng, carrier("W", 2), A))
    f = ParamKernel(random_kernel(rng, (A, carrier("V", 2)), B))
    with pytest.raises(ParamMismatch):
        parametric_cs_check(p, f, f)
    # a shorter parameter must not truncate the slice-wise check
    p = ParamKernel(random_kernel(rng, carrier("V", 3), A))
    with pytest.raises(ParamMismatch):
        parametric_cs_check(p, f, f)


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
    def residual(p):
        return max(as_equal_residual(*s) for s in zip(f.slices(), g.slices(), p.slices()))

    assert residual(p) <= DEFAULT_ATOL
    q = ParamKernel(Kernel((w,), (d,), [[0.5, 0.5], [0.5, 0.5]]))
    assert residual(q) > DEFAULT_ATOL


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
