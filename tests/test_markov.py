"""Recomposition, screening-off checks, and constructive factorization."""

import numpy as np
import pytest

from finstoch import (
    Box,
    BoxAssignment,
    JointState,
    Kernel,
    ShapeMismatch,
    SizeLimit,
    TimingFunction,
    UnknownNode,
    UnknownWire,
    WireMismatch,
    as_equal,
    check_compatible,
    check_local_markov,
    check_ordered_markov,
    compatibility_residual,
    factorize,
    local_markov_residual,
    make_model,
    marginalize,
    max_abs_diff,
    ordered_markov_residual,
    recompose,
    reindex,
)
from support import (
    carrier,
    perturbed,
    random_assignment,
    random_dag_model,
    random_kernel,
    random_state,
)

BIT = carrier("bit", 2)

CHAIN = make_model(
    [
        Box("f1", (), ("X",)),
        Box("f2", ("X",), ("Y",)),
        Box("f3", ("Y",), ("Z",)),
    ]
)


def _chain_assignment(rng, zero_frac=0.0):
    carriers = {w: BIT for w in CHAIN.wires}
    kernels = {
        "f1": random_state(rng, BIT, zero_frac),
        "f2": random_kernel(rng, BIT, BIT),
        "f3": random_kernel(rng, BIT, BIT),
    }
    return BoxAssignment(carriers, kernels)


def _coupled_chain_state():
    """X a fair bit, Y an independent fair bit, Z a copy of X."""
    arr = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            arr[x, y, x] = 0.25
    return JointState.from_array(arr, [("X", BIT), ("Y", BIT), ("Z", BIT)])


def test_recompose_single_box_returns_its_state():
    m = make_model([Box("f1", (), ("A",))])
    a = carrier("A", 3)
    q = random_state(np.random.default_rng(61), a)
    p = recompose(m, BoxAssignment({"A": a}, {"f1": q}))
    assert p.wire_names == ("A",)
    assert max_abs_diff(p.kernel, q) == 0.0


def test_recompose_chain_with_copies_is_diagonal():
    carriers = {w: BIT for w in CHAIN.wires}
    ident = Kernel((BIT,), (BIT,), [[1.0, 0.0], [0.0, 1.0]])
    asg = BoxAssignment(
        carriers,
        {"f1": Kernel.state([0.3, 0.7], BIT), "f2": ident, "f3": ident},
    )
    p = recompose(CHAIN, asg)
    assert p.wire_names == ("X", "Y", "Z")
    assert p.array[0, 0, 0] == pytest.approx(0.3)
    assert p.array[1, 1, 1] == pytest.approx(0.7)
    assert p.kernel.matrix.sum() == pytest.approx(1.0)


def test_recompose_matches_the_chain_rule_loop():
    rng = np.random.default_rng(62)
    for _ in range(20):
        asg = _chain_assignment(rng)
        p = recompose(CHAIN, asg)
        q = asg.kernels["f1"].matrix[0]
        k2 = asg.kernels["f2"].matrix
        k3 = asg.kernels["f3"].matrix
        out = np.zeros((2, 2, 2))
        for x in range(2):
            for y in range(2):
                for z in range(2):
                    out[x, y, z] = q[x] * k2[x, y] * k3[y, z]
        assert np.abs(p.array - out).max() <= 1e-15


def test_recompose_output_order_follows_the_model():
    m = make_model(
        [Box("f1", (), ("B", "A")), Box("f2", ("A",), ("C",))],
    )
    rng = np.random.default_rng(63)
    asg = random_assignment(rng, m)
    p = recompose(m, asg)
    assert p.wire_names == m.outputs == ("A", "B", "C")


def test_recompose_respects_the_entry_cap():
    asg = _chain_assignment(np.random.default_rng(64))
    with pytest.raises(SizeLimit):
        recompose(CHAIN, asg, max_entries=4)


def _unit_chain(n):
    """An n-wire chain model on one-element carriers, with its only assignment."""
    one = carrier("one", 1)
    wires = [f"w{k}" for k in range(n)]
    boxes = [Box("b0", (), (wires[0],))] + [
        Box(f"b{k}", (wires[k - 1],), (wires[k],)) for k in range(1, n)
    ]
    kernels = {"b0": Kernel.state([1.0], one)}
    kernels.update({f"b{k}": Kernel((one,), (one,), [[1.0]]) for k in range(1, n)})
    return make_model(boxes), BoxAssignment({w: one for w in wires}, kernels)


def test_recompose_caps_the_number_of_wires_at_52():
    p = recompose(*_unit_chain(52))
    assert len(p.wire_names) == 52 and p.kernel.matrix.tolist() == [[1.0]]
    with pytest.raises(SizeLimit):
        recompose(*_unit_chain(53))


def test_assignment_validation():
    rng = np.random.default_rng(65)
    asg = _chain_assignment(rng)
    missing_carrier = BoxAssignment(
        {w: BIT for w in ("X", "Y")}, dict(asg.kernels)
    )
    with pytest.raises(UnknownWire):
        recompose(CHAIN, missing_carrier)
    missing_kernel = BoxAssignment(
        dict(asg.carriers), {"f1": asg.kernels["f1"]}
    )
    with pytest.raises(UnknownNode):
        recompose(CHAIN, missing_kernel)
    wrong_interface = BoxAssignment(
        dict(asg.carriers),
        {**asg.kernels, "f2": random_kernel(rng, (BIT, BIT), BIT)},
    )
    with pytest.raises(ShapeMismatch):
        recompose(CHAIN, wrong_interface)


def test_recomposed_states_satisfy_both_markov_properties():
    rng = np.random.default_rng(66)
    for _ in range(10):
        asg = _chain_assignment(rng)
        p = recompose(CHAIN, asg)
        assert local_markov_residual(p, CHAIN) <= 1e-12
        assert ordered_markov_residual(p, CHAIN) <= 1e-12
        assert check_local_markov(p, CHAIN)
        assert check_ordered_markov(p, CHAIN)


def test_coupled_state_fails_every_notion():
    p = _coupled_chain_state()
    assert local_markov_residual(p, CHAIN) > 0.05
    assert ordered_markov_residual(p, CHAIN) > 0.05
    assert compatibility_residual(p, CHAIN) == pytest.approx(0.125)
    assert not check_compatible(p, CHAIN)


def test_factorize_then_recompose_is_the_identity_on_compatible_states():
    rng = np.random.default_rng(67)
    for _ in range(10):
        asg = _chain_assignment(rng)
        p = recompose(CHAIN, asg)
        assert compatibility_residual(p, CHAIN) <= 1e-12
        back = recompose(CHAIN, factorize(p, CHAIN))
        assert np.abs(
            reindex(back, p.wire_names).kernel.matrix - p.kernel.matrix
        ).max() <= 1e-12


def test_factorized_kernels_agree_almost_surely_with_the_originals():
    rng = np.random.default_rng(68)
    asg = _chain_assignment(rng, zero_frac=0.5)
    p = recompose(CHAIN, asg)
    back = factorize(p, CHAIN)
    for b in CHAIN.boxes:
        if not b.in_wires:
            continue
        marg = reindex(marginalize(p, b.in_wires), list(b.in_wires)).kernel
        assert as_equal(
            back.kernels[b.name], asg.kernels[b.name], marg, atol=1e-9
        )


def test_factorize_fills_unobserved_rows_with_uniform():
    rng = np.random.default_rng(69)
    carriers = {w: BIT for w in CHAIN.wires}
    asg = BoxAssignment(
        carriers,
        {
            "f1": Kernel.state([1.0, 0.0], BIT),
            "f2": random_kernel(rng, BIT, BIT),
            "f3": random_kernel(rng, BIT, BIT),
        },
    )
    p = recompose(CHAIN, asg)
    back = factorize(p, CHAIN)
    # the second input value never occurs, so its row is the uniform one
    assert np.allclose(back.kernels["f2"].matrix[1], [0.5, 0.5])
    assert np.allclose(
        back.kernels["f2"].matrix[0], asg.kernels["f2"].matrix[0]
    )


def test_timing_choice_does_not_change_the_verdict():
    rng = np.random.default_rng(70)
    stretched = TimingFunction({"f1": 1, "f2": 5, "f3": 9})
    asg = _chain_assignment(rng)
    p = recompose(CHAIN, asg)
    assert ordered_markov_residual(p, CHAIN, stretched) == pytest.approx(
        ordered_markov_residual(p, CHAIN)
    )
    bad = _coupled_chain_state()
    assert not check_ordered_markov(bad, CHAIN, stretched)
    assert max_abs_diff(
        recompose(CHAIN, factorize(p, CHAIN, stretched)).kernel, p.kernel
    ) <= 1e-12


def test_alternative_timings_on_a_merge_model():
    rng = np.random.default_rng(71)
    m = make_model(
        [
            Box("alpha", (), ("A",)),
            Box("beta", ("A",), ("X",)),
            Box("gamma", ("A",), ("W",)),
            Box("eta", ("X", "W"), ("Y",)),
        ]
    )
    asg = random_assignment(rng, m)
    p = recompose(m, asg)
    for times in (
        {"alpha": 1, "beta": 2, "gamma": 2, "eta": 3},
        {"alpha": 1, "beta": 2, "gamma": 3, "eta": 4},
        {"alpha": 1, "beta": 3, "gamma": 2, "eta": 4},
    ):
        t = TimingFunction(times)
        assert check_ordered_markov(p, m, t, atol=1e-9)
        r = recompose(m, factorize(p, m, t))
        assert np.abs(
            reindex(r, p.wire_names).kernel.matrix - p.kernel.matrix
        ).max() <= 1e-12


def test_wire_mismatch_is_rejected():
    p = _coupled_chain_state()
    q = JointState(p.kernel, ("X", "Y", "Q"))
    with pytest.raises(WireMismatch):
        local_markov_residual(q, CHAIN)
    with pytest.raises(WireMismatch):
        factorize(q, CHAIN)


def test_three_notions_agree_on_random_models():
    rng = np.random.default_rng(72)
    for trial in range(30):
        m = random_dag_model(rng)
        asg = random_assignment(rng, m)
        p = recompose(m, asg)
        if trial % 2:
            p = perturbed(rng, p, eps=0.05)
        a = check_compatible(p, m, atol=1e-7)
        b = check_local_markov(p, m, atol=1e-7)
        c = check_ordered_markov(p, m, atol=1e-7)
        assert a == b == c
        if trial % 2 == 0:
            assert a
            assert compatibility_residual(p, m) <= 1e-9
