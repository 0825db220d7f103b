"""Recomposition, screening-off checks, and constructive factorization."""

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    DEFAULT_ATOL,
    Box,
    BoxAssignment,
    InvalidTiming,
    JointState,
    Kernel,
    ShapeMismatch,
    SizeLimit,
    TimingFunction,
    UnknownNode,
    UnknownWire,
    WireMismatch,
    as_equal_residual,
    build_ah_joint,
    check_partition_lemma,
    ci_residual,
    compatibility_residual,
    expand_ah_model,
    factorize,
    local_markov_residual,
    make_model,
    marginalize,
    markov_residuals,
    max_abs_diff,
    mutual_ci_residual,
    ordered_markov_residual,
    recompose,
    reindex,
    topo_order,
)
from finstoch import ci, models
from finstoch.kernels import contract
from support import (
    carrier,
    perturbed,
    random_ahspec,
    random_assignment,
    random_dag_model,
    random_joint,
    random_kernel,
    random_state,
    relaid_out,
    skipped_link_chain,
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


def _stepwise_recompose(m, asg):
    """Joint array built one box at a time in topological order, then reordered."""
    current, have = np.ones(()), ()
    for b in topo_order(m):
        operands = [(current, have), (asg.kernels[b.name].array, b.in_wires + b.out_wires)]
        have += b.out_wires
        current = contract(operands, have)
    return contract([(current, have)], m.outputs)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1))
def test_recompose_is_bitwise_the_stepwise_product(seed):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    asg = random_assignment(rng, m)
    p = recompose(m, asg)
    assert p.wire_names == m.outputs
    assert p.array.tobytes() == _stepwise_recompose(m, asg).tobytes()


def test_recompose_output_order_follows_the_model():
    m = make_model(
        [Box("f1", (), ("B", "A")), Box("f2", ("A",), ("C",))],
    )
    rng = np.random.default_rng(63)
    asg = random_assignment(rng, m)
    p = recompose(m, asg)
    assert p.wire_names == m.outputs == ("A", "B", "C")


def test_recompose_respects_the_entry_cap():
    # three independent wires on 128-element carriers: 2**21 entries
    big = carrier("big", 128)
    m = make_model([Box(f"f{k}", (), (f"W{k}",)) for k in range(3)])
    asg = BoxAssignment({w: big for w in m.wires}, {b.name: Kernel.state(np.full(128, 1 / 128), big) for b in m.boxes})
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="entries exceed the cap"):
            recompose(m, asg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


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
        assert local_markov_residual(p, CHAIN) <= DEFAULT_ATOL
        assert ordered_markov_residual(p, CHAIN) <= DEFAULT_ATOL


def test_coupled_state_fails_every_notion():
    p = _coupled_chain_state()
    assert local_markov_residual(p, CHAIN) > 0.05
    assert ordered_markov_residual(p, CHAIN) > 0.05
    assert compatibility_residual(p, CHAIN) == pytest.approx(0.125)
    assert compatibility_residual(p, CHAIN) > DEFAULT_ATOL


def test_one_failing_box_fails_both_properties():
    # the family's residual is its worst statement's, not its best one's
    chain, p = skipped_link_chain()
    assert ci_residual(p, ["C"], ["A"], ["B"]) <= 1e-15  # box c's statement holds
    local, ordered = markov_residuals(p, chain)
    assert local > 1e-9 and ordered > 1e-9


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
        assert as_equal_residual(back.kernels[b.name], asg.kernels[b.name], marg) <= 1e-9


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
    assert ordered_markov_residual(bad, CHAIN, stretched) > DEFAULT_ATOL
    assert max_abs_diff(
        recompose(CHAIN, factorize(p, CHAIN, stretched)).kernel, p.kernel
    ) <= 1e-12


def test_an_invalid_timing_is_rejected():
    p = recompose(CHAIN, _chain_assignment(np.random.default_rng(73)))
    flat = TimingFunction({"f1": 1, "f2": 1, "f3": 2})
    for check in (ordered_markov_residual, compatibility_residual):
        with pytest.raises(InvalidTiming):
            check(p, CHAIN, flat)


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
        assert ordered_markov_residual(p, m, t) <= 1e-9
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
        a = compatibility_residual(p, m) <= 1e-7
        b = local_markov_residual(p, m) <= 1e-7
        c = ordered_markov_residual(p, m) <= 1e-7
        assert a == b == c
        if trial % 2 == 0:
            assert a
            assert compatibility_residual(p, m) <= 1e-9


@settings(max_examples=150, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.sampled_from([0.0, 0.3]), hs.booleans())
def test_residuals_do_not_depend_on_the_model_layout(seed, zero_frac, perturb):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m, zero_frac=zero_frac))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    n = relaid_out(rng, m)
    assert local_markov_residual(p, n) == local_markov_residual(p, m)
    assert ordered_markov_residual(p, n) == ordered_markov_residual(p, m)
    r, s = compatibility_residual(p, m), compatibility_residual(p, n)
    assert abs(r - s) <= (1e-15 if max(r, s) < 1e-12 else 1e-12 * max(r, s))


@settings(max_examples=50, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.booleans())
def test_residuals_of_a_built_model_do_not_validate_it_again(seed, perturb):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    with mock.patch.object(models, "validate_model", wraps=models.validate_model) as spy:
        local_markov_residual(p, m)
        ordered_markov_residual(p, m)
        compatibility_residual(p, m)
    assert spy.call_count == 0


def _random_timing(rng, m):
    """A valid timing: each box one or two stages after its latest producer."""
    produced = {w: b.name for b in m.boxes for w in b.out_wires}
    times: dict[str, int] = {}
    for b in topo_order(m):
        latest = max((times[produced[w]] for w in b.in_wires), default=0)
        times[b.name] = latest + int(rng.integers(1, 3))
    return TimingFunction(times)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.sampled_from([0.0, 0.3]), hs.booleans())
def test_markov_residuals_are_bitwise_the_single_property_residuals(seed, zero_frac, perturb):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m, zero_frac=zero_frac))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    t = _random_timing(rng, m)
    assert markov_residuals(p, m, t) == (
        local_markov_residual(p, m),
        ordered_markov_residual(p, m, t),
    )
    assert markov_residuals(p, m) == (local_markov_residual(p, m), ordered_markov_residual(p, m))


@pytest.mark.parametrize("n, separate, together", [(2, 16, 12), (3, 30, 21)])
def test_markov_residuals_evaluate_a_shared_statement_once(n, separate, together):
    # the entry boxes screen off the same wires under both properties
    m = expand_ah_model(n)
    p = build_ah_joint(random_ahspec(np.random.default_rng(n), n, hi=2), expose_latents=True)
    with mock.patch.object(ci, "mutual_ci_residual", wraps=ci.mutual_ci_residual) as spy:
        residuals = local_markov_residual(p, m), ordered_markov_residual(p, m)
        assert spy.call_count == separate
        spy.reset_mock()
        assert markov_residuals(p, m) == residuals
        assert spy.call_count == together


def test_a_statement_table_allocates_three_state_sized_buffers():
    # the 21 statements on the exposed binary 3x3 grid share one scratch of
    # three buffers (3.0 states), and a broadcasting multiply takes numpy's
    # 8192-entry ufunc buffer (0.125); a fourth state-sized array passes 3.25
    m = expand_ah_model(3)
    p = build_ah_joint(random_ahspec(np.random.default_rng(3), 3, hi=2), expose_latents=True)
    assert p.array.size == 2**16
    tracemalloc.start()
    try:
        markov_residuals(p, m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3.25 * p.array.nbytes


@pytest.mark.parametrize("first", ["fa", "fb"])
def test_a_markov_statement_is_evaluated_with_its_parts_in_the_state_wire_order(first):
    # fa and fb each screen their output off the other given c, so one of them
    # lists a ⊥ b | c against the state's wire order; on this joint the two
    # orders differ in the last bit, and both residuals take the state's
    p = random_joint(np.random.default_rng(4), "abc", 2, 3)
    boxes = {"fa": Box("fa", ("c",), ("a",)), "fb": Box("fb", ("c",), ("b",))}
    m = make_model([Box("fc", (), ("c",)), *sorted(boxes.values(), key=lambda b: b.name != first)])
    in_order = mutual_ci_residual(p, [["a"], ["b"]], ["c"])
    assert mutual_ci_residual(p, [["b"], ["a"]], ["c"]) != in_order
    assert markov_residuals(p, m) == (in_order, in_order)


def _agree(r: float, s: float) -> bool:
    return abs(r - s) <= (1e-15 if max(r, s) < 1e-12 else 1e-12 * max(r, s))


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1), hs.sampled_from([0.0, 0.3]), hs.booleans())
def test_residuals_do_not_depend_on_the_wire_order(seed, zero_frac, perturb):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m, zero_frac=zero_frac))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    wires = list(p.wire_names)
    q = reindex(p, [wires[i] for i in rng.permutation(len(wires))])
    picked = [wires[i] for i in rng.permutation(len(wires))]
    k = int(rng.integers(2, len(wires) + 1))
    ground, given = picked[:k], picked[k:]
    b1, b2 = (
        [[w for w, label in zip(ground, labels) if label == b] for b in sorted(set(labels))]
        for labels in (rng.integers(0, 2, k).tolist(), rng.integers(0, 3, k).tolist())
    )
    pairs = [
        (ci_residual(p, ground[:1], ground[1:], given), ci_residual(q, ground[:1], ground[1:], given)),
        *zip(markov_residuals(p, m), markov_residuals(q, m)),
        *zip(check_partition_lemma(p, b1, b2, given), check_partition_lemma(q, b1, b2, given)),
        (compatibility_residual(p, m), compatibility_residual(q, m)),
    ]
    for r, s in pairs:
        assert _agree(r, s), (r, s)
