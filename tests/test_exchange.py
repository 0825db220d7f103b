"""Permutation invariance and the latent constructions for sequences and grids."""

import tracemalloc

import numpy as np
import pytest

from finstoch import (
    DEFAULT_ATOL,
    AHSpec,
    BadWireNaming,
    DomainMismatch,
    JointState,
    Kernel,
    PermSpec,
    ShapeMismatch,
    SizeLimit,
    adjacent_transpositions,
    build_ah_joint,
    build_definetti_joint,
    ci_residual,
    compose,
    copy_kernel,
    cs_check,
    decode_names,
    expand_ah_model,
    grid_transpositions,
    identity,
    invariance_residual,
    local_markov_residual,
    marginalize,
    max_abs_diff,
    mutual_ci_residual,
    ordered_markov_residual,
    reindex,
    tensor,
    verify_ah_lemmas,
)
from finstoch import kernels
from finstoch.kernels import contract
from support import (
    carrier,
    one_element_ahspec,
    perturbed,
    random_ahspec,
    random_kernel,
    random_rows,
    random_state,
)


def test_perm_spec_validation_and_application():
    sigma = PermSpec("row", (2, 1, 3))
    assert sigma(1) == 2 and sigma(2) == 1 and sigma(3) == 3
    with pytest.raises(ShapeMismatch):
        PermSpec("diagonal", (1, 2))
    with pytest.raises(ShapeMismatch):
        PermSpec("row", (1, 1))


def test_adjacent_transpositions():
    gens = adjacent_transpositions(3, "sequence")
    assert [g.perm for g in gens] == [(2, 1, 3), (1, 3, 2)]
    assert adjacent_transpositions(1, "sequence") == []


def test_grid_transpositions_cover_rows_then_columns():
    gens = grid_transpositions(3, 2)
    assert [g.target for g in gens] == ["row", "row", "column"]


def test_decode_sequence_names():
    naming = decode_names(["X[2]", "X[1]", "X[3]"])
    assert naming.kind == "sequence"
    assert naming.prefix == "X"
    assert naming.shape == (3,)


def test_decode_grid_names():
    names = ["S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]", "S[3,1]", "S[3,2]"]
    naming = decode_names(names)
    assert naming.kind == "grid"
    assert naming.shape == (3, 2)


def test_decode_rejects_bad_namings():
    for names in (
        [],
        ["X[1]", "S[1,1]"],
        ["X[1]", "Y[2]"],
        ["X[1]", "X[3]"],
        ["S[1,1]", "S[2,2]"],
        # each position named once, with the one spelling of its index
        ["X[1]", "X[01]"],
        ["X[01]", "X[2]"],
        ["X[1]", "X[1]"],
        ["X[0]", "X[1]"],
        ["X[\u0661]"],  # an Arabic-Indic one: a digit, but not how 1 is spelled
        ["S[1,1]", "S[1,01]", "S[1,2]"],
        ["S[1,1]", "S[1,1]"],
    ):
        with pytest.raises(BadWireNaming):
            decode_names(names)


@pytest.mark.parametrize("name", ["S[1000,1000]", "X[1000000]"])
def test_decode_cost_is_bounded_by_the_number_of_names(name):
    tracemalloc.start()
    try:
        with pytest.raises(BadWireNaming):
            decode_names([name])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_iid_products_are_exactly_invariant():
    x = carrier("x", 3)
    r = random_state(np.random.default_rng(81), x)
    j = build_definetti_joint(Kernel.state([1.0], carrier("one", 1)),
                              Kernel((carrier("one", 1),), (x,), r.matrix), 3)
    gens = adjacent_transpositions(3, "sequence")
    assert invariance_residual(j, gens) <= 1e-15
    assert invariance_residual(j, gens) <= DEFAULT_ATOL


def test_latent_mixtures_are_invariant_and_perturbations_are_not():
    rng = np.random.default_rng(82)
    a = carrier("a", 3)
    x = carrier("x", 2)
    j = build_definetti_joint(random_state(rng, a), random_kernel(rng, a, x), 4)
    gens = adjacent_transpositions(4, "sequence")
    assert invariance_residual(j, gens) <= 1e-12
    bad = perturbed(rng, j, eps=0.05)
    assert invariance_residual(bad, gens) > 1e-4
    assert invariance_residual(bad, gens) > DEFAULT_ATOL


def test_wrong_permutation_size_is_rejected():
    j = build_definetti_joint(
        random_state(np.random.default_rng(83), carrier("a", 2)),
        random_kernel(np.random.default_rng(84), carrier("a", 2), carrier("x", 2)),
        3,
    )
    with pytest.raises(ShapeMismatch):
        invariance_residual(j, [PermSpec("sequence", (2, 1))])
    with pytest.raises(ShapeMismatch):
        invariance_residual(j, [PermSpec("row", (2, 1, 3))])


def test_invariance_rejects_positions_with_unequal_carriers():
    p = JointState.from_array(
        np.full(6, 1 / 6), [("X[1]", carrier("x", 2)), ("X[2]", carrier("y", 3))]
    )
    with pytest.raises(DomainMismatch):
        invariance_residual(p, adjacent_transpositions(2, "sequence"))


def test_a_wrong_target_is_reported_before_a_wrong_length():
    p = JointState.from_array(
        np.full(4, 1 / 4), [(f"S[1,{j}]", carrier("x", 2)) for j in (1, 2)]
    )
    with pytest.raises(ShapeMismatch, match="sequence permutation applied to a grid state"):
        invariance_residual(p, [PermSpec("sequence", (2, 3, 1))])


def _renamed_image_residual(p: JointState, sigma: PermSpec) -> float:
    """Deviation of p from its image, built by renaming each wire to its moved position."""
    a = 1 if sigma.target == "column" else 0

    def moved(wire):
        prefix, index = wire[:-1].split("[")
        pos = [int(k) for k in index.split(",")]
        pos[a] = sigma(pos[a])
        return f"{prefix}[{','.join(map(str, pos))}]"

    image = JointState.from_array(
        p.array, [(moved(w), c) for w, c in zip(p.wire_names, p.kernel.cod)]
    )
    return float(np.abs(reindex(image, p.wire_names).array - p.array).max())


def test_invariance_matches_the_image_built_by_renaming_wires():
    # shuffled wire orders and arbitrary permutations, 3-cycles included
    rng = np.random.default_rng(89)
    x = carrier("x", 2)
    for _ in range(200):
        if rng.random() < 0.5:
            rows, cols = (int(v) for v in rng.integers(1, 4, size=2))
            names = [f"S[{i},{j}]" for i in range(1, rows + 1) for j in range(1, cols + 1)]
            sides = {"row": rows, "column": cols}
        else:
            names = [f"X[{i}]" for i in range(1, int(rng.integers(1, 7)) + 1)]
            sides = {"sequence": len(names)}
        arr = rng.random((2,) * len(names))
        p = JointState.from_array(arr / arr.sum(), [(names[i], x) for i in rng.permutation(len(names))])
        for target, n in sides.items():
            perms = [rng.permutation(n) + 1 for _ in range(2)]
            if n >= 3:
                cycle = np.arange(1, n + 1)
                a, b, c = rng.choice(n, 3, replace=False)
                cycle[[a, b, c]] = cycle[[b, c, a]]
                perms.append(cycle)
            for perm in perms:
                sigma = PermSpec(target, tuple(perm))
                assert invariance_residual(p, [sigma]) == _renamed_image_residual(p, sigma)


# ---------------------------------------------------------------------------
# shared-latent sequence construction


def test_single_entry_marginal_is_the_latent_composite():
    rng = np.random.default_rng(86)
    a = carrier("a", 3)
    x = carrier("x", 4)
    q, f = random_state(rng, a), random_kernel(rng, a, x)
    j = build_definetti_joint(q, f, 1)
    assert j.wire_names == ("X[1]",)
    assert max_abs_diff(j.kernel, compose(f, q)) <= 1e-15


def test_two_perfectly_correlated_coins():
    a = carrier("a", 2)
    x = carrier("x", 2)
    q = Kernel.state([0.5, 0.5], a)
    f = Kernel((a,), (x,), [[1.0, 0.0], [0.0, 1.0]])
    j = build_definetti_joint(q, f, 2)
    assert np.allclose(j.array, [[0.5, 0.0], [0.0, 0.5]])


def test_exposed_latent_screens_off_all_entries():
    rng = np.random.default_rng(87)
    a = carrier("a", 3)
    x = carrier("x", 2)
    j = build_definetti_joint(
        random_state(rng, a), random_kernel(rng, a, x), 3, expose_latent=True
    )
    assert j.wire_names == ("A", "X[1]", "X[2]", "X[3]")
    assert mutual_ci_residual(j, [["X[1]"], ["X[2]"], ["X[3]"]], ["A"]) <= DEFAULT_ATOL
    assert ci_residual(j, ["X[1]"], ["X[2]", "X[3]"], ["A"]) <= DEFAULT_ATOL
    # the latent wire breaks the pure sequence naming
    with pytest.raises(BadWireNaming):
        invariance_residual(j, adjacent_transpositions(3, "sequence"))
    marg = marginalize(j, ["X[1]", "X[2]", "X[3]"])
    assert invariance_residual(marg, adjacent_transpositions(3, "sequence")) <= DEFAULT_ATOL


def test_definetti_shape_checks():
    a = carrier("a", 2)
    x = carrier("x", 3)
    q, f = Kernel.state([0.5, 0.5], a), random_kernel(np.random.default_rng(88), a, x)
    with pytest.raises(ShapeMismatch):
        build_definetti_joint(f, f, 2)
    with pytest.raises(ShapeMismatch):
        build_definetti_joint(q, q, 2)
    with pytest.raises(ShapeMismatch):
        build_definetti_joint(q, f, 0)
    with pytest.raises(SizeLimit):
        build_definetti_joint(q, f, 25)


# ---------------------------------------------------------------------------
# row/column grid construction


def test_ahspec_interface_checks():
    rng = np.random.default_rng(89)
    a, b, c, x = (carrier(l, 2) for l in "abcx")
    q = random_state(rng, a)
    f, g = random_kernel(rng, a, b), random_kernel(rng, a, c)
    h = random_kernel(rng, (b, a, c), x)
    AHSpec(q, f, g, h, 1, 1)
    with pytest.raises(ShapeMismatch):
        AHSpec(q, f, g, random_kernel(rng, (a, b, c), x), 1, 1)
    with pytest.raises(ShapeMismatch):
        AHSpec(q, f, g, h, 0, 1)
    with pytest.raises(ShapeMismatch):
        AHSpec(q, g, f, h, 1, 1)


def test_single_cell_joint_matches_the_composite_kernel():
    rng = np.random.default_rng(90)
    spec = random_ahspec(rng, 1, hi=3)
    a = spec.q.cod[0]
    c2 = copy_kernel(a)
    c3 = compose(tensor(c2, identity(a)), c2)
    legs = tensor(tensor(spec.f, identity(a)), spec.g)
    composite = compose(spec.h, compose(legs, compose(c3, spec.q)))
    j = build_ah_joint(spec)
    assert j.wire_names == ("S[1,1]",)
    assert max_abs_diff(j.kernel, composite) <= 1e-15


def test_constant_entry_kernel_gives_an_iid_grid():
    rng = np.random.default_rng(91)
    spec0 = random_ahspec(rng, 2, hi=2)
    r = random_rows(rng, 1, spec0.h.cod[0].size)[0]
    h = Kernel(
        spec0.h.dom, spec0.h.cod, np.tile(r, (spec0.h.matrix.shape[0], 1))
    )
    spec = AHSpec(spec0.q, spec0.f, spec0.g, h, 2, 2)
    want = r
    for _ in range(3):
        want = np.multiply.outer(want, r)
    assert np.abs(build_ah_joint(spec).array - want).max() <= 1e-12


def test_grid_entries_are_row_and_column_exchangeable():
    rng = np.random.default_rng(92)
    spec = random_ahspec(rng, 2, hi=2)
    j = build_ah_joint(spec)
    gens = grid_transpositions(2, 2)
    assert invariance_residual(j, gens) <= 1e-12
    bad = perturbed(rng, j, eps=0.05)
    assert invariance_residual(bad, gens) > DEFAULT_ATOL


def test_latent_exposed_joint_fits_the_expanded_grid_model():
    rng = np.random.default_rng(93)
    for n in (1, 2):
        spec = random_ahspec(rng, n, hi=2)
        j = build_ah_joint(spec, expose_latents=True)
        m = expand_ah_model(n)
        assert ordered_markov_residual(j, m) <= 1e-9
        assert local_markov_residual(j, m) <= 1e-9


def test_marginalizing_a_row_or_column_shrinks_the_grid():
    rng = np.random.default_rng(94)
    spec = random_ahspec(rng, 2, hi=2)
    big = build_ah_joint(spec)
    row = build_ah_joint(AHSpec(spec.q, spec.f, spec.g, spec.h, 1, 2))
    keep = ["S[1,1]", "S[1,2]"]
    got = reindex(marginalize(big, keep), keep)
    assert np.abs(got.kernel.matrix - row.kernel.matrix).max() <= 1e-12
    col = build_ah_joint(AHSpec(spec.q, spec.f, spec.g, spec.h, 2, 1))
    keep = ["S[1,1]", "S[2,1]"]
    got = reindex(marginalize(big, keep), keep)
    assert np.abs(got.kernel.matrix - col.kernel.matrix).max() <= 1e-12


def test_grid_size_cap():
    # 49 wires on two-element carriers: 2**49 entries, under the 52-wire cap
    spec = random_ahspec(np.random.default_rng(95), 6, hi=2)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="entries exceed the cap"):
            build_ah_joint(spec, expose_latents=True)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_grid_wire_cap_is_52():
    # 6x6 exposes 49 wires, 7x7 needs 64; both joints have one entry
    rep = verify_ah_lemmas(one_element_ahspec(6))
    assert rep.residuals == (0.0, 0.0, 0.0)
    with pytest.raises(SizeLimit):
        build_ah_joint(one_element_ahspec(7))


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_ah_joint(one_element_ahspec(300)),
        lambda: verify_ah_lemmas(one_element_ahspec(1000)),
        lambda: build_definetti_joint(
            Kernel.state([0.5, 0.5], carrier("a", 2)),
            Kernel((carrier("a", 2),), (carrier("x", 2),), [[1.0, 0.0], [0.0, 1.0]]),
            10**5,
        ),
        # nothing summed: the entry cap on the product fires before any multiply
        lambda: contract(((np.full(2, 0.5), [k]) for k in range(21)), range(21)),
    ],
    ids=["grid-300", "verify-1000", "sequence-1e5", "product-2**21"],
)
def test_wire_cap_fires_before_the_operands_exist(build):
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit):
            build()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_lemma_report_on_a_random_square_grid():
    rng = np.random.default_rng(96)
    rep = verify_ah_lemmas(random_ahspec(rng, 2, hi=2))
    assert rep.entries_independent and rep.entry_separated and rep.tails_independent
    assert max(rep.residuals) <= 1e-9


def test_lemma_report_requires_a_square_grid():
    rng = np.random.default_rng(97)
    with pytest.raises(ShapeMismatch):
        verify_ah_lemmas(random_ahspec(rng, 2, cols=3, hi=2))


def test_perturbing_the_joint_breaks_the_entry_screening():
    rng = np.random.default_rng(98)
    spec = random_ahspec(rng, 2, hi=2)
    j = build_ah_joint(spec, expose_latents=True)
    tails = ["R[1]", "R[2]", "C[1]", "C[2]", "T"]
    entries = [["S[1,1]"], ["S[1,2]"], ["S[2,1]"], ["S[2,2]"]]
    assert mutual_ci_residual(j, entries, tails) <= DEFAULT_ATOL
    bad = perturbed(rng, j, eps=0.1)
    assert mutual_ci_residual(bad, entries, tails) > DEFAULT_ATOL


def test_summing_contractions_search_no_einsum_path(monkeypatch):
    rng = np.random.default_rng(23)
    spec = random_ahspec(rng, 3, hi=2)
    q, f = random_state(rng, carrier("A", 3)), random_kernel(rng, carrier("A", 3), carrier("X", 3))
    p = random_state(rng, carrier("P", 8))
    u, v = (random_kernel(rng, carrier("P", 8), carrier("Y", 4)) for _ in range(2))
    calls = []
    einsum = np.einsum

    def spy(*args, **kwargs):
        calls.append(kwargs.get("optimize", False))
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", spy)
    build_ah_joint(spec)
    build_definetti_joint(q, f, 8)
    cs_check(p, u, v)
    monkeypatch.undo()
    paths = [opt for opt in calls if isinstance(opt, list)]
    assert len(paths) == 5  # the grid, the sequence and the three pairings
    assert all(opt[0] == "einsum_path" for opt in paths)
    assert not [opt for opt in calls if opt is True or opt in ("greedy", "optimal")]


@pytest.mark.parametrize("n", [2, 3])
def test_exposed_grid_is_bitwise_the_stepwise_product(n):
    spec = random_ahspec(np.random.default_rng(n), n)
    p = build_ah_joint(spec, expose_latents=True)
    rows = cols = range(1, n + 1)
    operands = (  # build_ah_joint's, in its order
        [(spec.q.matrix[0], ["T"])]
        + [(spec.f.matrix, ["T", f"R[{i}]"]) for i in rows]
        + [(spec.g.matrix, ["T", f"C[{j}]"]) for j in cols]
        + [(spec.h.array, [f"R[{i}]", "T", f"C[{j}]", f"S[{i},{j}]"]) for i in rows for j in cols]
    )
    index: dict[str, int] = {}
    ints = lambda labels: [index.setdefault(w, len(index)) for w in labels]
    current, have = np.ones(()), []
    for arr, labels in reversed(operands):  # last operand first, one product each
        new = have + [w for w in labels if w not in have]
        current = np.einsum(current, ints(have), arr, ints(labels), ints(new))
        have = new
    want = current.transpose([have.index(w) for w in p.wire_names])
    assert p.array.tobytes() == np.ascontiguousarray(want).tobytes()


def test_unexposed_grid_steps_stay_under_the_cap(monkeypatch):
    # a 1x14 grid on 16-element latents: h has 512 entries, the joint 2**14, the cap here;
    # summing T and R[1] pairwise would pass through T, R[1] and 13 cells, 2**21 entries
    monkeypatch.setattr(kernels, "MAX_ENTRIES", 2**14)
    rng = np.random.default_rng(97)
    t, r, c, s = carrier("T", 16), carrier("R", 16), carrier("C", 1), carrier("S", 2)
    spec = AHSpec(random_state(rng, t), random_kernel(rng, t, r), random_kernel(rng, t, c),
                  random_kernel(rng, (r, t, c), s), 1, 14)
    tracemalloc.start()
    try:
        p = build_ah_joint(spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert abs(p.array.sum() - 1.0) <= 1e-12
    assert peak < 10 * 8 * 2**14  # ten result-sized arrays; the pairwise path takes ~200
