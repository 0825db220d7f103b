"""Conditional independence residuals and the two-partition argument."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    DEFAULT_ATOL,
    JointState,
    Kernel,
    NotAPartition,
    ShapeMismatch,
    UnknownWire,
    WireOverlap,
    check_partition_lemma,
    ci_residual,
    common_refinement,
    mutual_ci_residual,
    tensor,
)
from finstoch import ci
from support import (
    block_product_joint,
    carrier,
    latent_blocks_joint,
    mutual_product_residual,
    perturbed,
    product_identity_residual,
    random_joint,
    random_kernel,
    random_rows,
    random_state,
    table,
)


def _mediated_triple(rng):
    """w drawn from r, then x and y drawn independently from w."""
    w = carrier("w", 3)
    x = carrier("x", 2)
    y = carrier("y", 2)
    r = random_state(rng, w)
    f = random_kernel(rng, w, x)
    g = random_kernel(rng, w, y)
    arr = np.einsum("w,wx,wy->xyw", r.matrix[0], f.matrix, g.matrix)
    return JointState.from_array(arr, [("x", x), ("y", y), ("w", w)])


def test_product_state_is_unconditionally_independent():
    p = tensor(Kernel.state([0.3, 0.7], carrier("x", 2)),
               Kernel.state([0.25, 0.75], carrier("y", 2)))
    j = JointState(p, ("x", "y"))
    assert ci_residual(j, ["x"], ["y"]) <= 1e-15
    assert ci_residual(j, ["x"], ["y"]) <= DEFAULT_ATOL


def test_mediated_independence_given_the_middle_wire():
    rng = np.random.default_rng(31)
    for _ in range(10):
        j = _mediated_triple(rng)
        assert ci_residual(j, ["x"], ["y"], ["w"]) <= 1e-14
        assert ci_residual(j, ["x"], ["y"], ["w"]) <= DEFAULT_ATOL


def test_perturbation_destroys_the_independence():
    rng = np.random.default_rng(32)
    j = perturbed(rng, _mediated_triple(rng), eps=0.05)
    assert ci_residual(j, ["x"], ["y"], ["w"]) > 1e-4
    assert ci_residual(j, ["x"], ["y"], ["w"]) > DEFAULT_ATOL


def test_verdicts_match_the_product_identity_oracle():
    rng = np.random.default_rng(33)
    for _ in range(25):
        j = _mediated_triple(rng)
        assert product_identity_residual(j, ["x"], ["y"], ["w"]) <= 1e-14
        bad = perturbed(rng, j, eps=0.1)
        assert product_identity_residual(bad, ["x"], ["y"], ["w"]) > 1e-5
        assert ci_residual(bad, ["x"], ["y"], ["w"]) > 1e-5


def test_group_arguments_may_be_multi_wire():
    rng = np.random.default_rng(34)
    j = block_product_joint(rng, [["a", "b"], ["c", "d"]])
    assert ci_residual(j, ["a", "b"], ["c", "d"]) <= DEFAULT_ATOL
    assert ci_residual(j, ["a"], ["c"], ["b"]) <= DEFAULT_ATOL
    assert product_identity_residual(j, ["a", "b"], ["c", "d"]) <= 1e-14


def test_unknown_wire_and_overlap_are_rejected():
    j = random_joint(np.random.default_rng(35), ["a", "b", "c"])
    with pytest.raises(UnknownWire):
        ci_residual(j, ["a"], ["nope"])
    with pytest.raises(WireOverlap):
        ci_residual(j, ["a"], ["a"])
    with pytest.raises(WireOverlap):
        ci_residual(j, ["a"], ["b"], ["a"])


def test_pairwise_independent_but_not_mutually():
    # z is the parity of two fair bits: every pair is independent, the
    # triple is not
    bit = carrier("bit", 2)
    arr = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            arr[x, y, (x + y) % 2] = 0.25
    j = JointState.from_array(
        arr, [("x", bit), ("y", bit), ("z", bit)]
    )
    assert ci_residual(j, ["x"], ["y"]) <= DEFAULT_ATOL
    assert ci_residual(j, ["x"], ["z"]) <= DEFAULT_ATOL
    assert ci_residual(j, ["y"], ["z"]) <= DEFAULT_ATOL
    assert mutual_ci_residual(j, [["x"], ["y"], ["z"]]) > DEFAULT_ATOL
    assert mutual_ci_residual(j, [["x"], ["y"], ["z"]]) == pytest.approx(0.125)


def test_mutual_residual_matches_binary_residual_for_two_parts():
    rng = np.random.default_rng(36)
    j = random_joint(rng, ["a", "b", "c"])
    r1 = mutual_ci_residual(j, [["a"], ["b"]], ["c"])
    r2 = ci_residual(j, ["a"], ["b"], ["c"])
    assert r1 == r2


def test_mutual_residual_takes_more_parts_than_there_are_letters():
    # 29 one-wire parts; 27 of them are trivial, so the mutual residual
    # is the binary one of the two dependent bits
    rng = np.random.default_rng(39)
    bit, one = carrier("bit", 2), carrier("one", 1)
    wires = [("a", bit), ("b", bit)] + [(f"u{k}", one) for k in range(27)]
    j = JointState.from_array(rng.dirichlet(np.ones(4)), wires)
    r = mutual_ci_residual(j, [[w] for w, _ in wires])
    assert r > 0
    assert r == pytest.approx(ci_residual(j, ["a"], ["b"]), abs=1e-15)


def test_mutual_ci_verdict_matches_oracle_on_latent_mixtures():
    rng = np.random.default_rng(37)
    for _ in range(10):
        j = latent_blocks_joint(rng, "z", [["a"], ["b"], ["c"]])
        assert mutual_ci_residual(j, [["a"], ["b"], ["c"]], ["z"]) <= DEFAULT_ATOL
        assert mutual_product_residual(j, [["a"], ["b"], ["c"]], ["z"]) <= 1e-13
        assert mutual_ci_residual(j, [["a"], ["b"], ["c"]]) > DEFAULT_ATOL


def test_extra_wires_are_marginalized_first():
    rng = np.random.default_rng(38)
    j = latent_blocks_joint(rng, "z", [["a"], ["b"], ["c"]])
    small = ci_residual(j, ["a"], ["b"], ["z"])
    assert small <= 1e-13


def test_common_refinement_intersections():
    cells = common_refinement([["a", "b"], ["c"]], [["a"], ["b", "c"]])
    assert sorted(sorted(c) for c in cells) == [["a"], ["b"], ["c"]]


def test_common_refinement_rejects_bad_partitions():
    with pytest.raises(NotAPartition):
        common_refinement([], [["a"]])
    with pytest.raises(NotAPartition):
        common_refinement([["a"], []], [["a"]])
    with pytest.raises(NotAPartition):
        common_refinement([["a", "b"], ["b"]], [["a", "b"]])
    with pytest.raises(NotAPartition):
        common_refinement([["a"]], [["a", "b"]])


def test_partition_report_on_identical_partitions():
    rng = np.random.default_rng(39)
    j = block_product_joint(rng, [["a"], ["b"], ["c"]])
    residuals = check_partition_lemma(j, [["a"], ["b", "c"]], [["a"], ["b", "c"]])
    assert max(residuals) <= DEFAULT_ATOL
    assert residuals[0] == residuals[1]


def test_partition_conclusion_refines_both_premises():
    rng = np.random.default_rng(40)
    for _ in range(20):
        j = block_product_joint(rng, [["a"], ["b"], ["c"], ["d"]])
        residuals = check_partition_lemma(
            j, [["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]]
        )
        assert max(residuals) <= 1e-12


def test_a_refinement_equal_to_the_finer_partition_is_evaluated_once():
    rng = np.random.default_rng(19)
    p = perturbed(rng, block_product_joint(rng, [["a"], ["b"], ["c", "d"]]))
    fine, coarse = [["a"], ["b"], ["c", "d"]], [["a", "b"], ["c", "d"]]
    assert common_refinement(fine, coarse) == [frozenset(b) for b in fine]
    with mock.patch.object(ci, "mutual_ci_residual", wraps=ci.mutual_ci_residual) as spy:
        residuals = check_partition_lemma(p, fine, coarse)
    assert spy.call_count == 2
    assert residuals[2] == residuals[0] > 1e-6


def test_a_refinement_equal_to_the_second_partition_is_evaluated_once():
    # the refinement lists its cells as a, c, b, in the first partition's
    # block order; it is the second partition's statement all the same
    p = random_joint(np.random.default_rng(0), "abc", 2, 2)
    coarse, fine = [["a", "c"], ["b"]], [["a"], ["b"], ["c"]]
    assert common_refinement(coarse, fine) == [frozenset(b) for b in "acb"]
    with mock.patch.object(ci, "mutual_ci_residual", wraps=ci.mutual_ci_residual) as spy:
        residuals = check_partition_lemma(p, coarse, fine)
    assert spy.call_count == 2
    assert residuals[2] == residuals[1] > 1e-6


def test_a_statement_is_evaluated_with_its_parts_in_the_state_wire_order():
    # b ⊥ a | c and a ⊥ b | c are one statement, but their residuals differ in
    # the last bit here; the statement table evaluates the order fixed by p
    p = random_joint(np.random.default_rng(4), "abc", 2, 3)
    in_order = mutual_ci_residual(p, [["a"], ["b"]], ["c"])
    assert mutual_ci_residual(p, [["b"], ["a"]], ["c"]) != in_order
    for parts in ([["b"], ["a"]], [["a"], ["b"]]):
        assert ci._worst_residuals(p, [[(parts, ["c"])]]) == [in_order]
        assert check_partition_lemma(p, parts, parts, ["c"]) == (in_order,) * 3


def test_partition_with_conditioning_wires():
    rng = np.random.default_rng(41)
    j = latent_blocks_joint(rng, "z", [["a"], ["b"], ["c"]])
    residuals = check_partition_lemma(
        j, [["a", "b"], ["c"]], [["a"], ["b", "c"]], given=["z"]
    )
    assert max(residuals) <= DEFAULT_ATOL


def test_failed_premise_is_reported_not_hidden():
    rng = np.random.default_rng(42)
    j = perturbed(rng, block_product_joint(rng, [["a"], ["b"], ["c"]]), eps=0.15)
    residuals = check_partition_lemma(
        j, [["a", "b"], ["c"]], [["a"], ["b", "c"]]
    )
    assert len(residuals) == 3
    assert max(residuals) > DEFAULT_ATOL


def _loop_mutual_residual(p, parts, given=()):
    """max over cells of |p(x_1..x_k, w) - p(w) * prod_i p(x_i | w)|, by loops.

    p(x_i | w) is uniform where p(w) is exactly 0, so the product is 0 there.
    """
    parts, given = [list(g) for g in parts], list(given)
    flat = [w for g in parts for w in g]
    q_all = table(p, flat + given)
    q_parts = [table(p, g + given) for g in parts]
    q_w = table(p, given)
    worst = 0.0
    for key, v in q_all.items():
        kw = key[len(flat) :]
        rec, start = q_w[kw], 0
        for g, q in zip(parts, q_parts):
            n = math.prod(p.carrier(w).size for w in g)
            cell = q[key[start : start + len(g)] + kw]
            rec *= cell / q_w[kw] if q_w[kw] != 0.0 else 1.0 / n
            start += len(g)
        worst = max(worst, abs(v - rec))
    return worst


@hs.composite
def _ci_cases(draw):
    """A joint with planted zeros, 2-4 parts, optional extra and given wires."""
    widths = draw(hs.lists(hs.integers(1, 2), min_size=2, max_size=4))
    n_given = draw(hs.integers(0, 2))
    n_extra = draw(hs.integers(0, 1))
    sizes = draw(
        hs.lists(hs.integers(1, 3), min_size=sum(widths) + n_given + n_extra,
                 max_size=sum(widths) + n_given + n_extra)
    )
    names = [f"v{k}" for k in range(len(sizes))]
    order = draw(hs.permutations(names))  # the state's own wire order
    zero_frac = draw(hs.floats(0.1, 0.7))
    null_cell = draw(hs.booleans())
    seed = draw(hs.integers(0, 2**32 - 1))
    it = iter(names)
    parts = [[next(it) for _ in range(w)] for w in widths]
    given = [next(it) for _ in range(n_given)]
    return parts, given, dict(zip(names, sizes)), order, zero_frac, null_cell, seed


@settings(max_examples=120, derandomize=True, deadline=None)
@given(_ci_cases())
def test_mutual_residual_matches_the_loop_reference(case):
    parts, given, sizes, order, zero_frac, null_cell, seed = case
    rng = np.random.default_rng(seed)
    wires = [(w, carrier(w, sizes[w])) for w in order]
    arr = random_rows(rng, 1, math.prod(sizes.values()), zero_frac)[0]
    arr = arr.reshape([sizes[w] for w in order])
    # one conditioning cell of mass exactly 0, when mass is left elsewhere
    null = tuple(0 if w in given else slice(None) for w in order)
    if null_cell and given and arr.sum() > arr[null].sum():
        arr[null] = 0.0
        arr = arr / arr.sum()
    p = JointState.from_array(arr, wires)
    got = mutual_ci_residual(p, parts, given)
    assert got == pytest.approx(_loop_mutual_residual(p, parts, given), abs=1e-14)


def test_zero_mass_cell_with_cancelling_entries_recomposes_to_zero():
    # the cell w=1 holds +eps and -eps: its mass is exactly 0 though its
    # entries are not, so the recomposition there is 0 and the residual eps
    eps = 1e-12
    bit = carrier("bit", 2)
    arr = np.zeros((2, 2, 2))
    arr[:, :, 0] = np.outer([0.4, 0.6], [0.25, 0.75])  # independent at w=0
    arr[0, 0, 1], arr[1, 1, 1] = eps, -eps
    p = JointState.from_array(arr, [("x", bit), ("y", bit), ("w", bit)])
    assert p.array[:, :, 1].sum() == 0.0
    for parts in ([["x"], ["y"]], [["y"], ["x"]]):
        got = mutual_ci_residual(p, parts, ["w"])
        want = _loop_mutual_residual(p, parts, ["w"])
        assert want == pytest.approx(eps, abs=1e-17)
        assert got == pytest.approx(want, abs=1e-14)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(
    sizes=hs.lists(hs.integers(2, 3), min_size=3, max_size=5),
    data=hs.data(),
    seed=hs.integers(0, 2**32 - 1),
)
def test_a_statement_table_leaves_no_stale_entries_in_its_scratch(sizes, data, seed):
    # every statement of a table writes into the same three buffers; run from
    # the largest statement down and back up, each residual must still be the
    # bits of the statement evaluated alone
    v = [f"v{i}" for i in range(len(sizes))]
    order = data.draw(hs.permutations([*v, "u", "w"]))  # u has one element
    size = dict(zip(v, sizes), u=1, w=3)
    rng = np.random.default_rng(seed)
    arr = random_rows(rng, 1, math.prod(size.values()), 0.2)[0].reshape([size[x] for x in order])
    arr[tuple(0 if x == "w" else slice(None) for x in order)] = 0.0  # p(w=0) is exactly 0
    p = JointState.from_array(arr / arr.sum(), [(x, carrier(x, size[x])) for x in order])
    statements = [
        ([v[:1], v[1:] + ["u"]], ["w"]),  # every wire kept
        ([v[:1], v[1:2], v[2:] + ["u"]], ["w"]),  # every wire kept, three parts
        ([v[:1], v[1:2]], ["w"]),  # summed
        ([["u"], v[:2]], ["w"]),  # a one-element part
        ([v[:1], ["u"], v[2:]], []),  # a one-element part among three, summed
        ([v[1:2], v[2:3]], []),  # summed down to two wires
        ([v[:1], v[1:2], v[2:3]], v[3:]),  # three parts, given what is left
    ]
    first = lambda part: min(map(p.wire_index, part))
    marginal = lambda s: math.prod(size[x] for x in [*sum(s[0], []), *s[1]])
    for reverse in (True, False):
        table = sorted(statements, key=marginal, reverse=reverse)
        got = ci._worst_residuals(p, [[s] for s in table])
        want = [mutual_ci_residual(p, sorted(parts, key=first), g) for parts, g in table]
        assert [r.hex() for r in got] == [r.hex() for r in want]


def test_a_scratch_that_would_corrupt_the_statement_is_refused():
    # one buffer passed twice would put the recomposition on top of the marginal
    arr = random_rows(np.random.default_rng(6), 1, 12)[0].reshape(2, 3, 2)
    p = JointState.from_array(arr, [("a", carrier("a", 2)), ("b", carrier("b", 3)), ("c", carrier("c", 2))])
    parts = [["a"], ["b"]]
    want = mutual_ci_residual(p, parts, ["c"])
    buf = lambda n=p.array.size, dtype=float: np.zeros(n, dtype=dtype)
    shared = buf()
    wide = buf(2 * p.array.size)
    for scratch, match in [
        ([shared, shared, buf()], "overlap"),
        ([wide[: p.array.size], wide[p.array.size - 1 :], buf()], "overlap"),
        ([buf(), buf(p.array.size - 1), buf()], "entries"),
        ([buf(), buf(dtype=np.float32), buf()], "float64"),
        ([buf(), buf(2 * p.array.size)[::2], buf()], "C-contiguous"),
        ([buf(), buf()], "not 3"),
    ]:
        with pytest.raises(ShapeMismatch, match=match):
            mutual_ci_residual(p, parts, ["c"], scratch=scratch)
    with pytest.raises(TypeError):
        mutual_ci_residual(p, parts, ["c"], [buf(), buf(), buf()])  # keyword only
    # disjoint slices of one allocation are a valid scratch
    whole = buf(3 * p.array.size)
    scratch = [whole[i * p.array.size : (i + 1) * p.array.size] for i in range(3)]
    assert mutual_ci_residual(p, parts, ["c"], scratch=scratch).hex() == want.hex()
