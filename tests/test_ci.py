"""Conditional independence residuals and the two-partition argument."""

import numpy as np
import pytest

from finstoch import (
    JointState,
    Kernel,
    NotAPartition,
    UnknownWire,
    WireOverlap,
    check_ci,
    check_mutual_ci,
    check_partition_lemma,
    ci_residual,
    common_refinement,
    mutual_ci_residual,
    tensor,
)
from support import (
    block_product_joint,
    carrier,
    latent_blocks_joint,
    mutual_product_residual,
    perturbed,
    product_identity_residual,
    random_joint,
    random_kernel,
    random_state,
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
    assert check_ci(j, ["x"], ["y"])


def test_mediated_independence_given_the_middle_wire():
    rng = np.random.default_rng(31)
    for _ in range(10):
        j = _mediated_triple(rng)
        assert ci_residual(j, ["x"], ["y"], ["w"]) <= 1e-14
        assert check_ci(j, ["x"], ["y"], ["w"])


def test_perturbation_destroys_the_independence():
    rng = np.random.default_rng(32)
    j = perturbed(rng, _mediated_triple(rng), eps=0.05)
    assert ci_residual(j, ["x"], ["y"], ["w"]) > 1e-4
    assert not check_ci(j, ["x"], ["y"], ["w"])


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
    assert check_ci(j, ["a", "b"], ["c", "d"])
    assert check_ci(j, ["a"], ["c"], ["b"])
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
    assert check_ci(j, ["x"], ["y"])
    assert check_ci(j, ["x"], ["z"])
    assert check_ci(j, ["y"], ["z"])
    assert not check_mutual_ci(j, [["x"], ["y"], ["z"]])
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
        assert check_mutual_ci(j, [["a"], ["b"], ["c"]], ["z"])
        assert mutual_product_residual(j, [["a"], ["b"], ["c"]], ["z"]) <= 1e-13
        assert not check_mutual_ci(j, [["a"], ["b"], ["c"]])


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
    rep = check_partition_lemma(j, [["a"], ["b", "c"]], [["a"], ["b", "c"]])
    assert rep.premise_left and rep.premise_right and rep.conclusion
    assert rep.residuals[0] == rep.residuals[1]


def test_partition_conclusion_refines_both_premises():
    rng = np.random.default_rng(40)
    for _ in range(20):
        j = block_product_joint(rng, [["a"], ["b"], ["c"], ["d"]])
        rep = check_partition_lemma(
            j, [["a", "b"], ["c", "d"]], [["a", "c"], ["b", "d"]]
        )
        assert rep.premise_left and rep.premise_right
        assert rep.conclusion
        assert max(rep.residuals) <= 1e-12


def test_partition_with_conditioning_wires():
    rng = np.random.default_rng(41)
    j = latent_blocks_joint(rng, "z", [["a"], ["b"], ["c"]])
    rep = check_partition_lemma(
        j, [["a", "b"], ["c"]], [["a"], ["b", "c"]], given=["z"]
    )
    assert rep.premise_left and rep.premise_right and rep.conclusion


def test_failed_premise_is_reported_not_hidden():
    rng = np.random.default_rng(42)
    j = perturbed(rng, block_product_joint(rng, [["a"], ["b"], ["c"]]), eps=0.15)
    rep = check_partition_lemma(
        j, [["a", "b"], ["c"]], [["a"], ["b", "c"]]
    )
    assert not (rep.premise_left and rep.premise_right and rep.conclusion)
    assert len(rep.residuals) == 3
