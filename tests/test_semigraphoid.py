"""Symbolic independence statements, rule checking, replay, and closure."""

import json
import re
from importlib import resources

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    DEFAULT_ATOL,
    BudgetExceeded,
    CIStatement,
    Derivation,
    DerivationStep,
    RULES,
    ShapeMismatch,
    UnknownWire,
    WireOverlap,
    build_ah_joint,
    ci_residual,
    derivation_from_json,
    semigraphoid_closure,
    validate_derivation,
)
from support import (
    block_product_joint,
    chain_joint,
    latent_blocks_joint,
    random_ahspec,
)


def st(left, right, given=()):
    return CIStatement(frozenset(left), frozenset(right), frozenset(given))


def test_statement_validation():
    with pytest.raises(ShapeMismatch):
        CIStatement(frozenset(), frozenset({"y"}))
    with pytest.raises(WireOverlap):
        st(["x"], ["x"])
    with pytest.raises(WireOverlap):
        st(["x"], ["y"], ["x"])


def test_statement_text():
    s = st(["x"], ["y", "z"], ["w"])
    assert str(s) == "x _||_ y,z | w"


def test_statement_holds_numerically():
    rng = np.random.default_rng(51)
    j = block_product_joint(rng, [["x"], ["y"]])
    assert ci_residual(j, ["x"], ["y"]) <= DEFAULT_ATOL
    k = latent_blocks_joint(rng, "w", [["x"], ["y"]])
    assert ci_residual(k, ["x"], ["y"], ["w"]) <= DEFAULT_ATOL
    # this mixture couples the latent to both blocks
    assert ci_residual(k, ["x"], ["w"]) > 1e-7


def test_replay_knows_exactly_the_four_core_rules():
    assert sorted(RULES) == ["contraction", "decomposition", "symmetry", "weak_union"]


def test_symmetry_rule():
    p = st(["x"], ["y"], ["w"])
    assert RULES["symmetry"]([p], CIStatement(p.right, p.left, p.given))
    assert not RULES["symmetry"]([p], p)
    assert not RULES["symmetry"]([p, p], CIStatement(p.right, p.left, p.given))


def test_decomposition_rule():
    p = st(["x1", "x2"], ["y"], ["w"])
    assert RULES["decomposition"]([p], st(["x1"], ["y"], ["w"]))
    assert RULES["decomposition"]([p], p)
    assert not RULES["decomposition"]([p], st(["x1"], ["y", "x2"], ["w"]))
    assert not RULES["decomposition"]([p], st(["x1"], ["y"], []))


def test_weak_union_moves_left_elements_into_the_conditioner():
    p = st(["x1", "x2"], ["y"], ["w"])
    assert RULES["weak_union"]([p], st(["x1"], ["y"], ["w", "x2"]))
    # dropping the moved element instead of conditioning on it is wrong
    assert not RULES["weak_union"]([p], st(["x1"], ["y"], ["w"]))
    # moving part of the right-hand side is not an instance either
    q = st(["x"], ["y1", "y2"], ["w"])
    assert not RULES["weak_union"]([q], st(["x"], ["y1"], ["w", "y2"]))


def test_contraction_rule_accepts_both_premise_orders():
    p1 = st(["x"], ["y"], ["z", "w"])
    p2 = st(["x"], ["z"], ["w"])
    c = st(["x"], ["z", "y"], ["w"])
    assert RULES["contraction"]([p1, p2], c)
    assert RULES["contraction"]([p2, p1], c)
    assert not RULES["contraction"]([p1, p2], st(["x"], ["z", "y"], ["w", "q"]))
    assert not RULES["contraction"]([p1], c)


def test_contraction_needs_one_left_side_in_both_premises():
    # A _||_ Y | Z and D _||_ Z would give D _||_ Y,Z if the first premise's left
    # side were not checked; nothing there relates D to Y, so that does not follow
    d = Derivation(
        ("A", "D", "Y", "Z"),
        (st(["A"], ["Y"], ["Z"]), st(["D"], ["Z"])),
        (DerivationStep("contraction", (0, 1), st(["D"], ["Y", "Z"])),),
    )
    rep = validate_derivation(d)
    assert not rep.ok and rep.failed_step == 0
    assert "not an instance of contraction" in rep.message


@pytest.mark.parametrize(
    "rule, conclusion",
    [("decomposition", st(["x"], ["z"])), ("weak_union", st(["x"], ["z"], ["y"]))],
)
def test_single_premise_rules_refuse_two_premises(rule, conclusion):
    # the conclusion follows from the first premise alone, but the step cites two
    p = st(["x", "y"], ["z"])
    assert RULES[rule]([p], conclusion)
    assert not RULES[rule]([p, p], conclusion)
    assert not RULES[rule]([p, st(["y"], ["z"])], conclusion)


SYMS = ("G", "R1", "R2", "S11", "S12", "S21", "S22")


def _row_column_chain():
    """Split one entry off a 2x2 block of entries: condition away the row
    tails, then cross the row split with the column split."""
    a0 = st(["S11", "S12", "R1"], ["S21", "S22", "R2"], ["G"])
    a1 = st(["S11", "S21"], ["S12", "S22"], ["G", "R1", "R2"])
    steps = (
        DerivationStep(
            "weak_union", (0,),
            st(["S11", "S12"], ["S21", "S22", "R2"], ["G", "R1"]),
        ),
        DerivationStep(
            "symmetry", (2,),
            st(["S21", "S22", "R2"], ["S11", "S12"], ["G", "R1"]),
        ),
        DerivationStep(
            "weak_union", (3,),
            st(["S21", "S22"], ["S11", "S12"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "symmetry", (4,),
            st(["S11", "S12"], ["S21", "S22"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "weak_union", (1,),
            st(["S11"], ["S12", "S22"], ["G", "R1", "R2", "S21"]),
        ),
        DerivationStep(
            "decomposition", (5,),
            st(["S11"], ["S21", "S22"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "symmetry", (7,),
            st(["S21", "S22"], ["S11"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "decomposition", (8,),
            st(["S21"], ["S11"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "symmetry", (9,),
            st(["S11"], ["S21"], ["G", "R1", "R2"]),
        ),
        DerivationStep(
            "contraction", (6, 10),
            st(["S11"], ["S12", "S21", "S22"], ["G", "R1", "R2"]),
        ),
    )
    return Derivation(SYMS, (a0, a1), steps)


def test_single_entry_split_chain_validates():
    rep = validate_derivation(_row_column_chain())
    assert rep.ok
    assert bool(rep)


def test_misapplied_weak_union_is_caught():
    d = _row_column_chain()
    bad = DerivationStep(
        "weak_union", (0,),
        # pulls R2 out of the right-hand side, which the rule never does
        st(["S11", "S12", "R1"], ["S21", "S22"], ["G", "R2"]),
    )
    broken = Derivation(d.symbols, d.axioms, (bad,) + d.steps[1:])
    rep = validate_derivation(broken)
    assert not rep.ok
    assert rep.failed_step == 0
    assert rep.failed_rule == "weak_union"


def test_unknown_rule_and_bad_premise_index():
    a, mirror = st(["x"], ["y"]), st(["y"], ["x"])
    d = Derivation(("x", "y"), (a,), (DerivationStep("mystery", (0,), mirror),))
    rep = validate_derivation(d)
    assert not rep.ok and rep.failed_rule == "mystery"
    d2 = Derivation(("x", "y"), (a,), (DerivationStep("symmetry", (5,), mirror),))
    rep2 = validate_derivation(d2)
    assert not rep2.ok and rep2.failed_step == 0


def test_derivation_rejects_undeclared_symbols():
    a = st(["x"], ["y"])
    with pytest.raises(UnknownWire):
        Derivation(("x",), (a,), ())
    # a primed copy of a declared symbol is a symbol of its own
    with pytest.raises(UnknownWire):
        Derivation(("x", "y"), (st(["x"], ["y", "y'"]),), ())


def test_statements_listing_order():
    d = _row_column_chain()
    stmts = d.statements()
    assert stmts[: len(d.axioms)] == list(d.axioms)
    assert stmts[len(d.axioms)] == d.steps[0].conclusion


# ---------------------------------------------------------------------------
# closure


def test_closure_of_one_axiom_contains_its_mirror():
    a = st(["x"], ["y"], ["w"])
    c = semigraphoid_closure([a], ["x", "y", "w"])
    assert c.complete
    assert a in c.statements
    mirror = st(["y"], ["x"], ["w"])
    assert mirror in c.statements
    d = c.derivation(mirror)
    assert validate_derivation(d).ok
    assert d.axioms == (a,)


def test_closure_of_no_axioms_is_empty():
    c = semigraphoid_closure([], ["x", "y"])
    assert c.complete
    assert c.statements == frozenset()


def test_closure_rejects_axioms_outside_the_ground_set():
    with pytest.raises(UnknownWire):
        semigraphoid_closure([st(["x"], ["q"])], ["x", "y"])


def test_closure_budget_is_enforced_with_partial_result():
    axioms = [st(["a", "b"], ["c", "d"]), st(["a"], ["c"], ["d"])]
    with pytest.raises(BudgetExceeded) as excinfo:
        semigraphoid_closure(axioms, ["a", "b", "c", "d"], budget=3)
    part = excinfo.value.partial
    assert not part.complete
    assert set(axioms) <= part.statements
    assert len(part.statements) <= len(axioms) + 3


def test_closure_soundness_on_block_products():
    rng = np.random.default_rng(52)
    for _ in range(20):
        blocks = [["a"], ["b"], ["c", "d"]]
        j = block_product_joint(rng, blocks)
        axioms = [
            st(["a"], ["b", "c", "d"]),
            st(["a", "b"], ["c", "d"]),
        ]
        c = semigraphoid_closure(axioms, [w for b in blocks for w in b])
        assert c.complete
        for s in c.statements:
            assert ci_residual(j, s.left, s.right, s.given) <= 1e-7, str(s)


def test_closure_soundness_on_markov_chains():
    rng = np.random.default_rng(53)
    for _ in range(20):
        j = chain_joint(rng, ["X1", "X2", "X3", "X4"])
        axioms = [
            st(["X1"], ["X3", "X4"], ["X2"]),
            st(["X1", "X2"], ["X4"], ["X3"]),
        ]
        c = semigraphoid_closure(axioms, ["X1", "X2", "X3", "X4"])
        assert c.complete
        for s in c.statements:
            assert ci_residual(j, s.left, s.right, s.given) <= 1e-7, str(s)


def test_closure_derivations_replay_for_every_statement():
    axioms = [st(["a"], ["b"], ["c"]), st(["a"], ["c"])]
    c = semigraphoid_closure(axioms, ["a", "b", "c"])
    for s in c.statements:
        rep = validate_derivation(c.derivation(s))
        assert rep.ok, str(s)


def _chain_axioms(names):
    """X[<k] _||_ X[>k] | X[k] for every inner position k of a Markov chain."""
    return [st(names[:k], names[k + 1 :], [names[k]]) for k in range(1, len(names) - 1)]


def _images(s):
    """Conclusions of the four closure rules with s as the only premise."""
    yield CIStatement(s.right, s.left, s.given)
    for n in range(1, len(s.left)):
        for x in itertools.combinations(sorted(s.left), n):
            yield st(x, s.right, s.given)
            yield st(x, s.right, s.given | (s.left - set(x)))


@hs.composite
def _axiom_sets(draw):
    syms = "abcde"[: draw(hs.sampled_from([5, 4, 3, 2]))]
    axioms = []
    for _ in range(draw(hs.integers(1, 3))):
        left = draw(hs.sets(hs.sampled_from(syms), min_size=1, max_size=len(syms) - 1))
        rest = [x for x in syms if x not in left]
        right = draw(hs.sets(hs.sampled_from(rest), min_size=1))
        cond = [x for x in rest if x not in right and draw(hs.booleans())]
        axioms.append(st(left, right, cond))
    return axioms, syms


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_axiom_sets())
def test_closure_is_closed_under_the_four_rules(case):
    axioms, syms = case
    c = semigraphoid_closure(axioms, syms)
    assert c.complete and set(axioms) <= c.statements
    by_left = {}
    for s in c.statements:
        assert set(_images(s)) <= c.statements, str(s)
        by_left.setdefault(s.left, []).append(s)
        assert validate_derivation(c.derivation(s)).ok, str(s)
    for group in by_left.values():
        for p1, p2 in itertools.product(group, repeat=2):
            if p1.given == p2.right | p2.given:
                assert st(p2.left, p2.right | p1.right, p2.given) in c.statements
    # every statement as a goal of one derivation: each derived exactly once
    goals = sorted(c.statements, key=str)
    d = c.derivation(*goals)
    assert validate_derivation(d).ok
    derived = [step.conclusion for step in d.steps]
    assert len(set(derived)) == len(derived)
    assert set(goals) <= set(d.axioms) | set(derived)
    # the first goal is derived as it is alone
    alone = c.derivation(goals[-1]).steps
    assert c.derivation(goals[-1], *goals).steps[: len(alone)] == alone


def _meet_cells(premises):
    """Cells of the meet of two-block partitions of one ground set: the
    symbols that fall on the same side of every premise, in sorted order."""
    cells = {}
    for x in sorted(premises[0].left | premises[0].right):
        cells.setdefault(tuple(x in p.left for p in premises), []).append(x)
    return list(cells.values())


@hs.composite
def _two_block_premises(draw):
    syms = "abcde"[: draw(hs.integers(2, 5))]
    given = draw(hs.sets(hs.sampled_from(syms), max_size=min(2, len(syms) - 2)))
    ground = {x for x in syms if x not in given}
    premises = []
    for _ in range(draw(hs.integers(1, 3))):
        left = draw(hs.sets(hs.sampled_from(sorted(ground)), min_size=1, max_size=len(ground) - 1))
        premises.append(st(left, ground - left, given))
    return premises, syms


@settings(max_examples=60, derandomize=True, deadline=None)
@given(_two_block_premises())
def test_splits_along_the_meet_cells_derive_in_the_core_rules(case):
    # block versus rest under one conditioning set, for each premise, gives
    # every split of the ground set that keeps each meet cell on one side
    premises, syms = case
    given, ground = premises[0].given, premises[0].left | premises[0].right
    cells = _meet_cells(premises)
    goals = [
        st(left, ground - left, given)
        for n in range(1, len(cells))
        for chosen in itertools.combinations(cells, n)
        for left in [set().union(*chosen)]
    ]
    c = semigraphoid_closure(premises, syms)
    assert c.complete
    assert set(goals) <= c.statements
    assert validate_derivation(c.derivation(*goals)).ok


def test_partial_closures_grow_with_the_budget():
    axioms = _chain_axioms("abcdef")
    partial = []
    for budget in range(22):
        with pytest.raises(BudgetExceeded) as excinfo:
            semigraphoid_closure(axioms, "abcdef", budget=budget)
        partial.append(excinfo.value.partial)
        assert len(partial[-1].statements) == len(axioms) + budget
    for smaller, larger in zip(partial, partial[1:]):
        assert smaller.statements < larger.statements


def test_eight_symbol_markov_chain_closure_is_complete():
    c = semigraphoid_closure(_chain_axioms("abcdefgh"), "abcdefgh")
    assert c.complete
    assert len(c.statements) == 9422
    # the ends of the chain are independent given any one inner symbol
    assert st("a", "h", "d") in c.statements


def test_closure_derivation_of_unknown_statement_fails():
    c = semigraphoid_closure([st(["a"], ["b"])], ["a", "b", "c"])
    with pytest.raises(UnknownWire):
        c.derivation(st(["a"], ["c"]))
    outside = st(["b"], ["c"], ["a"])
    with pytest.raises(UnknownWire, match=re.escape(str(outside))):
        c.derivation(st(["b"], ["a"]), outside)


# ---------------------------------------------------------------------------
# bundled scripts


def _bundled(name):
    path = resources.files("finstoch") / "scripts" / name
    return derivation_from_json(json.loads(path.read_text()))


BUNDLED = (
    "independence1.json",
    "independence2.json",
    "independence3.json",
    "ah_ordered_markov.json",
)


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_derivations_validate(name):
    rep = validate_derivation(_bundled(name))
    assert rep.ok, rep.message


@pytest.mark.parametrize("name", BUNDLED)
def test_bundled_statements_hold_on_a_random_grid_joint(name):
    rng = np.random.default_rng(54)
    spec = random_ahspec(rng, 2, hi=3)
    j = build_ah_joint(spec, expose_latents=True)
    d = _bundled(name)
    for s in d.statements():
        assert ci_residual(j, s.left, s.right, s.given) <= 1e-9, str(s)


def test_entrywise_screening_is_reachable_from_the_bundled_axioms():
    d = _bundled("ah_ordered_markov.json")
    targets = [
        st(["S[1,1]"], ["R[2]", "C[2]", "S[1,2]", "S[2,1]", "S[2,2]"],
           ["R[1]", "C[1]", "T"]),
        st(["S[1,2]"], ["R[2]", "C[1]", "S[1,1]", "S[2,1]", "S[2,2]"],
           ["R[1]", "C[2]", "T"]),
        st(["S[2,1]"], ["R[1]", "C[2]", "S[1,1]", "S[1,2]", "S[2,2]"],
           ["R[2]", "C[1]", "T"]),
        st(["S[2,2]"], ["R[1]", "C[1]", "S[1,1]", "S[1,2]", "S[2,1]"],
           ["R[2]", "C[2]", "T"]),
    ]
    try:
        c = semigraphoid_closure(d.axioms, d.symbols, budget=4000)
    except BudgetExceeded as e:
        c = e.partial
    for t in targets:
        assert t in c.statements, str(t)
    rep = validate_derivation(c.derivation(targets[0]))
    assert rep.ok
