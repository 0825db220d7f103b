"""Wiring-diagram models: validation, descendants, timings, grids."""

from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    Box,
    CausalModel,
    FinstochError,
    InvalidTiming,
    SizeLimit,
    TimingFunction,
    UnknownNode,
    default_timing,
    ensure_valid,
    expand_ah_model,
    make_model,
    non_descendants,
    past,
    topo_order,
    validate_model,
    validate_timing,
)
from support import random_dag_model

CHAIN = make_model(
    [
        Box("f1", (), ("X",)),
        Box("f2", ("X",), ("Y",)),
        Box("f3", ("Y",), ("Z",)),
    ]
)

# one root box feeding two arms that merge again, plus a side output
TRIANGLE = make_model(
    [
        Box("alpha", (), ("A", "B")),
        Box("beta", ("A",), ("X",)),
        Box("gamma", ("B",), ("W",)),
        Box("eta", ("X", "W"), ("Y",)),
        Box("mu", ("W",), ("Z",)),
    ]
)


def _rules(violations):
    return sorted({v.rule for v in violations})


def test_chain_is_valid():
    assert validate_model(CHAIN) == []
    ensure_valid(CHAIN)


def test_make_model_defaults_to_sorted_wires():
    assert CHAIN.wires == ("X", "Y", "Z")
    assert CHAIN.outputs == ("X", "Y", "Z")


def test_violation_text_names_rule_and_subject():
    m = CausalModel(("A",), (Box("f", (), ("A",)),), ())
    (v,) = validate_model(m)
    assert v.rule == "pure-bloom"
    assert "A" in str(v) and "pure-bloom" in str(v)


def test_wire_not_an_output_is_flagged():
    m = CausalModel(
        ("A", "X"),
        (Box("alpha", (), ("A",)), Box("beta", ("A",), ("X",))),
        ("X",),
    )
    assert _rules(validate_model(m)) == ["pure-bloom"]


def test_output_repeated_is_flagged():
    m = CausalModel(("A",), (Box("f", (), ("A",)),), ("A", "A"))
    assert _rules(validate_model(m)) == ["pure-bloom"]


def test_duplicate_box_names():
    m = make_model([Box("f", (), ("A",)), Box("f", (), ("B",))])
    assert "box-names" in _rules(validate_model(m))


def test_box_and_wire_name_collision():
    m = make_model([Box("A", (), ("A",))])
    assert "node-names" in _rules(validate_model(m))


def test_box_without_outputs():
    m = CausalModel(("A",), (Box("f", (), ("A",)), Box("g", ("A",), ())), ("A",))
    assert "box-outputs" in _rules(validate_model(m))


def test_wire_produced_twice():
    m = make_model([Box("f", (), ("A",)), Box("g", (), ("A",))])
    assert "produced-once" in _rules(validate_model(m))
    m2 = make_model([Box("f", (), ("A", "A"))])
    assert "produced-once" in _rules(validate_model(m2))


def test_dangling_input_wire():
    m = make_model([Box("f", ("A",), ("B",))])
    rules = validate_model(m)
    assert any(
        v.rule == "produced-once" and v.subject == "A" for v in rules
    )


def test_wire_consumed_twice_by_one_box():
    m = make_model([Box("f", (), ("A",)), Box("g", ("A", "A"), ("B",))])
    assert "consumed-once" in _rules(validate_model(m))


def test_unknown_wire_reference():
    m = CausalModel(("A",), (Box("f", (), ("A",)),), ("A", "Q"))
    assert "unknown-wire" in _rules(validate_model(m))


def test_two_box_cycle():
    m = make_model([Box("f", ("B",), ("A",)), Box("g", ("A",), ("B",))])
    rules = validate_model(m)
    assert any(v.rule == "acyclic" for v in rules)
    with pytest.raises(FinstochError):
        topo_order(m)


def test_ensure_valid_raises_on_first_violation():
    m = make_model([Box("f", ("B",), ("A",)), Box("g", ("A",), ("B",))])
    with pytest.raises(FinstochError):
        ensure_valid(m)


def test_topo_order_respects_precedence():
    names = [b.name for b in topo_order(TRIANGLE)]
    assert names.index("alpha") < names.index("beta")
    assert names.index("beta") < names.index("eta")
    assert names.index("gamma") < names.index("eta")
    assert names[0] == "alpha"


def test_non_descendants_on_the_chain():
    assert non_descendants(CHAIN) == {
        "f1": frozenset(),
        "f2": frozenset({"X"}),
        "f3": frozenset({"X", "Y"}),
    }


def test_non_descendants_on_the_merge():
    nd = non_descendants(TRIANGLE)
    assert list(nd) == [b.name for b in TRIANGLE.boxes]
    assert nd["beta"] == frozenset({"A", "B", "W", "Z"})
    assert nd["gamma"] == frozenset({"A", "B", "X"})
    assert nd["alpha"] == frozenset()


def test_non_descendants_raises_on_a_cycle():
    m = make_model([Box("f", ("B",), ("A",)), Box("g", ("A",), ("B",))])
    with pytest.raises(FinstochError, match="cycle"):
        non_descendants(m)


def _bfs_non_descendants(m, box):
    """Wires not reachable from box by a breadth-first walk of boxes and wires."""
    succ = {}
    for b in m.boxes:
        succ.setdefault(b.name, []).extend(b.out_wires)
        for w in b.in_wires:
            succ.setdefault(w, []).append(b.name)
    seen, queue = {box}, deque([box])
    while queue:
        for t in succ.get(queue.popleft(), ()):
            if t not in seen:
                seen.add(t)
                queue.append(t)
    return frozenset(w for w in m.wires if w not in seen)


@settings(max_examples=100, derandomize=True, deadline=None)
@given(hs.integers(0, 2**32 - 1))
def test_per_box_maps_match_the_one_box_references(seed):
    m = random_dag_model(np.random.default_rng(seed), max_boxes=5, max_wires=6)
    t = default_timing(m)
    nd, p = non_descendants(m), past(m, t)
    assert list(nd) == list(p) == [b.name for b in m.boxes]
    for b in m.boxes:
        assert nd[b.name] == _bfs_non_descendants(m, b.name)
        assert p[b.name] == frozenset(
            w for c in m.boxes if t[c.name] <= t[b.name] for w in c.out_wires
        )


def test_default_timing_is_longest_path():
    t = default_timing(CHAIN)
    assert (t["f1"], t["f2"], t["f3"]) == (1, 2, 3)
    t2 = default_timing(TRIANGLE)
    assert t2["alpha"] == 1
    assert t2["beta"] == t2["gamma"] == 2
    assert t2["eta"] == t2["mu"] == 3
    validate_timing(TRIANGLE, t2)


def test_timing_validation_rejects_non_strict_orderings():
    with pytest.raises(InvalidTiming):
        validate_timing(CHAIN, TimingFunction({"f1": 1, "f2": 1, "f3": 2}))
    with pytest.raises(InvalidTiming):
        validate_timing(CHAIN, TimingFunction({"f1": 1, "f2": 2}))
    with pytest.raises(UnknownNode):
        validate_timing(CHAIN, TimingFunction({"f1": 1, "f2": 2, "f3": 3, "q": 4}))
    with pytest.raises(UnknownNode):
        TimingFunction({"f1": 1})["f9"]


def test_past_collects_wires_up_to_the_stage():
    t = default_timing(TRIANGLE)
    p = past(TRIANGLE, t)
    assert list(p) == [b.name for b in TRIANGLE.boxes]
    assert p["alpha"] == frozenset({"A", "B"})
    assert p["beta"] == p["gamma"] == frozenset({"A", "B", "X", "W"})
    assert p["beta"] - set(TRIANGLE.box("beta").out_wires) == frozenset({"A", "B", "W"})
    assert p["eta"] == p["mu"] == frozenset(TRIANGLE.wires)


def test_past_is_contained_in_non_descendants_and_can_be_strict():
    p, nd = past(TRIANGLE, default_timing(TRIANGLE)), non_descendants(TRIANGLE)
    for b in TRIANGLE.boxes:
        assert p[b.name] - set(b.out_wires) <= nd[b.name]
    strict = p["beta"] - set(TRIANGLE.box("beta").out_wires)
    assert strict < nd["beta"]


def test_stretched_timings_still_validate():
    validate_timing(CHAIN, TimingFunction({"f1": 1, "f2": 5, "f3": 9}))


def test_expand_one_by_one_grid():
    m = expand_ah_model(1)
    assert len(m.boxes) == 4
    assert set(m.wires) == {"T", "R[1]", "C[1]", "S[1,1]"}
    assert validate_model(m) == []


def test_expand_grid_box_wiring():
    m = expand_ah_model(2, 3)
    assert len(m.boxes) == 1 + 2 + 3 + 6
    eta = m.box("eta[2,3]")
    assert eta.in_wires == ("R[2]", "T", "C[3]")
    assert eta.out_wires == ("S[2,3]",)
    assert validate_model(m) == []
    t = default_timing(m)
    assert t["alpha"] == 1
    assert t["beta[1]"] == t["gamma[3]"] == 2
    assert t["eta[1,1]"] == 3


@pytest.mark.parametrize("n", [1, 2, 3, 4, 6])
def test_expand_supported_sizes_validate(n):
    assert validate_model(expand_ah_model(n)) == []


@pytest.mark.parametrize("n", [0, 9, -1, 7])
def test_expand_rejects_out_of_range_sizes(n):
    with pytest.raises(SizeLimit):
        expand_ah_model(n)


def test_expand_wire_cap_on_a_rectangular_grid():
    # T, 2 row tails, 16 column tails and 32 entries: 51 wires
    assert validate_model(expand_ah_model(2, 16)) == []
    with pytest.raises(SizeLimit, match="wires at most 52"):
        expand_ah_model(2, 17)


def test_model_lookup_helpers():
    assert CHAIN.box("f2").in_wires == ("X",)
    with pytest.raises(UnknownNode):
        CHAIN.box("missing")
