"""Wiring-diagram models: validation, descendants, timings, grids."""

import time
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    Box,
    CausalModel,
    InvalidModel,
    InvalidTiming,
    SizeLimit,
    TimingFunction,
    UnknownNode,
    default_timing,
    expand_ah_model,
    make_model,
    model_from_json,
    model_to_json,
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


def _violations(build):
    """The violations of the InvalidModel that build() raises; its message is the first."""
    with pytest.raises(InvalidModel) as info:
        build()
    violations = info.value.violations
    assert str(info.value) == str(violations[0])
    return violations


def test_chain_is_valid():
    assert validate_model(CHAIN) == []


def test_model_checks_take_linear_time():
    # repeats were once found with list.count and timing keys by a scan of
    # the boxes, which took seconds on a model this size
    boxes = [Box(f"f{k}", (f"W{k - 1}",) if k else (), (f"W{k}",)) for k in range(20_000)]
    start = time.perf_counter()
    m = make_model(boxes)
    validate_timing(m, default_timing(m))
    assert time.perf_counter() - start < 5.0


def test_make_model_defaults_to_sorted_wires():
    assert CHAIN.wires == ("X", "Y", "Z")
    assert CHAIN.outputs == ("X", "Y", "Z")


def test_violation_text_names_rule_and_subject():
    (v,) = _violations(lambda: CausalModel(("A",), (Box("f", (), ("A",)),), ()))
    assert v.rule == "pure-bloom"
    assert str(v) == "pure-bloom: A: wire is not an overall output"


def test_wire_not_an_output_is_flagged():
    (v,) = _violations(
        lambda: CausalModel(
            ("A", "X"),
            (Box("alpha", (), ("A",)), Box("beta", ("A",), ("X",))),
            ("X",),
        )
    )
    assert (v.rule, v.subject) == ("pure-bloom", "A")


def test_output_repeated_is_flagged():
    violations = _violations(lambda: CausalModel(("A",), (Box("f", (), ("A",)),), ("A", "A")))
    assert _rules(violations) == ["pure-bloom"]


def test_duplicate_box_names():
    violations = _violations(lambda: make_model([Box("f", (), ("A",)), Box("f", (), ("B",))]))
    assert ("box-names", "f") in [(v.rule, v.subject) for v in violations]


def test_empty_box_and_wire_names():
    violations = _violations(lambda: make_model([Box("", (), ("",))]))
    assert [str(v) for v in violations[:2]] == [
        "box-names: '': box name is empty",
        "wire-names: '': wire name is empty",
    ]
    assert [(v.rule, v.subject) for v in violations[:2]] == [("box-names", ""), ("wire-names", "")]


def test_every_rule_renders_an_empty_name_as_quotes():
    lines = [str(v) for v in _violations(lambda: make_model([Box("", (), ("",))]))]
    assert "node-names: '': name used for both a box and a wire" in lines
    lines = [str(v) for v in _violations(lambda: make_model([Box("", (), ("A",)), Box("", (), ("B",))]))]
    assert "box-names: '': box name declared more than once" in lines


def test_box_and_wire_name_collision():
    violations = _violations(lambda: make_model([Box("A", (), ("A",))]))
    assert _rules(violations) == ["node-names"]


def test_box_without_outputs():
    violations = _violations(
        lambda: CausalModel(("A",), (Box("f", (), ("A",)), Box("g", ("A",), ())), ("A",))
    )
    assert [(v.rule, v.subject) for v in violations] == [("box-outputs", "g")]


def test_wire_produced_twice():
    violations = _violations(lambda: make_model([Box("f", (), ("A",)), Box("g", (), ("A",))]))
    assert [str(v) for v in violations] == ["produced-once: A: produced by ['f', 'g']"]
    violations = _violations(lambda: make_model([Box("f", (), ("A", "A"))]))
    assert "produced-once" in _rules(violations)


def test_dangling_input_wire():
    violations = _violations(lambda: make_model([Box("f", ("A",), ("B",))]))
    assert [(v.rule, v.subject) for v in violations] == [("produced-once", "A")]


def test_wire_consumed_twice_by_one_box():
    violations = _violations(
        lambda: make_model([Box("f", (), ("A",)), Box("g", ("A", "A"), ("B",))])
    )
    assert _rules(violations) == ["consumed-once"]


def test_unknown_wire_reference():
    violations = _violations(lambda: CausalModel(("A",), (Box("f", (), ("A",)),), ("A", "Q")))
    assert [(v.rule, v.subject) for v in violations] == [("unknown-wire", "Q")]


def test_two_box_cycle():
    violations = _violations(
        lambda: make_model([Box("f", ("B",), ("A",)), Box("g", ("A",), ("B",))])
    )
    assert [str(v) for v in violations] == ["acyclic: f: boxes on a cycle: ['f', 'g']"]


def test_every_violation_is_listed():
    # a cycle, a dangling input and an unlisted output, reported in rule order
    violations = _violations(
        lambda: CausalModel(
            ("A", "B", "C", "D"),
            (Box("f", ("B", "D"), ("A",)), Box("g", ("A",), ("B", "C"))),
            ("A", "B", "D"),
        )
    )
    assert [(v.rule, v.subject) for v in violations] == [
        ("produced-once", "D"),
        ("pure-bloom", "C"),
        ("acyclic", "f"),
    ]


def test_model_from_json_raises_invalid_model():
    doc = model_to_json(CHAIN)
    doc["outputs"] = ["X", "Y"]
    violations = _violations(lambda: model_from_json(doc))
    assert [str(v) for v in violations] == ["pure-bloom: Z: wire is not an overall output"]


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
    beta = {b.name: b for b in TRIANGLE.boxes}["beta"]
    assert p["beta"] - set(beta.out_wires) == frozenset({"A", "B", "W"})
    assert p["eta"] == p["mu"] == frozenset(TRIANGLE.wires)


def test_past_is_contained_in_non_descendants_and_can_be_strict():
    p, nd = past(TRIANGLE, default_timing(TRIANGLE)), non_descendants(TRIANGLE)
    for b in TRIANGLE.boxes:
        assert p[b.name] - set(b.out_wires) <= nd[b.name]
    beta = {b.name: b for b in TRIANGLE.boxes}["beta"]
    strict = p["beta"] - set(beta.out_wires)
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
    eta = {b.name: b for b in m.boxes}["eta[2,3]"]
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
    # box names are unique in a valid model, so a dict finds each box
    assert {b.name: b for b in CHAIN.boxes}["f2"].in_wires == ("X",)
