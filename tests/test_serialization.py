"""JSON round trips and loader diagnostics for every document format."""

import json

import numpy as np
import pytest

from finstoch import (
    CIStatement,
    Derivation,
    DerivationStep,
    FinSet,
    JointState,
    Kernel,
    ShapeMismatch,
    ahspec_from_json,
    ahspec_to_json,
    assignment_from_json,
    assignment_to_json,
    default_timing,
    derivation_from_json,
    derivation_to_json,
    finset_from_json,
    finset_to_json,
    kernel_from_json,
    kernel_to_json,
    model_from_json,
    model_to_json,
    quantile_from_json,
    quantile_pushback,
    quantile_to_json,
    state_from_json,
    state_to_json,
    statement_from_json,
    statement_to_json,
    timing_from_json,
    timing_to_json,
    validate_derivation,
)
from support import (
    carrier,
    random_ahspec,
    random_assignment,
    random_carrier,
    random_dag_model,
    random_joint,
    random_kernel,
)


def roundtrip(doc):
    """Through actual JSON text, so floats survive via repr."""
    return json.loads(json.dumps(doc))


def same_kernel(a, b):
    return a.dom == b.dom and a.cod == b.cod and np.array_equal(a.matrix, b.matrix)


def test_finset_round_trip():
    fs = FinSet("colour", ("red", "green"))
    assert finset_from_json(roundtrip(finset_to_json(fs))) == fs


def test_kernel_round_trip_is_bitwise():
    rng = np.random.default_rng(11)
    f = random_kernel(
        rng, (random_carrier(rng, "a"), random_carrier(rng, "b")),
        random_carrier(rng, "y"), zero_frac=0.2,
    )
    assert same_kernel(kernel_from_json(roundtrip(kernel_to_json(f))), f)
    thirds = Kernel.state([1 / 3, 1 / 3, 1 - 2 / 3], carrier("t", 3))
    assert same_kernel(kernel_from_json(roundtrip(kernel_to_json(thirds))), thirds)


def test_state_round_trip():
    p = random_joint(np.random.default_rng(12), ["x", "y", "z"])
    back = state_from_json(roundtrip(state_to_json(p)))
    assert back.wire_names == p.wire_names
    assert same_kernel(back.kernel, p.kernel)


def test_model_and_timing_round_trips():
    m = random_dag_model(np.random.default_rng(13))
    assert model_from_json(roundtrip(model_to_json(m))) == m
    t = default_timing(m)
    assert timing_from_json(roundtrip(timing_to_json(t))).times == t.times


def test_assignment_round_trip():
    rng = np.random.default_rng(14)
    m = random_dag_model(rng)
    asg = random_assignment(rng, m)
    back = assignment_from_json(roundtrip(assignment_to_json(asg)))
    assert back.carriers == asg.carriers
    assert set(back.kernels) == set(asg.kernels)
    for name, k in asg.kernels.items():
        assert same_kernel(back.kernels[name], k)


def test_ahspec_round_trip():
    spec = random_ahspec(np.random.default_rng(15), 2, cols=3)
    back = ahspec_from_json(roundtrip(ahspec_to_json(spec)))
    assert (back.rows, back.cols) == (2, 3)
    for name in ("q", "f", "g", "h"):
        assert same_kernel(getattr(back, name), getattr(spec, name))


def test_statement_round_trip_and_optional_given():
    stmt = CIStatement(frozenset({"b", "a"}), frozenset({"c"}), frozenset({"d"}))
    doc = statement_to_json(stmt)
    assert doc == {"left": ["a", "b"], "right": ["c"], "given": ["d"]}
    assert statement_from_json(roundtrip(doc)) == stmt
    bare = statement_from_json({"left": ["a"], "right": ["b"]})
    assert bare.given == frozenset()


def test_derivation_round_trip_still_validates():
    ax = CIStatement(frozenset({"x", "y"}), frozenset({"z"}))
    d = Derivation(
        ("x", "y", "z"),
        (ax,),
        (
            DerivationStep(
                "decomposition", (0,),
                CIStatement(frozenset({"x"}), frozenset({"z"})),
            ),
            DerivationStep(
                "symmetry", (1,),
                CIStatement(frozenset({"z"}), frozenset({"x"})),
            ),
        ),
    )
    back = derivation_from_json(roundtrip(derivation_to_json(d)))
    assert back == d
    assert validate_derivation(back).ok


def test_quantile_round_trip():
    f = random_kernel(
        np.random.default_rng(16), carrier("a", 3), carrier("y", 4), zero_frac=0.3
    )
    qf = quantile_pushback(f, ("0", "2", "1", "3"))
    back = quantile_from_json(roundtrip(quantile_to_json(qf)))
    assert back.order == qf.order
    assert back.rows == qf.rows


def test_missing_fields_name_their_path():
    with pytest.raises(ShapeMismatch, match="kernel: missing field 'rows'"):
        kernel_from_json({"dom": [], "cod": []})
    with pytest.raises(ShapeMismatch, match=r"kernel\.dom\[0\]"):
        kernel_from_json({"dom": [{"label": "a"}], "cod": [], "rows": [[1.0]]})
    with pytest.raises(ShapeMismatch, match=r"model\.boxes\[0\]\.name"):
        model_from_json(
            {"wires": ["x"], "boxes": [{"name": 3, "in": [], "out": ["x"]}],
             "outputs": ["x"]}
        )


def test_loaders_revalidate_content():
    bad = {"dom": [], "cod": [finset_to_json(carrier("y", 2))], "rows": [[0.7, 0.7]]}
    with pytest.raises(ShapeMismatch, match=r"kernel\.rows"):
        kernel_from_json(bad)
    doc = state_to_json(random_joint(np.random.default_rng(17), ["x", "y"]))
    doc["wire_names"] = ["x"]
    with pytest.raises(ShapeMismatch, match=r"state\.wire_names"):
        state_from_json(doc)
    with pytest.raises(ShapeMismatch, match="statement"):
        statement_from_json({"left": ["a"], "right": ["a"]})


def test_scalar_type_checks_reject_booleans():
    with pytest.raises(ShapeMismatch, match="integer stage"):
        timing_from_json({"f": True})
    d = {
        "symbols": ["x", "y"],
        "axioms": [{"left": ["x"], "right": ["y"]}],
        "steps": [
            {"rule": "symmetry", "premises": [False],
             "conclusion": {"left": ["y"], "right": ["x"]}}
        ],
    }
    with pytest.raises(ShapeMismatch, match=r"steps\[0\]\.premises"):
        derivation_from_json(d)
    spec = ahspec_to_json(random_ahspec(np.random.default_rng(18), 1))
    spec["rows"] = True
    with pytest.raises(ShapeMismatch, match=r"spec\.rows"):
        ahspec_from_json(spec)
    q = quantile_to_json(
        quantile_pushback(Kernel.state([0.4, 0.6], carrier("x", 2)), ("0", "1"))
    )
    q["rows"][0][0]["upper"] = True
    with pytest.raises(ShapeMismatch, match=r"rows\[0\]\[0\]\.upper"):
        quantile_from_json(q)


def test_nan_quantile_breakpoints_are_rejected_naming_the_quantile():
    q = quantile_to_json(
        quantile_pushback(Kernel.state([0.3, 0.7], carrier("x", 2)), ("0", "1"))
    )
    for k in (0, 1):
        bad = json.loads(json.dumps(q))
        bad["rows"][0][k]["upper"] = float("nan")
        with pytest.raises(ShapeMismatch, match="quantile"):
            quantile_from_json(json.loads(json.dumps(bad)))
