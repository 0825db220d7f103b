"""Every subcommand exits 2 naming the file when a field or a list item has
the wrong JSON type."""

import contextlib
import io
import json
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finstoch import (
    Box,
    ahspec_to_json,
    build_definetti_joint,
    kernel_to_json,
    make_model,
    model_to_json,
    recompose,
    state_to_json,
)
from finstoch.cli import main
from support import carrier, random_ahspec, random_assignment, random_kernel, random_state

_rng = np.random.default_rng(41)
_CHAIN = make_model(
    [Box("f1", (), ("X",)), Box("f2", ("X",), ("Y",)), Box("f3", ("Y",), ("Z",))]
)
_A, _B, _D = carrier("a", 2), carrier("b", 3), carrier("d", 3)
MODEL = model_to_json(_CHAIN)
STATE = state_to_json(recompose(_CHAIN, random_assignment(_rng, _CHAIN)))
SEQUENCE = state_to_json(
    build_definetti_joint(random_state(_rng, _A), random_kernel(_rng, _A, _B), 3)
)
_F = kernel_to_json(random_kernel(_rng, _D, _A))
_SPEC = ahspec_to_json(random_ahspec(_rng, 2, hi=2))
_PROOF = json.loads((resources.files("finstoch") / "scripts" / "independence1.json").read_text())

# command -> (input documents by file name, argv with those file names)
CASES = {
    "validate-model": ({"model.json": MODEL}, ["model.json"]),
    "check-ci": ({"state.json": STATE}, ["state.json", "--x", "X", "--y", "Z", "--given", "Y"]),
    "check-markov": (
        {"state.json": STATE, "model.json": MODEL, "timing.json": {"f1": 1, "f2": 2, "f3": 3}},
        ["state.json", "model.json", "--timing", "timing.json"],
    ),
    "factorize": (
        {"state.json": STATE, "model.json": MODEL},
        ["state.json", "model.json", "-o", "out.json"],
    ),
    "build-ah": ({"spec.json": _SPEC}, ["spec.json", "-o", "out.json"]),
    "verify-ah": ({"spec.json": _SPEC}, ["spec.json"]),
    "check-exchangeable": ({"seq.json": SEQUENCE}, ["seq.json"]),
    "replay": ({"proof.json": _PROOF}, ["proof.json"]),
    "noise-outsource": (
        {"kernel.json": kernel_to_json(random_kernel(_rng, _A, _B))},
        ["kernel.json"],
    ),
    "check-cs": (
        {"p.json": kernel_to_json(random_state(_rng, _D)), "f.json": _F, "g.json": _F},
        ["p.json", "f.json", "g.json"],
    ),
}

_LEAF = st.none() | st.booleans() | st.integers(-2, 2) | st.text(max_size=3)
JSON_VALUES = {
    "null": st.none(),
    "bool": st.booleans(),
    "number": st.integers(-2, 2) | st.floats(-2, 2, allow_nan=False),
    "string": st.text(max_size=4),
    "array": st.lists(_LEAF, max_size=3),
    "object": st.dictionaries(st.text(max_size=3), _LEAF, max_size=2),
}


def _kind(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "bool"
    if isinstance(value, (int, float)):
        return "number"
    return {str: "string", list: "array", dict: "object"}[type(value)]


def _paths(doc, path=()):
    """Paths to every object field and list item nested in doc."""
    if isinstance(doc, (dict, list)):
        for key, value in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield path + (key,)
            yield from _paths(value, path + (key,))


def _replace(doc, path, value):
    if not path:
        return value
    doc = json.loads(json.dumps(doc))
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    return doc


def _run(directory, command, docs, argv):
    for name, doc in docs.items():
        (directory / name).write_text(json.dumps(doc))
    argv = [str(directory / a) if a.endswith(".json") else a for a in argv]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([command] + argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("inputs")


@pytest.mark.parametrize("command", sorted(CASES))
def test_the_valid_documents_are_accepted(command, tmp_path):
    docs, argv = CASES[command]
    code, out, err = _run(tmp_path, command, docs, argv)
    assert code in (0, 1) and out and not err


@pytest.mark.parametrize("command", sorted(CASES))
@settings(max_examples=25, derandomize=True, deadline=None)
@given(data=st.data())
def test_a_field_of_another_json_type_exits_2_naming_the_file(command, data, workdir):
    docs, argv = CASES[command]
    name = data.draw(st.sampled_from(sorted(docs)), label="file")
    paths = list(_paths(docs[name]))
    # whole document or object field, else one list item: a row entry,
    # a wire name, a premise index
    fields = st.sampled_from([()] + [p for p in paths if isinstance(p[-1], str)])
    items = [p for p in paths if isinstance(p[-1], int)]
    path = data.draw(fields | st.sampled_from(items) if items else fields, label="path")
    old = docs[name]
    for key in path:
        old = old[key]
    kind = data.draw(st.sampled_from(sorted(set(JSON_VALUES) - {_kind(old)})), label="kind")
    value = data.draw(JSON_VALUES[kind], label="value")
    mutated = dict(docs, **{name: _replace(docs[name], path, value)})
    code, out, err = _run(workdir, command, mutated, argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and name in err and "unexpected" not in err
