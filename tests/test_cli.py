"""Command line contract: report lines, exit codes, file handling."""

import contextlib
import io
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hs

from finstoch import (
    Box,
    FinSet,
    JointState,
    Kernel,
    SizeLimit,
    TimingFunction,
    ahspec_to_json,
    assignment_from_json,
    build_ah_joint,
    ci_residual,
    compatibility_residual,
    cs_check,
    default_timing,
    expand_ah_model,
    kernel_from_json,
    kernel_to_json,
    make_model,
    markov_residuals,
    model_to_json,
    outsourced_form,
    quantile_from_json,
    recompose,
    reindex,
    state_from_json,
    state_to_json,
    timing_to_json,
)
from finstoch.cli import _wire_list, main
from support import (
    carrier,
    fresh,
    one_element_ahspec,
    perturbed,
    random_ahspec,
    random_assignment,
    random_dag_model,
    random_kernel,
    random_state,
    relaid_out,
    skipped_link_chain,
)


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out.splitlines(), captured.err


@pytest.fixture
def chain_files(tmp_path):
    """A three-box chain model and a state it recomposes exactly."""
    rng = np.random.default_rng(21)
    m = make_model(
        [Box("f1", (), ("X",)), Box("f2", ("X",), ("Y",)), Box("f3", ("Y",), ("Z",))]
    )
    bit = carrier("b", 2)
    asg = random_assignment(rng, m)
    p = recompose(m, asg)
    return (
        write(tmp_path, "model.json", model_to_json(m)),
        write(tmp_path, "state.json", state_to_json(p)),
    )


def test_validate_model_pass(chain_files, capsys):
    model, _ = chain_files
    code, out, err = run(capsys, ["validate-model", model])
    assert code == 0
    assert out == ["PASS model-valid"]
    assert err == ""


def test_validate_model_reports_violations(tmp_path, capsys):
    doc = {
        "wires": ["x"],
        "boxes": [
            {"name": "f", "in": [], "out": ["x"]},
            {"name": "g", "in": [], "out": ["x"]},
        ],
        "outputs": ["x"],
    }
    code, out, _ = run(capsys, ["validate-model", write(tmp_path, "bad.json", doc)])
    assert code == 1
    assert all(line.startswith("FAIL model-valid") for line in out)
    assert any("produced-once" in line for line in out)


EMPTY_NAMES = {
    "box-names": "box-names: '': box name is empty",
    "wire-names": "wire-names: '': wire name is empty",
}


def _grid_with_an_empty_name(tmp_path, rule):
    """The 2x2 grid model with box alpha or wire T renamed to the empty string."""
    doc = model_to_json(expand_ah_model(2))
    if rule == "box-names":
        doc["boxes"][0]["name"] = ""
    else:
        doc = json.loads(json.dumps(doc).replace('"T"', '""'))
    return write(tmp_path, "model.json", doc)


@pytest.mark.parametrize("rule", EMPTY_NAMES)
def test_validate_model_rejects_an_empty_name(tmp_path, capsys, rule):
    model = _grid_with_an_empty_name(tmp_path, rule)
    code, out, _ = run(capsys, ["validate-model", model])
    assert code == 1
    assert f"FAIL model-valid {EMPTY_NAMES[rule]}" in out


@pytest.mark.parametrize("rule", EMPTY_NAMES)
def test_check_markov_blames_an_empty_name_on_the_model(tmp_path, capsys, rule):
    m = expand_ah_model(2)
    p = recompose(m, random_assignment(np.random.default_rng(24), m, 2, 2))
    state = write(tmp_path, "state.json", state_to_json(p))
    timing = write(tmp_path, "timing.json", timing_to_json(default_timing(m)))
    model = _grid_with_an_empty_name(tmp_path, rule)
    code, out, err = run(capsys, ["check-markov", state, model, "--timing", timing])
    assert code == 2
    assert out == []
    assert err == f"error: {model}: {EMPTY_NAMES[rule]}\n"


def _triple_state(tmp_path):
    rng = np.random.default_rng(22)
    w = rng.uniform(0.2, 1.0, 2)
    w /= w.sum()
    fx = rng.uniform(0.05, 1.0, (2, 3))
    fy = rng.uniform(0.05, 1.0, (2, 2))
    fx /= fx.sum(axis=1, keepdims=True)
    fy /= fy.sum(axis=1, keepdims=True)
    arr = np.einsum("w,wx,wy->xyw", w, fx, fy)
    doc = {
        "dom": [],
        "cod": [
            {"label": "x", "elements": ["0", "1", "2"]},
            {"label": "y", "elements": ["0", "1"]},
            {"label": "w", "elements": ["0", "1"]},
        ],
        "rows": [arr.ravel().tolist()],
        "wire_names": ["x", "y", "w"],
    }
    return write(tmp_path, "triple.json", doc)


def test_check_ci_pass_and_fail(tmp_path, capsys):
    state = _triple_state(tmp_path)
    code, out, _ = run(capsys, ["check-ci", state, "--x", "x", "--y", "y", "--given", "w"])
    assert code == 0
    assert len(out) == 1 and out[0].startswith("PASS ci x⊥y|w residual=")
    code, out, _ = run(capsys, ["check-ci", state, "--x", "x", "--y", "w"])
    assert code == 1
    assert out[0].startswith("FAIL ci x⊥w residual=")


def test_check_ci_unknown_wire_is_an_input_error(tmp_path, capsys):
    state = _triple_state(tmp_path)
    code, out, err = run(capsys, ["check-ci", state, "--x", "nope", "--y", "y"])
    assert code == 2
    assert out == []
    assert err.startswith("error:") and "triple.json" in err


@pytest.mark.parametrize(
    "flags, flag",
    [
        (["--x", "x,x", "--y", "y"], "--x"),
        (["--x", "x", "--y", "y, y"], "--y"),
        (["--x", "x", "--y", "y", "--given", "w,w"], "--given"),
    ],
)
def test_check_ci_rejects_a_wire_repeated_within_one_list(tmp_path, capsys, flags, flag):
    state = _triple_state(tmp_path)
    code, out, err = run(capsys, ["check-ci", state, *flags])
    assert code == 2
    assert out == []
    assert err.startswith(f"error: {flag} ") and "twice" in err


@pytest.mark.parametrize(
    "flags, first, second, wire",
    [
        (["--x", "x", "--y", "x"], "--x", "--y", "x"),
        (["--x", "x,w", "--y", "y", "--given", "w"], "--x", "--given", "w"),
        (["--x", "x", "--y", "y", "--given", "y"], "--y", "--given", "y"),
    ],
)
def test_check_ci_rejects_a_wire_two_flags_name(tmp_path, capsys, flags, first, second, wire):
    # the flags are at fault, not the state file
    state = _triple_state(tmp_path)
    code, out, err = run(capsys, ["check-ci", state, *flags])
    assert code == 2
    assert out == []
    assert err == f"error: {first} and {second} both name {wire!r}\n"


def test_wire_list_keeps_commas_inside_brackets():
    assert _wire_list("S[1,2],S[2,1]", "--x") == ["S[1,2]", "S[2,1]"]


def test_check_ci_reads_bracketed_wire_lists(tmp_path, capsys):
    spec = random_ahspec(np.random.default_rng(31), 2, hi=2)
    state = write(tmp_path, "grid.json", state_to_json(build_ah_joint(spec, expose_latents=True)))
    flags = ["--x", "S[1,2],S[2,1]", "--y", "S[1,1]", "--given", "T,R[1],R[2],C[1],C[2]"]
    code, out, _ = run(capsys, ["check-ci", state, *flags])
    assert code == 0
    assert len(out) == 1
    assert out[0].startswith("PASS ci S[1,2],S[2,1]⊥S[1,1]|C[1],C[2],R[1],R[2],T residual=")


def test_check_markov_default_runs_three_checks(chain_files, capsys):
    model, state = chain_files
    code, out, _ = run(capsys, ["check-markov", state, model])
    assert code == 0
    assert [line.split()[1] for line in out] == [
        "local-markov",
        "ordered-markov",
        "compatible",
    ]
    assert all(line.startswith("PASS") and "residual=" in line for line in out)


@pytest.mark.parametrize("flag", ["--local", "--ordered"])
def test_check_markov_has_no_single_property_flags(chain_files, flag):
    model, state = chain_files
    with pytest.raises(SystemExit) as exit_:
        main(["check-markov", state, model, flag])
    assert exit_.value.code == 2


def _coupled_state(tmp_path):
    """A state on the chain's wires in which Z copies X past Y."""
    arr = np.zeros((2, 2, 2))
    for x in range(2):
        for y in range(2):
            arr[x, y, x] = 0.25
    doc = {
        "dom": [],
        "cod": [{"label": "b", "elements": ["0", "1"]}] * 3,
        "rows": [arr.ravel().tolist()],
        "wire_names": ["X", "Y", "Z"],
    }
    return write(tmp_path, "coupled.json", doc)


def test_check_markov_fails_both_properties_when_one_box_fails(tmp_path, capsys):
    chain, p = skipped_link_chain()
    model = write(tmp_path, "chain.json", model_to_json(chain))
    state = write(tmp_path, "state.json", state_to_json(p))
    code, out, _ = run(capsys, ["check-markov", state, model])
    assert code == 1
    assert [line.split()[:2] for line in out] == [
        ["FAIL", "local-markov"],
        ["FAIL", "ordered-markov"],
        ["FAIL", "compatible"],
    ]


def test_check_markov_detects_incompatible_states(chain_files, tmp_path, capsys):
    model, _ = chain_files
    state = _coupled_state(tmp_path)
    code, out, _ = run(capsys, ["check-markov", state, model])
    assert code == 1
    assert all(line.startswith("FAIL") for line in out)


@settings(max_examples=60, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_check_markov_verdicts_do_not_depend_on_the_model_layout(seed, perturb, tmp_path_factory):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    directory = tmp_path_factory.mktemp("layout")
    state = write(directory, "state.json", state_to_json(p))
    runs = []
    for name, model in (("model.json", m), ("relaid.json", relaid_out(rng, m))):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["check-markov", state, write(directory, name, model_to_json(model))])
        # the verdict word and check name of every line
        runs.append((code, [line.split()[:2] for line in out.getvalue().splitlines()]))
    assert runs[0] == runs[1]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_check_ci_and_markov_verdicts_do_not_depend_on_the_wire_order(
    seed, perturb, tmp_path_factory
):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    wires = list(p.wire_names)
    x, y, *given = (wires[i] for i in rng.permutation(len(wires))[: int(rng.integers(2, 5))])
    ci_flags = ["--x", x, "--y", y] + (["--given", ",".join(given)] if given else [])
    directory = tmp_path_factory.mktemp("order")
    model = write(directory, "model.json", model_to_json(m))
    runs = []
    for state in (p, reindex(p, [wires[i] for i in rng.permutation(len(wires))])):
        path = write(directory, "state.json", state_to_json(state))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = main(["check-ci", path, *ci_flags]), main(["check-markov", path, model])
        # the verdict word and check name of every line
        runs.append((codes, [line.split()[:2] for line in out.getvalue().splitlines()]))
    assert runs[0] == runs[1]


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_check_ci_and_markov_do_not_depend_on_the_order_of_a_carrier(
    seed, perturb, tmp_path_factory
):
    # one wire's elements are listed in another order, and its array axis
    # is permuted with them: the same state, so the same verdicts
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m, zero_frac=0.3))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    wires = list(p.wire_names)
    i = int(rng.integers(len(wires)))
    relabelled = _relabelled(p, [wires[i]], rng.permutation(p.carrier(wires[i]).size))
    x, y, *given = (wires[j] for j in rng.permutation(len(wires))[: int(rng.integers(2, 5))])
    ci_flags = ["--x", x, "--y", y] + (["--given", ",".join(given)] if given else [])
    directory = tmp_path_factory.mktemp("carrier")
    model = write(directory, "model.json", model_to_json(m))
    runs, residuals = [], []
    for state in (p, relabelled):
        path = write(directory, "state.json", state_to_json(state))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = main(["check-ci", path, *ci_flags]), main(["check-markov", path, model])
        # every line without its residual
        runs.append((codes, [line.split(" residual=")[0] for line in out.getvalue().splitlines()]))
        residuals.append([ci_residual(state, [x], [y], given), *markov_residuals(state, m)])
    assert runs[0] == runs[1]
    assert _agree_to_rounding(np.array(residuals[0]), np.array(residuals[1])), residuals


# wire names with no indices, so none decodes as a grid or sequence position
PLAIN_NAMES = ("u", "latent", "Noise", "x", "Y", "zeta", "tail", "ab")


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_check_ci_markov_and_factorize_do_not_depend_on_the_wire_names(
    seed, perturb, tmp_path_factory
):
    # one bijection renames every wire of the state and the model; the model
    # lists its wires in sorted order, so their order moves with the names
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m))
    if perturb:
        p = perturbed(rng, p, eps=1e-3)
    wires = list(p.wire_names)
    renamed = dict(zip(wires, (PLAIN_NAMES[i] for i in rng.permutation(len(PLAIN_NAMES)))))
    # a valid timing that can share a stage between boxes default_timing separates
    stages = default_timing(m).times
    t = TimingFunction({b: 2 * k - int(rng.integers(2)) for b, k in stages.items()})
    x, y, *given = (wires[i] for i in rng.permutation(len(wires))[: int(rng.integers(2, 5))])
    directory = tmp_path_factory.mktemp("names")
    timing = write(directory, "t.json", timing_to_json(t))
    runs, residuals, assignments = [], [], []
    for name in ({w: w for w in wires}, renamed):
        state = JointState.from_array(p.array, [(name[w], c) for w, c in zip(wires, p.kernel.cod)])
        model = make_model(
            Box(b.name, [name[w] for w in b.in_wires], [name[w] for w in b.out_wires])
            for b in m.boxes
        )
        path = write(directory, "state.json", state_to_json(state))
        model_path = write(directory, "model.json", model_to_json(model))
        asg_path = directory / "asg.json"
        ci_flags = ["--x", name[x], "--y", name[y]]
        ci_flags += ["--given", ",".join(name[w] for w in given)] if given else []
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = (
                main(["check-ci", path, *ci_flags]),
                main(["check-markov", path, model_path, "--timing", timing]),
                main(["factorize", path, model_path, "--timing", timing, "-o", str(asg_path)]),
            )
        # the verdict word and check name of every line
        runs.append((codes, [line.split()[:2] for line in out.getvalue().splitlines()]))
        residuals.append([
            ci_residual(state, [name[x]], [name[y]], [name[w] for w in given]),
            *markov_residuals(state, model, t),
            compatibility_residual(state, model, t),
        ])
        assignments.append(assignment_from_json(json.loads(asg_path.read_text())))
    assert runs[0] == runs[1]
    assert _agree_to_rounding(np.array(residuals[0]), np.array(residuals[1])), residuals
    before, after = assignments
    assert {renamed[w]: c for w, c in before.carriers.items()} == after.carriers
    assert before.kernels.keys() == after.kernels.keys()
    for box, k in before.kernels.items():
        assert (k.dom, k.cod) == (after.kernels[box].dom, after.kernels[box].cod)
        assert _agree_to_rounding(k.matrix, after.kernels[box].matrix), box


def _relabelled(p: JointState, wires, perm) -> JointState:
    """p with the elements of each listed wire reordered by perm, its array axis with them."""
    arr, cod = p.array, list(p.kernel.cod)
    for w in wires:
        i = p.wire_index(w)
        arr = np.take(arr, perm, axis=i)
        cod[i] = FinSet(cod[i].label, [cod[i].elements[j] for j in perm])
    return JointState.from_array(arr, list(zip(p.wire_names, cod)))


def _agree_to_rounding(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal to a relative 1e-12, or to an absolute 1e-15 where below 1e-12."""
    return bool((np.abs(a - b) <= np.maximum(1e-12 * np.maximum(np.abs(a), np.abs(b)), 1e-15)).all())


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_factorize_and_check_exchangeable_do_not_depend_on_the_wire_order(
    seed, perturb, tmp_path_factory
):
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m))
    rows, cols = [(2, 2), (2, 3), (3, 2)][int(rng.integers(3))]
    grid = build_ah_joint(random_ahspec(rng, rows, cols, hi=2))
    if perturb:
        p, grid = perturbed(rng, p, eps=1e-3), perturbed(rng, grid, eps=1e-3)
    directory = tmp_path_factory.mktemp("order")
    model = write(directory, "model.json", model_to_json(m))
    runs, kernels = [], []
    for state, entries in ((p, grid), (_shuffled(rng, p), _shuffled(rng, grid))):
        path = write(directory, "state.json", state_to_json(state))
        grid_path = write(directory, "grid.json", state_to_json(entries))
        asg_path = directory / "asg.json"
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            codes = (
                main(["factorize", path, model, "-o", str(asg_path)]),
                main(["check-exchangeable", grid_path]),
            )
        # every line without its residual
        runs.append((codes, [line.split(" residual=")[0] for line in out.getvalue().splitlines()]))
        kernels.append(assignment_from_json(json.loads(asg_path.read_text())).kernels)
    assert runs[0] == runs[1]
    assert kernels[0].keys() == kernels[1].keys()
    for box, k in kernels[0].items():
        assert (k.dom, k.cod) == (kernels[1][box].dom, kernels[1][box].cod)
        assert _agree_to_rounding(k.matrix, kernels[1][box].matrix), box


@settings(max_examples=20, derandomize=True, deadline=None)
@given(seed=hs.integers(0, 2**32 - 1), perturb=hs.booleans())
def test_factorize_and_check_exchangeable_do_not_depend_on_the_order_of_a_carrier(
    seed, perturb, tmp_path_factory
):
    # factorize sees one wire's elements reordered, check-exchangeable every
    # entry's; each array axis is permuted with its elements
    rng = np.random.default_rng(seed)
    m = random_dag_model(rng, max_boxes=5, max_wires=6)
    p = recompose(m, random_assignment(rng, m, zero_frac=0.3))
    rows, cols = [(2, 2), (2, 3), (3, 2)][int(rng.integers(3))]
    grid = build_ah_joint(random_ahspec(rng, rows, cols))
    if perturb:
        p, grid = perturbed(rng, p, eps=1e-3), perturbed(rng, grid, eps=1e-3)
    wire = p.wire_names[int(rng.integers(len(p.wire_names)))]
    perm = rng.permutation(p.carrier(wire).size)
    moved = _relabelled(p, [wire], perm)
    entries = _relabelled(grid, grid.wire_names, rng.permutation(grid.kernel.cod[0].size))
    directory = tmp_path_factory.mktemp("carrier")
    model = write(directory, "model.json", model_to_json(m))
    runs, kernels = [], []
    for state, grid_state in ((p, grid), (moved, entries)):
        path = write(directory, "state.json", state_to_json(state))
        grid_path = write(directory, "grid.json", state_to_json(grid_state))
        asg_path = directory / "asg.json"
        out, exchange = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(["factorize", path, model, "-o", str(asg_path)])
        with contextlib.redirect_stdout(exchange):
            exchange_code = main(["check-exchangeable", grid_path])
        # factorize's line without its residual, check-exchangeable's whole
        factorize_lines = [line.split(" residual=")[0] for line in out.getvalue().splitlines()]
        runs.append((code, factorize_lines, exchange_code, exchange.getvalue()))
        kernels.append(assignment_from_json(json.loads(asg_path.read_text())).kernels)
    assert runs[0] == runs[1]
    for b in m.boxes:
        k, got = kernels[0][b.name], kernels[1][b.name]
        factors = b.in_wires + b.out_wires
        assert got.dom + got.cod == tuple(moved.carrier(w) for w in factors)
        want = k.array
        if wire in factors:
            want = np.take(want, perm, axis=factors.index(wire))
        assert _agree_to_rounding(want.reshape(got.matrix.shape), got.matrix), b.name


def _shuffled(rng, p):
    return reindex(p, [p.wire_names[i] for i in rng.permutation(len(p.wire_names))])


def test_check_markov_nan_cell_is_an_input_error(tmp_path, capsys):
    p = build_ah_joint(random_ahspec(np.random.default_rng(30), 2, hi=2), True)
    doc = state_to_json(p)
    doc["rows"][0][0] = float("nan")
    state = write(tmp_path, "nan_state.json", doc)
    model = write(tmp_path, "grid.json", model_to_json(expand_ah_model(2)))
    code, out, err = run(capsys, ["check-markov", state, model])
    assert code == 2
    assert out == []
    assert "nan_state.json" in err and "non-finite" in err


def test_raised_entry_under_a_loose_atol_names_the_state(
    chain_files, tmp_path, capsys, monkeypatch
):
    model, state = chain_files
    doc = json.loads((tmp_path / "state.json").read_text())
    doc["rows"][0][0] += 5
    raised = write(tmp_path, "raised.json", doc)
    monkeypatch.setenv("FINSTOCH_ATOL", "10")
    code, out, err = run(capsys, ["check-markov", raised, model])
    assert code == 2
    assert out == []
    assert err.count("raised.json") == 1 and "row sums deviate" in err


@pytest.mark.parametrize("entry, want", [(-2e-9, 2), (-1e-9, 0)])
def test_a_negative_entry_loads_down_to_the_load_tolerance(tmp_path, capsys, entry, want):
    # x is independent of y, whose second value has no mass
    doc = {
        "dom": [],
        "cod": [{"label": "b", "elements": ["0", "1"]}] * 2,
        "rows": [[1.0 - entry, 0.0, entry, 0.0]],
        "wire_names": ["x", "y"],
    }
    state = write(tmp_path, "negative.json", doc)
    code, out, err = run(capsys, ["check-ci", state, "--x", "x", "--y", "y"])
    assert code == want
    if want == 2:
        assert out == []
        assert err.startswith(f"error: {state}: ") and "negative entry -2e-09" in err
    else:
        assert out[0].startswith("PASS ci") and err == ""


def _uniform_doc(wires, labels):
    """Uniform state doc; wire k carries the carrier named by labels[k]."""
    sizes = {"bit": 2, "trit": 3}
    n = int(np.prod([sizes[c] for c in labels]))
    return {
        "dom": [],
        "cod": [
            {"label": c, "elements": [str(i) for i in range(sizes[c])]} for c in labels
        ],
        "rows": [[1.0 / n] * n],
        "wire_names": list(wires),
    }


def test_raised_entry_under_a_loose_atol_is_rejected_at_load(
    chain_files, tmp_path, capsys, monkeypatch
):
    # inputs are validated at 1e-9 even when FINSTOCH_ATOL loosens verdicts
    model, _ = chain_files
    chain = json.loads((tmp_path / "state.json").read_text())
    chain["rows"][0][0] += 5
    grid = _uniform_doc(["S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"], ["bit"] * 4)
    grid["rows"][0][0] += 5
    monkeypatch.setenv("FINSTOCH_ATOL", "10")
    for command, doc, rest in (
        ("check-markov", chain, [model]),
        ("check-exchangeable", grid, []),
    ):
        code, out, err = run(capsys, [command, write(tmp_path, "raised.json", doc)] + rest)
        assert code == 2
        assert out == []
        assert err.count("raised.json") == 1 and "row sums deviate" in err


def test_a_strict_atol_tightens_load_validation(tmp_path, capsys, monkeypatch):
    doc = _uniform_doc(["x", "y"], ["bit", "bit"])
    doc["rows"][0][-1] += 1e-12
    state = write(tmp_path, "off.json", doc)
    argv = ["check-ci", state, "--x", "x", "--y", "y"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and out[0].startswith("PASS ci")
    monkeypatch.setenv("FINSTOCH_ATOL", "1e-13")
    code, out, err = run(capsys, argv)
    assert code == 2
    assert out == []
    assert "off.json: state.rows: row sums deviate" in err and "(atol=1e-13)" in err


def test_check_exchangeable_rejects_unequal_carriers(tmp_path, capsys):
    state = write(tmp_path, "mixed.json", _uniform_doc(["X[1]", "X[2]"], ["bit", "trit"]))
    code, out, err = run(capsys, ["check-exchangeable", state])
    assert code == 2
    assert out == []
    assert err.count("mixed.json") == 1 and "carriers differ" in err


@pytest.mark.parametrize(
    "wires, grid",
    [
        (["X[1]", "X[01]"], []),
        (["X[1]", "X[01]"], ["--grid", "1"]),
        (["X[01]", "X[2]"], []),
        (["S[1,1]", "S[1,01]", "S[1,2]"], []),
    ],
)
def test_check_exchangeable_rejects_a_position_not_named_once_canonically(
    tmp_path, capsys, wires, grid
):
    state = write(tmp_path, "named.json", _uniform_doc(wires, ["bit"] * len(wires)))
    code, out, err = run(capsys, ["check-exchangeable", state, *grid])
    assert code == 2
    assert out == []
    assert err.startswith(f"error: {state}: ")
    assert "unexpected" not in err


@pytest.mark.parametrize("grid", [[], ["--grid", "2"]])
def test_check_exchangeable_refuses_a_wire_name_with_a_trailing_newline(tmp_path, capsys, grid):
    state = write(tmp_path, "newline.json", _uniform_doc(["X[1]\n", "X[2]"], ["bit", "bit"]))
    code, out, err = run(capsys, ["check-exchangeable", state, *grid])
    assert code == 2
    assert out == []
    assert err.startswith(f"error: {state}: ")


def test_check_markov_timing_file(chain_files, tmp_path, capsys):
    model, state = chain_files
    good = write(tmp_path, "t.json", {"f1": 1, "f2": 5, "f3": 9})
    code, out, _ = run(capsys, ["check-markov", state, model, "--timing", good])
    assert code == 0
    bad = write(tmp_path, "bad_t.json", {"f1": 1, "f2": 1, "f3": 2})
    code, out, err = run(capsys, ["check-markov", state, model, "--timing", bad])
    assert code == 2
    assert "bad_t.json" in err


def test_wire_mismatch_names_both_files(chain_files, tmp_path, capsys):
    model, state = chain_files
    doc = json.loads((tmp_path / "state.json").read_text())
    doc["wire_names"] = ["X", "Y", "Q"]
    renamed = write(tmp_path, "renamed.json", doc)
    code, _, err = run(capsys, ["check-markov", renamed, model])
    assert code == 2
    assert "renamed.json" in err and "model.json" in err and "Q" in err


def test_factorize_writes_a_loadable_assignment(chain_files, tmp_path, capsys):
    model, state = chain_files
    out_path = tmp_path / "asg.json"
    code, out, _ = run(capsys, ["factorize", state, model, "-o", str(out_path)])
    assert code == 0
    assert out[0].startswith("PASS factorize-recompose residual=")
    asg = assignment_from_json(json.loads(out_path.read_text()))
    assert set(asg.kernels) == {"f1", "f2", "f3"}


def test_build_ah_writes_the_state(tmp_path, capsys):
    spec = write(
        tmp_path, "spec.json", ahspec_to_json(random_ahspec(np.random.default_rng(23), 2, hi=2))
    )
    out_path = tmp_path / "grid.json"
    code, out, _ = run(capsys, ["build-ah", spec, "-o", str(out_path)])
    assert code == 0
    assert out == ["PASS build-ah 4 wires"]
    p = state_from_json(json.loads(out_path.read_text()))
    assert sorted(p.wire_names) == ["S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"]
    code, out, _ = run(
        capsys, ["build-ah", spec, "--expose-latents", "-o", str(out_path)]
    )
    assert out == ["PASS build-ah 9 wires"]
    p = state_from_json(json.loads(out_path.read_text()))
    assert "T" in p.wire_names and "R[1]" in p.wire_names


def test_verify_ah_reports_three_lemma_lines(tmp_path, capsys):
    spec = write(
        tmp_path, "spec.json", ahspec_to_json(random_ahspec(np.random.default_rng(24), 2, hi=2))
    )
    code, out, _ = run(capsys, ["verify-ah", spec])
    assert code == 0
    assert [line.split()[1] for line in out] == [
        "ah-entries-given-tails",
        "ah-entry-vs-unrelated",
        "ah-tails-given-latent",
    ]
    rect = write(
        tmp_path,
        "rect.json",
        ahspec_to_json(random_ahspec(np.random.default_rng(25), 2, cols=3, hi=2)),
    )
    code, out, _ = run(capsys, ["verify-ah", rect])
    assert code == 0
    assert [line.split()[:2] for line in out] == [
        ["PASS", "ah-entries-given-tails"],
        ["PASS", "ah-entry-vs-unrelated"],
        ["PASS", "ah-tails-given-latent"],
    ]


def test_verify_ah_wire_cap_on_one_element_grids(tmp_path, capsys):
    six = write(tmp_path, "spec6.json", ahspec_to_json(one_element_ahspec(6)))
    code, out, _ = run(capsys, ["verify-ah", six])
    assert code == 0
    assert out == [
        "PASS ah-entries-given-tails residual=0",
        "PASS ah-entry-vs-unrelated residual=0",
        "PASS ah-tails-given-latent residual=0",
    ]
    seven = write(tmp_path, "spec7.json", ahspec_to_json(one_element_ahspec(7)))
    code, out, err = run(capsys, ["verify-ah", seven])
    assert code == 2
    assert out == []
    assert err.count("spec7.json") == 1 and "52" in err


def _definetti_doc(n):
    rng = np.random.default_rng(26)
    a = carrier("a", 2)
    x = carrier("x", 2)
    from finstoch import build_definetti_joint

    j = build_definetti_joint(random_state(rng, a), random_kernel(rng, a, x), n)
    return state_to_json(j)


def test_check_exchangeable_sequence(tmp_path, capsys):
    state = write(tmp_path, "seq.json", _definetti_doc(3))
    code, out, _ = run(capsys, ["check-exchangeable", state])
    assert code == 0
    assert len(out) == 2
    assert out[0].startswith("PASS exchange sequence-swap(1,2) residual=")
    assert out[1].startswith("PASS exchange sequence-swap(2,3) residual=")


def test_check_exchangeable_grid_and_shape_argument(tmp_path, capsys):
    rng = np.random.default_rng(27)
    from finstoch import build_ah_joint

    j = build_ah_joint(random_ahspec(rng, 2, hi=2))
    state = write(tmp_path, "grid.json", state_to_json(j))
    code, out, _ = run(capsys, ["check-exchangeable", state, "--grid", "2x2"])
    assert code == 0
    assert [line.split()[1] for line in out] == [
        "exchange",
        "exchange",
    ] and [line.split()[2].split("(")[0] for line in out] == [
        "row-swap",
        "column-swap",
    ]
    code, _, err = run(capsys, ["check-exchangeable", state, "--grid", "3"])
    assert code == 2 and "does not match" in err
    code, _, err = run(capsys, ["check-exchangeable", state, "--grid", "wide"])
    assert code == 2 and "is not MxN" in err


@pytest.mark.parametrize("grid", ["\u00b2", "\u0663"])  # a superscript two, an Arabic-Indic three
def test_check_exchangeable_reads_the_grid_in_ascii_digits_only(tmp_path, capsys, grid):
    state = write(tmp_path, "seq.json", _definetti_doc(3))
    code, out, err = run(capsys, ["check-exchangeable", state, "--grid", grid])
    assert code == 2
    assert out == []
    assert err == f"error: --grid {grid!r} is not MxN or N\n"


@pytest.mark.parametrize(
    "wires, grid, shape",
    [
        (["X[1]", "X[2]", "X[3]"], "3x1", "3 sequence"),
        (["S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"], "4", "2x2 grid"),
    ],
)
def test_a_grid_mismatch_spells_the_decoded_shape_as_the_flag_does(
    tmp_path, capsys, wires, grid, shape
):
    state = write(tmp_path, "named.json", _uniform_doc(wires, ["bit"] * len(wires)))
    code, out, err = run(capsys, ["check-exchangeable", state, "--grid", grid])
    assert code == 2
    assert out == []
    assert err == f"error: {state}: --grid {grid!r} does not match the {shape} of wire names\n"


def test_check_exchangeable_single_wire_has_no_checks(tmp_path, capsys):
    state = write(tmp_path, "one.json", _definetti_doc(1))
    code, out, _ = run(capsys, ["check-exchangeable", state])
    assert code == 0
    assert out == ["PASS (0 checks)"]


BUNDLED = [
    "independence1.json",
    "independence2.json",
    "independence3.json",
    "ah_ordered_markov.json",
]


@pytest.mark.parametrize("name", BUNDLED)
def test_replay_bundled_scripts_by_basename(name, capsys):
    code, out, _ = run(capsys, ["replay", name])
    assert code == 0
    assert out and all(line.startswith("PASS step[") for line in out)


def test_replay_explicit_path_and_failures(tmp_path, capsys):
    doc = {
        "symbols": ["x", "y", "z"],
        "axioms": [{"left": ["x", "y"], "right": ["z"]}],
        "steps": [
            {
                "rule": "decomposition",
                "premises": [0],
                "conclusion": {"left": ["x"], "right": ["z"]},
            },
            {
                "rule": "symmetry",
                "premises": [1],
                "conclusion": {"left": ["z"], "right": ["x"]},
            },
        ],
    }
    path = write(tmp_path, "proof.json", doc)
    code, out, _ = run(capsys, ["replay", path])
    assert code == 0
    assert len(out) == 2
    assert out[0] == "PASS step[0] decomposition x⊥z"
    doc["steps"][0]["conclusion"] = {"left": ["x"], "right": ["y"]}
    bad = write(tmp_path, "bad.json", doc)
    code, out, _ = run(capsys, ["replay", bad])
    assert code == 1
    assert len(out) == 1 and out[0].startswith("FAIL step[0]")


def test_replay_fails_a_decomposition_that_cites_two_premises(tmp_path, capsys):
    doc = {
        "symbols": ["x", "y", "z"],
        "axioms": [{"left": ["x", "y"], "right": ["z"]}, {"left": ["y"], "right": ["z"]}],
        # the conclusion follows from the first premise, but the rule takes one
        "steps": [
            {
                "rule": "decomposition",
                "premises": [0, 1],
                "conclusion": {"left": ["x"], "right": ["z"]},
            },
        ],
    }
    code, out, _ = run(capsys, ["replay", write(tmp_path, "proof.json", doc)])
    assert code == 1
    assert out == ["FAIL step[0] decomposition x⊥z"]


@pytest.mark.parametrize("rule", ["partition", "copy_axiom"])
def test_replay_fails_a_step_whose_rule_is_not_a_core_rule(tmp_path, capsys, rule):
    doc = {
        "symbols": ["a", "b", "c"],
        "axioms": [
            {"left": ["a", "b"], "right": ["c"]},
            {"left": ["a", "c"], "right": ["b"]},
        ],
        "steps": [
            {
                "rule": "symmetry",
                "premises": [0],
                "conclusion": {"left": ["c"], "right": ["a", "b"]},
            },
            # the split along the meet cells of both axioms, which the core
            # rules derive in several steps
            {
                "rule": rule,
                "premises": [0, 1],
                "conclusion": {"left": ["a"], "right": ["b", "c"]},
            },
        ],
    }
    code, out, _ = run(capsys, ["replay", write(tmp_path, "proof.json", doc)])
    assert code == 1
    assert out == ["PASS step[0] symmetry c⊥a,b", f"FAIL step[1] {rule} a⊥b,c"]


def test_replay_rejects_a_primed_symbol_that_is_not_declared(tmp_path, capsys):
    doc = {
        "symbols": ["x", "y", "w"],
        "axioms": [{"left": ["x"], "right": ["y"], "given": ["w"]}],
        "steps": [
            {
                "rule": "symmetry",
                "premises": [0],
                "conclusion": {"left": ["y", "w'"], "right": ["x"], "given": ["w"]},
            },
        ],
    }
    path = write(tmp_path, "primed.json", doc)
    code, out, err = run(capsys, ["replay", path])
    assert code == 2
    assert out == []
    assert err.startswith(f"error: {path}: ") and "w'" in err


def test_replay_with_no_steps(tmp_path, capsys):
    doc = {"symbols": ["x", "y"], "axioms": [{"left": ["x"], "right": ["y"]}], "steps": []}
    code, out, _ = run(capsys, ["replay", write(tmp_path, "empty.json", doc)])
    assert code == 0
    assert out == ["PASS (0 checks)"]


def test_replay_missing_script(capsys):
    code, _, err = run(capsys, ["replay", "no_such_script.json"])
    assert code == 2
    assert "no_such_script.json" in err


def test_noise_outsource_reports_and_writes(tmp_path, capsys):
    rng = np.random.default_rng(28)
    f = random_kernel(rng, carrier("a", 3), carrier("y", 4), zero_frac=0.25)
    kf = write(tmp_path, "kernel.json", kernel_to_json(f))
    out_path = tmp_path / "parts.json"
    code, out, _ = run(capsys, ["noise-outsource", kf, "-o", str(out_path)])
    assert code == 0
    assert out[0].startswith("PASS quantile-pushforward residual=")
    assert out[1].startswith("PASS seed-mechanism-composite residual=")
    doc = json.loads(out_path.read_text())
    assert set(doc) == {"quantile", "seed", "mechanism"}
    qf = quantile_from_json(doc["quantile"])
    assert qf.order == ("0", "1", "2", "3")
    code, out, _ = run(capsys, ["noise-outsource", kf, "--order", "3,1,0,2"])
    assert code == 0
    code, _, err = run(capsys, ["noise-outsource", kf, "--order", "3,1"])
    assert code == 2


def test_noise_outsource_under_a_zero_atol_reports_the_kernel_it_loaded(
    tmp_path, capsys, monkeypatch
):
    # the row sums to 1 exactly, but its cumulative sum in this order ends
    # at 1.0000000000000002, so the staircase is not held to FINSTOCH_ATOL
    row = [0.23160063354908356, 0.49807811517677786, 0.27021537038875604, 0.00010588088538266464]
    k = {"dom": [], "cod": [{"label": "v", "elements": list("abcd")}], "rows": [row]}
    kf = write(tmp_path, "k.json", k)
    monkeypatch.setenv("FINSTOCH_ATOL", "0")
    code, out, err = run(capsys, ["noise-outsource", kf, "--order", "a,c,b,d"])
    assert code == 1
    assert out == [
        "FAIL quantile-pushforward residual=5.55e-17",
        "FAIL seed-mechanism-composite residual=5.55e-17",
    ]
    assert err == ""


def test_noise_outsource_accepts_the_order_of_a_kernel_it_loaded(tmp_path, capsys):
    # the row sums to 1.0000000009999999, so it loads; its cumulative sum
    # in order a,c,d,b ends at 1.000000001, an ulp past DEFAULT_ATOL
    row = [0.06537467485105562, 0.07330586453661281, 0.2733835035134288, 0.5879359580989026]
    k = {"dom": [], "cod": [{"label": "v", "elements": list("abcd")}], "rows": [row]}
    kf = write(tmp_path, "k.json", k)
    residuals = {"a,b,c,d": "1.11e-16", "a,c,d,b": "1.11e-16", "d,c,b,a": "5.55e-17"}
    for order, r in residuals.items():
        lines = [
            f"PASS quantile-pushforward residual={r}",
            f"PASS seed-mechanism-composite residual={r}",
        ]
        assert run(capsys, ["noise-outsource", kf, "--order", order]) == (0, lines, "")
        if order == "a,c,d,b":
            continue
        # -o writes the staircase's cell lengths, not renormalised, as a seed that loads back
        out_path = tmp_path / f"{order}.json"
        argv = ["noise-outsource", kf, "--order", order, "-o", str(out_path)]
        assert run(capsys, argv) == (0, lines, "")
        seed, _ = outsourced_form(kernel_from_json(k), order.split(","))
        doc = json.loads(out_path.read_text())
        assert doc["seed"] == json.loads(json.dumps(kernel_to_json(seed)))
        assert kernel_from_json(doc["seed"]).matrix.tolist() == doc["seed"]["rows"]
    # in a,c,d,b the cells sum to 1.000000001, past the 1e-9 a kernel file is
    # read at, so -o names the kernel and writes nothing
    seed, _ = outsourced_form(kernel_from_json(k), "acdb")
    assert seed.matrix.sum() == pytest.approx(1.000000001, abs=1e-15)
    out_path = tmp_path / "a,c,d,b.json"
    code, out, err = run(capsys, ["noise-outsource", kf, "--order", "a,c,d,b", "-o", str(out_path)])
    assert (code, out) == (2, [])
    assert err == f"error: {kf}: seed.rows: row sums deviate from 1 by up to 1e-09 (atol=1e-09)\n"
    assert not out_path.exists()


def test_noise_outsource_builds_the_staircase_once(tmp_path, capsys, monkeypatch):
    import finstoch.quantiles as quantiles

    calls = []
    real = quantiles.quantile_pushback

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    # the handler imports quantile_pushback when it runs, so one patch covers it
    monkeypatch.setattr(quantiles, "quantile_pushback", counting)
    rng = np.random.default_rng(29)
    f = random_kernel(rng, carrier("a", 100), carrier("y", 8), zero_frac=0.3)
    kf = write(tmp_path, "kernel.json", kernel_to_json(f))
    order = ["7", "5", "3", "1", "0", "2", "4", "6"]
    out_path = tmp_path / "parts.json"
    for argv in (
        ["noise-outsource", kf],
        ["noise-outsource", kf, "--order", ",".join(order), "-o", str(out_path)],
    ):
        calls.clear()
        code, out, _ = run(capsys, argv)
        assert code == 0 and len(out) == 2
        assert len(calls) == 1
    # the written parts are those the library's outsourced_form builds
    seed, mech = outsourced_form(f, order)
    doc = json.loads(out_path.read_text())
    assert doc["seed"] == json.loads(json.dumps(kernel_to_json(seed)))
    assert doc["mechanism"] == json.loads(json.dumps(kernel_to_json(mech)))


def _traced_run(capsys, argv):
    tracemalloc.start()
    try:
        code, out, err = run(capsys, argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return code, out, err, peak


def test_noise_outsource_checks_a_kernel_whose_mechanism_is_past_the_cap(tmp_path, capsys):
    # the check reads the seed's cells for each input: 200 inputs by 1,405
    # cells, without the mechanism's 8 columns for each of them
    rng = np.random.default_rng(30)
    f = random_kernel(rng, carrier("a", 200), carrier("y", 8))
    kf = write(tmp_path, "dense.json", kernel_to_json(f))
    code, out, err = run(capsys, ["noise-outsource", kf])
    assert (code, err) == (0, "")
    assert [line.split()[:2] for line in out] == [
        ["PASS", "quantile-pushforward"],
        ["PASS", "seed-mechanism-composite"],
    ]


def test_noise_outsource_over_the_entry_cap_exits_2_before_the_mechanism(tmp_path, capsys):
    # 200 dense rows of 8 values cut [0,1] into about 200*7+1 seed cells, so
    # the mechanism -o writes would have 281,000 rows of 8 entries, past MAX_ENTRIES
    rng = np.random.default_rng(30)
    f = random_kernel(rng, carrier("a", 200), carrier("y", 8))
    kf = write(tmp_path, "dense.json", kernel_to_json(f))
    out_path = tmp_path / "parts.json"
    mech_bytes = 280_200 * 8 * 8
    code, out, err, peak = _traced_run(capsys, ["noise-outsource", kf, "-o", str(out_path)])
    assert code == 2
    assert out == []
    assert "dense.json" in err
    assert not out_path.exists()
    assert peak < mech_bytes / 8


def test_noise_outsource_over_the_entry_cap_exits_2_before_the_cell_table(tmp_path, capsys):
    # two values a row, all rows cut apart: 1,104 seed cells for each of
    # 1,100 inputs, a table of 1,214,400 entries, past MAX_ENTRIES
    f = random_kernel(np.random.default_rng(31), carrier("a", 1100), carrier("y", 2))
    kf = write(tmp_path, "tall.json", kernel_to_json(f))
    table_bytes = 1_214_400 * 8
    code, out, err, peak = _traced_run(capsys, ["noise-outsource", kf])
    assert code == 2
    assert out == []
    assert "tall.json" in err and "1214400 entries" in err
    assert peak < table_bytes / 8


def test_noise_outsource_fails_rows_whose_masses_one_seed_cannot_carry(tmp_path, capsys):
    # both rows load, but their masses differ by 1.8e-9; one seed is shared
    # by every input, so the lighter row receives the heavier row's last cell
    k = {
        "dom": [{"label": "x", "elements": ["0", "1"]}],
        "cod": [{"label": "v", "elements": ["0", "1"]}],
        "rows": [[0.5, 0.5000000009], [0.5, 0.4999999991]],
    }
    code, out, err = run(capsys, ["noise-outsource", write(tmp_path, "k.json", k)])
    assert (code, err) == (1, "")
    assert out[0].startswith("PASS quantile-pushforward")
    assert out[1] == "FAIL seed-mechanism-composite residual=1.8e-09"


def test_noise_outsource_rejects_booleans_among_numeric_rows(tmp_path, capsys):
    # numpy reads true as 1.0, which would load this kernel as the identity
    a = carrier("a", 2)
    doc = kernel_to_json(Kernel((a,), (a,), np.eye(2)))
    doc["rows"] = [[True, 0.0], [0.0, 1.0]]
    kf = write(tmp_path, "bools.json", doc)
    code, out, err = run(capsys, ["noise-outsource", kf])
    assert code == 2
    assert out == []
    assert "bools.json" in err and "rows" in err


def test_check_cs_lines(tmp_path, capsys):
    rng = np.random.default_rng(29)
    a, y = carrier("a", 3), carrier("y", 2)
    p = Kernel.state([0.5, 0.5, 0.0], a)
    f = random_kernel(rng, a, y)
    rows = f.matrix.copy()
    rows[2] = [1.0, 0.0]
    g = Kernel((a,), (y,), rows)
    paths = [
        write(tmp_path, "p.json", kernel_to_json(p)),
        write(tmp_path, "f.json", kernel_to_json(f)),
        write(tmp_path, "g.json", kernel_to_json(g)),
    ]
    code, out, _ = run(capsys, ["check-cs", *paths])
    assert code == 0
    assert out[0].startswith("PASS cs-antecedent residual=0")
    assert out[1].startswith("PASS cs-as-equal residual=")
    rows = f.matrix.copy()
    rows[0] = rows[0][::-1]
    h = write(tmp_path, "h.json", kernel_to_json(Kernel((a,), (y,), rows)))
    code, out, _ = run(capsys, ["check-cs", paths[0], paths[1], h])
    assert code == 1
    assert out[0].startswith("FAIL cs-antecedent")


def test_check_cs_antecedent_follows_finstoch_atol(tmp_path, capsys, monkeypatch):
    # g moves f's row 0 by 1e-7, so the pairings differ by 5e-08 > 1e-12
    a, y = carrier("a", 2), carrier("y", 2)
    f = Kernel((a,), (y,), [[0.5, 0.5], [0.3, 0.7]])
    g = Kernel((a,), (y,), [[0.5 + 1e-7, 0.5 - 1e-7], [0.3, 0.7]])
    paths = [
        write(tmp_path, "p.json", kernel_to_json(Kernel.state([0.5, 0.5], a))),
        write(tmp_path, "f.json", kernel_to_json(f)),
        write(tmp_path, "g.json", kernel_to_json(g)),
    ]
    code, out, _ = run(capsys, ["check-cs", *paths])
    assert code == 1
    assert out == ["FAIL cs-antecedent residual=5e-08", "PASS cs-as-equal residual=1e-07"]
    monkeypatch.setenv("FINSTOCH_ATOL", "1e-3")
    code, out, _ = run(capsys, ["check-cs", *paths])
    assert code == 0
    assert out == ["PASS cs-antecedent residual=5e-08", "PASS cs-as-equal residual=1e-07"]


def test_check_cs_interface_errors_name_the_files(tmp_path, capsys):
    a, y, z = carrier("a", 2), carrier("y", 2), carrier("z", 3)
    p = write(tmp_path, "p.json", kernel_to_json(Kernel.state([0.5, 0.5], a)))
    f = write(tmp_path, "f.json", kernel_to_json(Kernel((a,), (y,), [[1.0, 0.0], [0.0, 1.0]])))
    g = write(tmp_path, "g3.json", kernel_to_json(Kernel((a,), (z,), [[1.0, 0.0, 0.0]] * 2)))
    code, out, err = run(capsys, ["check-cs", p, f, g])
    assert code == 2 and out == []
    assert "g3.json" in err and "different interfaces" in err
    # a kernel with inputs passed as the state
    code, out, err = run(capsys, ["check-cs", f, f, f])
    assert code == 2 and out == []
    assert "f.json" in err and "does not land" in err


def test_cs_check_pairings_are_held_to_the_entry_cap(tmp_path, capsys):
    # each pairing has 1025**2 = 1050625 > 2**20 entries
    u, y = carrier("u", 1), carrier("Y", 1025)
    p = Kernel.state([1.0], u)
    f = Kernel((u,), (y,), np.full((1, y.size), 1 / y.size))
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimit, match="1050625 entries exceed the cap of 1048576"):
            cs_check(p, f, f)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    paths = [write(tmp_path, "p.json", kernel_to_json(p))]
    paths += [write(tmp_path, "f.json", kernel_to_json(f))] * 2
    code, out, err = run(capsys, ["check-cs", *paths])
    assert code == 2 and out == []
    assert err == f"error: {', '.join(paths)}: 1050625 entries exceed the cap of 1048576\n"


def test_unreadable_inputs_exit_2(tmp_path, capsys):
    code, _, err = run(capsys, ["validate-model", str(tmp_path / "missing.json")])
    assert code == 2 and "missing.json" in err
    garbled = tmp_path / "garbled.json"
    garbled.write_text("{ nope")
    code, _, err = run(capsys, ["validate-model", str(garbled)])
    assert code == 2 and "not valid JSON" in err


def test_atol_override(tmp_path, capsys, monkeypatch):
    state = _triple_state(tmp_path)
    monkeypatch.setenv("FINSTOCH_ATOL", "10")
    code, out, _ = run(capsys, ["check-ci", state, "--x", "x", "--y", "w"])
    assert code == 0 and out[0].startswith("PASS ci")
    monkeypatch.setenv("FINSTOCH_ATOL", "abc")
    code, _, err = run(capsys, ["check-ci", state, "--x", "x", "--y", "w"])
    assert code == 2 and "FINSTOCH_ATOL" in err


@pytest.mark.parametrize("value", ["inf", "-1", "nan"])
def test_atol_must_be_finite_and_non_negative(
    value, chain_files, tmp_path, capsys, monkeypatch
):
    model, _ = chain_files
    state = _coupled_state(tmp_path)
    monkeypatch.setenv("FINSTOCH_ATOL", value)
    code, out, err = run(capsys, ["check-markov", state, model])
    assert code == 2
    assert out == []
    assert "FINSTOCH_ATOL" in err and "finite non-negative" in err


def test_output_is_deterministic(chain_files, capsys):
    model, state = chain_files
    first = run(capsys, ["check-markov", state, model])
    second = run(capsys, ["check-markov", state, model])
    assert first == second


# Runs the command line on each argv of a JSON list in turn; prints every
# exit code and stderr after that run's stdout.
RUN_EACH = """
import contextlib, io, json, sys
from finstoch.cli import main
for argv in json.loads(sys.argv[1]):
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(argv)
    print(code, err.getvalue(), end="")
"""


def test_output_does_not_depend_on_the_hash_seed(tmp_path):
    # box a feeds b and c, and the timing puts a after both
    m = make_model([Box("a", (), ("X",)), Box("b", ("X",), ("Y",)), Box("c", ("X",), ("Z",))])
    p = recompose(m, random_assignment(np.random.default_rng(22), m))
    model = write(tmp_path, "model.json", model_to_json(m))
    state = write(tmp_path, "state.json", state_to_json(p))
    timing = write(tmp_path, "t.json", {"a": 5, "b": 1, "c": 1})
    broken = write(tmp_path, "broken.json", {
        "wires": ["X", "Y", "Y"],
        "boxes": [{"name": "a", "in": ["Y", "Q"], "out": ["X"]},
                  {"name": "b", "in": ["X"], "out": ["Y"]}],
        "outputs": ["X"],
    })
    argvs = [
        ["check-markov", state, model, "--timing", timing],
        ["check-markov", state, model],
        ["validate-model", broken],
        ["replay", "independence2.json"],
    ]
    runs = [fresh(RUN_EACH, json.dumps(argvs), PYTHONHASHSEED=seed) for seed in ("0", "1")]
    assert runs[0].returncode == 0, runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    assert b"must come before 'b'" in runs[0].stdout
