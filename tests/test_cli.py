"""Command line contract: report lines, exit codes, file handling."""

import json
import tracemalloc

import numpy as np
import pytest

from finstoch import (
    Box,
    Kernel,
    ahspec_to_json,
    assignment_from_json,
    build_ah_joint,
    expand_ah_model,
    kernel_to_json,
    make_model,
    model_to_json,
    outsourced_form,
    quantile_from_json,
    recompose,
    state_from_json,
    state_to_json,
)
from finstoch.cli import main
from support import (
    carrier,
    one_element_ahspec,
    random_ahspec,
    random_assignment,
    random_kernel,
    random_state,
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


def test_check_markov_single_property_flags(chain_files, capsys):
    model, state = chain_files
    for flag, name in (("--local", "local-markov"), ("--ordered", "ordered-markov")):
        code, out, _ = run(capsys, ["check-markov", state, model, flag])
        assert code == 0
        assert len(out) == 1 and out[0].startswith(f"PASS {name}")
    with pytest.raises(SystemExit):
        main(["check-markov", state, model, "--local", "--ordered"])


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


def test_check_markov_detects_incompatible_states(chain_files, tmp_path, capsys):
    model, _ = chain_files
    state = _coupled_state(tmp_path)
    code, out, _ = run(capsys, ["check-markov", state, model])
    assert code == 1
    assert all(line.startswith("FAIL") for line in out)


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
        ("check-markov", chain, [model, "--local"]),
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
    code, _, err = run(capsys, ["verify-ah", rect])
    assert code == 2 and "error:" in err


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


def test_noise_outsource_over_the_entry_cap_exits_2_before_the_mechanism(tmp_path, capsys):
    # 200 dense rows of 8 values cut [0,1] into 200*7+1 seed cells, so the
    # mechanism would have 280,200 rows of 8 entries, past MAX_ENTRIES
    rng = np.random.default_rng(30)
    f = random_kernel(rng, carrier("a", 200), carrier("y", 8))
    kf = write(tmp_path, "dense.json", kernel_to_json(f))
    mech_bytes = 280_200 * 8 * 8
    tracemalloc.start()
    try:
        code, out, err = run(capsys, ["noise-outsource", kf])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert out == []
    assert "dense.json" in err
    assert peak < mech_bytes / 8


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
