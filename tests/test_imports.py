"""What each process loads: the lazy package and per-subcommand imports.

Each check runs in a fresh interpreter, since this test session has
long since loaded every module.
"""

import ast
import inspect
import json

import pytest

import finstoch
from finstoch import expand_ah_model, model_to_json
from support import SRC, fresh

ROOT = SRC.parent
PERFBENCH = ROOT / "perfbench"

# Runs the command line on argv; the last line of stderr lists the loaded modules.
RUN_CLI = """
import json, sys
from finstoch.cli import main
code = main(sys.argv[1:])
print(json.dumps(sorted(sys.modules)), file=sys.stderr)
sys.exit(code)
"""

REPLAY_INDEPENDENCE1 = (
    "PASS step[0] symmetry C[1],R[1],S[1,1],S[1,2],S[2,1]⊥S[2,2]|C[2],R[2],T\n"
    "PASS step[1] weak_union S[1,1]⊥S[2,2]|C[1],C[2],R[1],R[2],S[1,2],S[2,1],T\n"
    "PASS step[2] symmetry C[2],R[1],S[1,1],S[1,2]⊥S[2,1]|C[1],R[2],T\n"
    "PASS step[3] weak_union S[1,1]⊥S[2,1]|C[1],C[2],R[1],R[2],S[1,2],T\n"
    "PASS step[4] symmetry C[1],R[2],S[1,1]⊥S[1,2]|C[2],R[1],T\n"
    "PASS step[5] weak_union S[1,1]⊥S[1,2]|C[1],C[2],R[1],R[2],T\n"
    "PASS step[6] contraction S[1,1]⊥S[1,2],S[2,1]|C[1],C[2],R[1],R[2],T\n"
    "PASS step[7] contraction S[1,1]⊥S[1,2],S[2,1],S[2,2]|C[1],C[2],R[1],R[2],T\n"
).encode()


def run_cli(*argv: str, cwd=None) -> tuple[int, bytes, list[str]]:
    proc = fresh(RUN_CLI, *argv, cwd=cwd)
    return proc.returncode, proc.stdout, json.loads(proc.stderr.splitlines()[-1])


def finstoch_modules(loaded: list[str]) -> set[str]:
    return {m.removeprefix("finstoch.") for m in loaded if m.startswith("finstoch.")}


def test_replay_loads_no_numpy(tmp_path):
    code, out, loaded = run_cli("replay", "independence1.json", cwd=tmp_path)
    assert code == 0
    assert out == REPLAY_INDEPENDENCE1
    assert "numpy" not in loaded
    assert finstoch_modules(loaded) == {"cli", "errors", "semigraphoid", "serialization"}


def test_validate_model_loads_no_numpy(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps(model_to_json(expand_ah_model(2))))
    code, out, loaded = run_cli("validate-model", str(path))
    assert code == 0
    assert out == b"PASS model-valid\n"
    assert "numpy" not in loaded
    assert finstoch_modules(loaded) == {"cli", "errors", "models", "serialization"}


def test_a_numeric_subcommand_loads_only_the_modules_it_runs(tmp_path):
    a, b = ({"label": label, "elements": ["0"]} for label in "AB")
    p, f = tmp_path / "p.json", tmp_path / "f.json"
    p.write_text(json.dumps({"dom": [], "cod": [a], "rows": [[1.0]]}))
    f.write_text(json.dumps({"dom": [a], "cod": [b], "rows": [[1.0]]}))
    code, out, loaded = run_cli("check-cs", str(p), str(f), str(f))
    assert code == 0
    assert out == b"PASS cs-antecedent residual=0\nPASS cs-as-equal residual=0\n"
    assert finstoch_modules(loaded) == {"cli", "errors", "kernels", "serialization"}


def test_a_bare_import_loads_no_numpy():
    proc = fresh("import json, sys, finstoch; json.dump(sorted(sys.modules), sys.stdout)")
    loaded = json.loads(proc.stdout)
    assert "numpy" not in loaded
    assert finstoch_modules(loaded) == set()


def test_star_import_binds_every_public_name():
    proc = fresh(
        "import json, sys\n"
        "from finstoch import *\n"
        "import finstoch\n"
        "json.dump([n for n in finstoch.__all__ if globals().get(n) is not getattr(finstoch, n)], sys.stdout)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []
    assert finstoch.__version__ == "0.1.0"


def test_first_access_loads_every_traced_layer():
    # the benchmark's tracer wraps functions in all of these modules at once
    proc = fresh(
        "import json, sys\n"
        f"sys.path.insert(0, {str(PERFBENCH)!r})\n"
        "from tracing import LAYERS\n"
        "import finstoch.cli\n"
        "from finstoch import kernels\n"
        "json.dump([l for l in LAYERS if f'finstoch.{l}' not in sys.modules], sys.stdout)\n"
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == []


# boolean wrappers of residuals and names only unit tests called, deleted from the API
REMOVED = (
    "check_ci",
    "check_mutual_ci",
    "check_local_markov",
    "check_ordered_markov",
    "check_compatible",
    "check_invariance",
    "as_equal",
    "parametric_as_equal",
    "verify_pushforward",
    "statement_holds",
    "CLOSURE_RULES",
    "statement_key",
    "ah_wires",
    "param_lift",
    "parametric_compose",
    "parametric_tensor",
    "check_as_invariance",
    "is_deterministic",
    "uniform_state",
    "PartitionReport",
    "reaches",
)


@pytest.mark.parametrize("name", REMOVED)
def test_removed_names_are_not_exported(name):
    assert name not in finstoch.__all__
    with pytest.raises(AttributeError):
        getattr(finstoch, name)


def test_all_is_exactly_the_exported_names():
    assert finstoch.__all__ == sorted(set().union(*finstoch._EXPORTS.values()))


# Public names with no caller outside the unit tests, each kept for its reason.
UNREFERENCED = {
    "assignment_from_json": "reads the assignment file that factorize -o writes",
    "quantile_from_json": "reads the quantile file that noise-outsource -o writes",
    "timing_to_json": "writes the timing file that check-markov --timing reads",
    "deterministic_kernel": "a public capability: the point-mass kernel of any function",
    "marginalize": "a public capability: the marginal of a JointState on named wires",
}


def referenced_names() -> set[str]:
    """Every name, attribute and import in the library, perfbench, tools and the gate."""
    files = [p for p in (SRC / "finstoch").glob("*.py") if p.name != "__init__.py"]
    files += [*PERFBENCH.glob("*.py"), *(ROOT / "tools").glob("*.py")]
    files.append(ROOT / "tests" / "test_acceptance.py")
    names = set()
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    assert set(finstoch.__all__) - referenced_names() == set(UNREFERENCED)


# Tolerances that change what is computed: input validation (Kernel and the
# JSON loaders) and the support threshold of almost-sure equality.  Verdicts
# are the caller's; no public callable takes a tolerance only to decide one.
TOLERANCE_PARAMETERS = {
    "Kernel.atol",
    "kernel_from_json.atol",
    "state_from_json.atol",
    "assignment_from_json.atol",
    "ahspec_from_json.atol",
    "as_equal_residual.atol",
    "cs_check.consequent_atol",
}


def public_signatures():
    """(qualified name, signature) of every public callable and public method; errors aside."""
    for name in finstoch.__all__:
        obj = getattr(finstoch, name)
        if not callable(obj) or inspect.isclass(obj) and issubclass(obj, Exception):
            continue
        yield name, inspect.signature(obj)
        for attr in vars(obj) if inspect.isclass(obj) else ():
            member = getattr(obj, attr)
            if not attr.startswith("_") and callable(member):
                yield f"{name}.{attr}", inspect.signature(member)


def test_only_validation_and_support_take_a_tolerance():
    found = {
        f"{qualname}.{param}"
        for qualname, sig in public_signatures()
        for param in sig.parameters
        if param.endswith("atol")
    }
    assert found == TOLERANCE_PARAMETERS
