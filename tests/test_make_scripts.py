"""tools/make_scripts.py states what the bundled derivation scripts prove."""

import json
import sys
from importlib import resources
from pathlib import Path

import pytest

from finstoch import derivation_from_json

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tools"))
import make_scripts  # noqa: E402


def _bundled(name):
    path = resources.files("finstoch") / "scripts" / f"{name}.json"
    return derivation_from_json(json.loads(path.read_text()))


@pytest.mark.parametrize("name", sorted(make_scripts.SCRIPTS))
def test_a_bundled_script_has_the_tools_axioms_and_derives_its_goals(name):
    # no closure runs here; the regeneration itself is checked by rerunning the tool
    axioms, goals = make_scripts.SCRIPTS[name]
    d = _bundled(name)
    assert axioms == d.axioms
    derived = set(d.statements())
    assert [g for g in goals if g not in derived] == []
