"""Tests of the benchmark's own checks: each must catch a planted fault.

Run with ``PYTHONPATH=src python3 -m pytest perfbench`` from the
repository root.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracles  # noqa: E402
from finstoch import CIStatement, semigraphoid_closure  # noqa: E402
from workloads import rows  # noqa: E402


def _grid(rng):
    q, f, g = rows(rng, 1, 2)[0], rows(rng, 2, 2), rows(rng, 2, 2)
    h = rows(rng, 8, 2).reshape(2, 2, 2, 2)
    return oracles.ah_joint(q, f, g, h, 2, 2, expose=True), oracles.ah_names(2, 2, True)


def test_ci_oracle_passes_the_construction_and_flags_a_perturbed_joint():
    rng = np.random.default_rng(7)
    joint, names = _grid(rng)
    assert oracles.local_markov_oracle(joint, names, 2, 2) <= oracles.ATOL
    assert oracles.ordered_markov_oracle(joint, names, 2, 2) <= oracles.ATOL
    assert max(oracles.ah_lemma_oracle(joint, names, 2)) <= oracles.ATOL
    bad = joint.copy().ravel()
    bad[5] += 0.05
    bad = (bad / bad.sum()).reshape(joint.shape)
    assert oracles.local_markov_oracle(bad, names, 2, 2) > oracles.ATOL
    stmt = (["S[1,1]"], ["R[2]", "C[2]", "S[2,2]"], ["R[1]", "T", "C[1]"])
    assert oracles.ci_product_residual(joint, names, *stmt) <= oracles.ATOL
    assert oracles.ci_product_residual(bad, names, *stmt) > oracles.ATOL


def test_mutual_oracle_flags_dependent_parts():
    rng = np.random.default_rng(8)
    joint = rows(rng, 1, 8)[0].reshape(2, 2, 2)
    assert oracles.mutual_product_residual(joint, ["a", "b", "c"], [["a"], ["b"], ["c"]]) > oracles.ATOL
    independent = np.multiply.outer(np.multiply.outer([0.3, 0.7], [0.6, 0.4]), [0.1, 0.9])
    assert oracles.mutual_product_residual(independent, ["a", "b", "c"], [["a"], ["b"], ["c"]]) <= oracles.ATOL


def test_rule_checker_rejects_a_derivation_with_one_corrupted_step():
    st = lambda x, y, w=(): CIStatement(frozenset(x), frozenset(y), frozenset(w))
    chain = ["a", "b", "c", "d"]
    closure = semigraphoid_closure([st("a", "cd", "b"), st("ab", "d", "c")], chain)
    d = max((closure.derivation(s) for s in closure.statements), key=lambda d: len(d.steps))
    assert len(d.steps) > 2
    assert oracles.first_bad_step(d.axioms, d.steps) is None
    k = len(d.steps) // 2
    step = d.steps[k]
    c = step.conclusion
    wrong = st(c.left, c.right | {"x"}) if not c.given else st(c.left, c.right, c.given - {min(c.given)})
    corrupted = d.steps[:k] + (type(step)(step.rule, step.premises, wrong),) + d.steps[k + 1 :]
    assert oracles.first_bad_step(d.axioms, corrupted) == k


def test_cli_expectations_flag_a_wrong_exit_code():
    expect = oracles.Expect(0, (("PASS", "local-markov"), ("PASS", "ordered-markov")))
    good = "PASS local-markov residual=0\nPASS ordered-markov residual=0\n"
    assert oracles.cli_problems(expect, 0, good, "") == []
    assert oracles.cli_problems(expect, 1, good, "") == ["exit 1, expected 0"]


def test_cli_expectations_for_unreadable_input():
    expect = oracles.Expect(2, None, "nan_state.json")
    assert oracles.cli_problems(expect, 2, "", "error: nan_state.json: NaN entry") == []
    problems = oracles.cli_problems(expect, 1, "PASS local-markov residual=0\n", "Traceback ...")
    assert len(problems) == 4
