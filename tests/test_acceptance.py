"""Acceptance gate for the whole package.

Each test covers one advertised guarantee, prints a single PASS or FAIL
line with the measured numbers, and asserts the guarantee.  Run with
``pytest tests/test_acceptance.py -s`` to see the report lines.
"""

import contextlib
import io
import time
from pathlib import Path

import numpy as np

from finstoch import (
    CIStatement,
    Kernel,
    ParamKernel,
    build_ah_joint,
    check_partition_lemma,
    ci_residual,
    compatibility_residual,
    compose,
    conditional,
    copy_kernel,
    cs_check,
    discard_kernel,
    expand_ah_model,
    grid_transpositions,
    identity,
    invariance_residual,
    local_markov_residual,
    max_abs_diff,
    ordered_markov_residual,
    parametric_cs_check,
    pushforward_residual,
    quantile_pushback,
    recompose,
    semigraphoid_closure,
    swap_kernel,
    tensor,
    verify_ah_lemmas,
)
from finstoch.cli import main as cli_main
from support import (
    block_product_joint,
    chain_joint,
    latent_blocks_joint,
    perturbed,
    random_ahspec,
    random_assignment,
    random_carrier,
    random_dag_model,
    random_joint,
    random_kernel,
    random_map,
    random_rows,
    random_state,
)


def _report(name, ok, detail=""):
    tail = f" {detail}" if detail else ""
    print(f"\n{'PASS' if ok else 'FAIL'} acceptance {name}{tail}")
    assert ok, f"acceptance {name}{tail}"


def test_category_laws():
    """Associativity, unit laws, copy/discard laws, swap naturality."""
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    worst = 0.0
    count = 0
    while count < 10_000:
        a, b, c, d = (random_carrier(rng, l, 2, 3) for l in "abcd")
        f = random_kernel(rng, a, b)
        g = random_kernel(rng, b, c)
        h = random_kernel(rng, c, d)
        worst = max(
            worst,
            max_abs_diff(compose(h, compose(g, f)), compose(compose(h, g), f)),
            max_abs_diff(compose(f, identity(a)), f),
            max_abs_diff(compose(identity(b), f), f),
        )
        x = random_carrier(rng, "x", 2, 4)
        cp = copy_kernel(x)
        worst = max(
            worst,
            max_abs_diff(
                compose(tensor(discard_kernel(x), identity(x)), cp), identity(x)
            ),
            max_abs_diff(
                compose(tensor(identity(x), discard_kernel(x)), cp), identity(x)
            ),
            max_abs_diff(
                compose(tensor(cp, identity(x)), cp),
                compose(tensor(identity(x), cp), cp),
            ),
            max_abs_diff(compose(swap_kernel(x, x), cp), cp),
        )
        u = random_map(rng, a, b)
        v = random_map(rng, c, d)
        worst = max(
            worst,
            max_abs_diff(
                compose(swap_kernel(b, d), tensor(u, v)),
                compose(tensor(v, u), swap_kernel(a, c)),
            ),
        )
        count += 8
    elapsed = time.perf_counter() - start
    _report(
        "category-laws",
        worst <= 1e-9 and elapsed < 30,
        f"instances={count} max-residual={worst:.3g} time={elapsed:.1f}s",
    )


def test_conditional_recomposition():
    """Marginal times conditional rebuilds the joint, zero rows included."""
    rng = np.random.default_rng(102)
    worst = 0.0
    trials = 1000
    for k in range(trials):
        nw = int(rng.integers(2, 5))
        p = random_joint(
            rng,
            [f"w{i}" for i in range(nw)],
            lo=2,
            hi=4,
            zero_frac=0.3 if k % 3 == 0 else 0.0,
        )
        ngiven = int(rng.integers(1, nw))
        gpos = [int(i) for i in rng.permutation(nw)[:ngiven]]
        c = conditional(p.kernel, gpos)
        perm = gpos + [i for i in range(nw) if i not in gpos]
        moved = p.array.transpose(perm).reshape(c.matrix.shape)
        mass = moved.sum(axis=1, keepdims=True)
        worst = max(worst, float(np.abs(mass * c.matrix - moved).max()))
    _report(
        "conditional-recomposition",
        worst <= 1e-9,
        f"states={trials} max-residual={worst:.3g}",
    )


def test_cs_implication():
    """Equal pairings force rowwise equality on the support, also slice-wise."""
    rng = np.random.default_rng(103)
    trials = 10_000
    plain_ok = 0
    worst_ante = 0.0
    for k in range(trials):
        a = random_carrier(rng, "a", 2, 4)
        y = random_carrier(rng, "y", 2, 4)
        p = random_state(rng, a, zero_frac=0.5)
        f = random_kernel(rng, a, y)
        rows = f.matrix.copy()
        for i in np.flatnonzero(p.matrix[0] == 0.0):
            rows[i] = random_rows(rng, 1, y.size)[0]
        rep = cs_check(p, f, Kernel((a,), (y,), rows))
        worst_ante = max(worst_ante, rep.antecedent_residual)
        plain_ok += rep.antecedent_holds and rep.consequent_holds
    par_trials = 300
    par_ok = 0
    for k in range(par_trials):
        w = random_carrier(rng, "w", 2, 3)
        a = random_carrier(rng, "a", 2, 3)
        y = random_carrier(rng, "y", 2, 3)
        p = ParamKernel(Kernel((w,), (a,), random_rows(rng, w.size, a.size, 0.5)))
        f = ParamKernel(random_kernel(rng, (a, w), y))
        rows = f.base.matrix.copy().reshape(a.size, w.size, y.size)
        for wi, ai in zip(*np.nonzero(p.base.matrix == 0.0)):
            rows[ai, wi] = random_rows(rng, 1, y.size)[0]
        g = ParamKernel(Kernel((a, w), (y,), rows.reshape(-1, y.size)))
        rep = parametric_cs_check(p, f, g)
        par_ok += rep.antecedent_holds and rep.consequent_holds
    _report(
        "cs-implication",
        plain_ok == trials and par_ok == par_trials and worst_ante <= 1e-12,
        f"plain={plain_ok}/{trials} parametric={par_ok}/{par_trials} "
        f"max-antecedent={worst_ante:.3g}",
    )


def test_semigraphoid_soundness():
    """Every closure statement of true axioms is true in the same state."""
    rng = np.random.default_rng(104)
    trials = 500
    checked = 0
    violations = 0
    for k in range(trials):
        kind = k % 3
        if kind == 0:
            p = block_product_joint(rng, [["a", "b"], ["c"], ["d"]])
            axioms = [
                CIStatement(frozenset({"a", "b"}), frozenset({"c", "d"})),
                CIStatement(frozenset({"c"}), frozenset({"d"})),
            ]
            ground = ["a", "b", "c", "d"]
        elif kind == 1:
            p = latent_blocks_joint(rng, "z", [["a"], ["b"], ["c"]])
            z = frozenset({"z"})
            axioms = [
                CIStatement(frozenset({"a"}), frozenset({"b", "c"}), z),
                CIStatement(frozenset({"b"}), frozenset({"c"}), z),
            ]
            ground = ["a", "b", "c", "z"]
        else:
            p = chain_joint(rng, ["X1", "X2", "X3", "X4"])
            axioms = [
                CIStatement(
                    frozenset({"X1"}), frozenset({"X3", "X4"}), frozenset({"X2"})
                ),
                CIStatement(
                    frozenset({"X1", "X2"}), frozenset({"X4"}), frozenset({"X3"})
                ),
            ]
            ground = ["X1", "X2", "X3", "X4"]
        for stmt in semigraphoid_closure(axioms, ground).statements:
            checked += 1
            violations += not (ci_residual(p, stmt.left, stmt.right, stmt.given) <= 1e-7)
    _report(
        "semigraphoid-soundness",
        violations == 0,
        f"trials={trials} statements={checked} violations={violations}",
    )


def test_bundled_derivations_replay():
    """The packaged derivation scripts replay without a failing step."""
    results = []
    for name in (
        "independence1.json",
        "independence2.json",
        "independence3.json",
        "ah_ordered_markov.json",
    ):
        with contextlib.redirect_stdout(io.StringIO()):
            results.append((name, cli_main(["replay", name])))
    _report(
        "bundled-replays",
        all(code == 0 for _, code in results),
        " ".join(f"{name}:exit={code}" for name, code in results),
    )


def _random_partition(rng, items, nblocks):
    labels = rng.integers(0, nblocks, len(items))
    while len(set(labels.tolist())) < nblocks:
        labels = rng.integers(0, nblocks, len(items))
    return [[w for w, l in zip(items, labels) if l == b] for b in range(nblocks)]


def test_partition_lemma():
    """Two jointly independent partitions make their refinement independent."""
    rng = np.random.default_rng(106)
    trials = 500
    all_ok = True
    worst_premise = 0.0
    for k in range(trials):
        wires = ["a", "b", "c", "d"][: int(rng.integers(3, 5))]
        if k % 2:
            p = latent_blocks_joint(rng, "z", [[w] for w in wires])
            given = ["z"]
        else:
            p = block_product_joint(rng, [[w] for w in wires])
            given = []
        b1 = _random_partition(rng, wires, 2)
        b2 = _random_partition(rng, wires, int(rng.integers(2, len(wires) + 1)))
        residuals = check_partition_lemma(p, b1, b2, given)
        worst_premise = max(worst_premise, residuals[0], residuals[1])
        all_ok = all_ok and max(residuals) <= 1e-9
    _report(
        "partition-lemma",
        all_ok and worst_premise <= 1e-12,
        f"instances={trials} worst-premise-residual={worst_premise:.3g}",
    )


def test_markov_equivalence():
    """Compatible, locally Markov and ordered Markov agree on every state."""
    rng = np.random.default_rng(107)
    start = time.perf_counter()
    trials = 1000
    atol = 1e-7
    agree = 0
    worst_fact = 0.0
    for k in range(trials):
        m = random_dag_model(rng, max_boxes=4, max_wires=5)
        asg = random_assignment(
            rng, m, lo=2, hi=3, zero_frac=0.3 if k % 4 == 0 else 0.0
        )
        p = recompose(m, asg)
        compatible = k % 2 == 0
        if not compatible:
            p = perturbed(rng, p, eps=0.05)
        local = local_markov_residual(p, m) <= atol
        ordered = ordered_markov_residual(p, m) <= atol
        r = compatibility_residual(p, m)
        agree += local == ordered == (r <= atol)
        if compatible:
            worst_fact = max(worst_fact, r)
    elapsed = time.perf_counter() - start
    _report(
        "markov-equivalence",
        agree == trials and worst_fact <= 1e-9 and elapsed < 120,
        f"trials={trials} agree={agree} "
        f"worst-compatible-residual={worst_fact:.3g} time={elapsed:.1f}s",
    )


def test_latent_grid_suite():
    """Grid joints are exchangeable, fit the expanded model, and separate."""
    rng = np.random.default_rng(108)
    start = time.perf_counter()
    trials = 100
    worst_inv = 0.0
    all_ok = True
    for k in range(trials):
        n = 1 + k % 3
        spec = random_ahspec(rng, n, hi=3 if n < 3 else 2)
        j = build_ah_joint(spec)
        worst_inv = max(worst_inv, invariance_residual(j, grid_transpositions(n, n)))
        jl = build_ah_joint(spec, expose_latents=True)
        all_ok = all_ok and ordered_markov_residual(jl, expand_ah_model(n)) <= 1e-9
        rep = verify_ah_lemmas(spec)
        all_ok = (
            all_ok
            and rep.entries_independent
            and rep.entry_separated
            and rep.tails_independent
        )
    elapsed = time.perf_counter() - start
    _report(
        "latent-grid-suite",
        all_ok and worst_inv <= 1e-9 and elapsed < 120,
        f"specs={trials} max-invariance-residual={worst_inv:.3g} "
        f"time={elapsed:.1f}s",
    )


def test_noise_outsourcing():
    """Cell lengths reproduce rows; lookups are monotone into the carrier."""
    rng = np.random.default_rng(109)
    trials = 1000
    worst = 0.0
    mono_ok = True
    for k in range(trials):
        y = random_carrier(rng, "y", 2, 8)
        a = random_carrier(rng, "a", 1, 5)
        f = random_kernel(rng, a, y, zero_frac=0.4 if k % 2 else 0.0)
        order = tuple(rng.permutation(y.elements))
        qf = quantile_pushback(f, order)
        worst = max(worst, pushforward_residual(qf, f))
        rank = {v: i for i, v in enumerate(order)}
        for row in range(len(qf.rows)):
            picks = [qf.value_at(row, float(r)) for r in np.linspace(1e-9, 1.0, 9)]
            ranks = [rank[v] for v in picks]
            mono_ok = (
                mono_ok
                and all(v in y.elements for v in picks)
                and ranks == sorted(ranks)
            )
    _report(
        "noise-outsourcing",
        worst <= 1e-12 and mono_ok,
        f"kernels={trials} max-residual={worst:.3g}",
    )


def test_finite_scope_note_is_documented():
    """The README states what finite runs cannot decide and what stands in."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    text = readme.read_text(encoding="utf-8")
    ok = (
        "not decided by any finite computation" in text
        and "finite truncations" in text
        and "symbolic replay" in text
    )
    _report("scope-note", ok, "README.md states the finite-truncation scope")
