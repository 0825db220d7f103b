"""Regenerate the bundled derivation scripts under src/finstoch/scripts/.

Each script is a replayable proof over the nine wires of the 2x2 latent
grid: the shared latent T, row tails R[i], column tails C[j], and
entries S[i,j].  Before writing, every derivation is validated step by
step and every axiom and conclusion is checked numerically on random
latent-exposed grid joints, so the bundled files are both sound proofs
and true statements about the construction they describe.
"""

from __future__ import annotations

import json
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from finstoch import (
    AHSpec,
    CIStatement,
    Derivation,
    DerivationStep,
    FinSet,
    JointState,
    Kernel,
    build_ah_joint,
    ci_residual,
    validate_derivation,
)
from finstoch.serialization import derivation_to_json

OUT_DIR = pathlib.Path(__file__).resolve().parents[1] / "src" / "finstoch" / "scripts"

T = "T"
R1, R2 = "R[1]", "R[2]"
C1, C2 = "C[1]", "C[2]"
S11, S12, S21, S22 = "S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"
SYMBOLS = (T, R1, R2, C1, C2, S11, S12, S21, S22)
TAILS = frozenset({T, R1, R2, C1, C2})


def st(left, right, given=()) -> CIStatement:
    as_set = lambda g: frozenset([g] if isinstance(g, str) else g)
    return CIStatement(as_set(left), as_set(right), as_set(given))


def entry_independence() -> Derivation:
    """One entry is independent of the other entries given every tail.

    The axioms say each later entry is independent of everything earlier
    except its own tails, given those tails; weak union moves the spare
    symbols into the conditioning set and contraction stitches the
    entries together one at a time.
    """
    axioms = (
        st(S12, {R2, C1, S11}, {R1, T, C2}),
        st(S21, {R1, C2, S11, S12}, {R2, T, C1}),
        st(S22, {R1, C1, S11, S12, S21}, {R2, T, C2}),
    )
    steps = (
        DerivationStep("symmetry", (0,), st({R2, C1, S11}, S12, {R1, T, C2})),
        DerivationStep("weak_union", (3,), st(S11, S12, TAILS)),
        DerivationStep("symmetry", (1,), st({R1, C2, S11, S12}, S21, {R2, T, C1})),
        DerivationStep("weak_union", (5,), st(S11, S21, TAILS | {S12})),
        DerivationStep("contraction", (6, 4), st(S11, {S12, S21}, TAILS)),
        DerivationStep("symmetry", (2,), st({R1, C1, S11, S12, S21}, S22, {R2, T, C2})),
        DerivationStep("weak_union", (8,), st(S11, S22, TAILS | {S12, S21})),
        DerivationStep("contraction", (9, 7), st(S11, {S12, S21, S22}, TAILS)),
    )
    return Derivation(SYMBOLS, axioms, steps)


def entry_separation() -> Derivation:
    """One entry is independent of the unrelated row, column, and entry.

    The axioms peel the unrelated tails off one at a time given the
    shared latent; two contractions merge them, weak union localizes the
    statement to the entry, and a symmetry/decomposition coda extracts
    the diagonal-entry corollary.
    """
    axioms = (
        st({S11, R1, C1}, R2, T),
        st({S11, R1, C1}, C2, {T, R2}),
        st({S11, R1, C1}, S22, {T, R2, C2}),
    )
    steps = (
        DerivationStep("contraction", (1, 0), st({S11, R1, C1}, {R2, C2}, T)),
        DerivationStep("contraction", (2, 3), st({S11, R1, C1}, {R2, C2, S22}, T)),
        DerivationStep("weak_union", (4,), st(S11, {R2, C2, S22}, {T, R1, C1})),
        DerivationStep("symmetry", (5,), st({R2, C2, S22}, S11, {T, R1, C1})),
        DerivationStep("decomposition", (6,), st(S22, S11, {T, R1, C1})),
        DerivationStep("symmetry", (7,), st(S11, S22, {T, R1, C1})),
    )
    return Derivation(SYMBOLS, axioms, steps)


def tail_independence() -> Derivation:
    """Each tail is independent of the other three tails given the latent.

    From the row/column split and the two within-kind independences,
    contraction produces the first two singleton statements and the
    partition rule transports them across the split to the other two.
    """
    axioms = (
        st({R1, R2}, {C1, C2}, T),
        st(R1, R2, T),
        st(C1, C2, T),
    )
    steps = (
        DerivationStep("weak_union", (0,), st(R1, {C1, C2}, {T, R2})),
        DerivationStep("contraction", (3, 1), st(R1, {R2, C1, C2}, T)),
        DerivationStep("partition", (0, 4), st(R2, {R1, C1, C2}, T)),
        DerivationStep("symmetry", (0,), st({C1, C2}, {R1, R2}, T)),
        DerivationStep("weak_union", (6,), st(C1, {R1, R2}, {T, C2})),
        DerivationStep("contraction", (7, 2), st(C1, {C2, R1, R2}, T)),
        DerivationStep("partition", (6, 8), st(C2, {C1, R1, R2}, T)),
    )
    return Derivation(SYMBOLS, axioms, steps)


def ordered_markov() -> Derivation:
    """The ordered Markov conditions of the expanded 2x2 grid model.

    The axioms are the conclusions of the three independence scripts:
    tail singletons against the rest given T (which already are the
    conditions for the tail boxes), entries against the other entries
    given every tail, and entries against their unrelated tails and
    entry.  For each entry box, a symmetry/weak-union/symmetry detour
    parks the diagonal entry in the conditioning set so that contraction
    can graft the remaining entries onto the unrelated-tail statement.
    """
    l1 = {
        (1, 1): st(S11, {S12, S21, S22}, TAILS),
        (1, 2): st(S12, {S11, S21, S22}, TAILS),
        (2, 1): st(S21, {S11, S12, S22}, TAILS),
        (2, 2): st(S22, {S11, S12, S21}, TAILS),
    }
    l2 = {
        (1, 1): st(S11, {R2, C2, S22}, {R1, C1, T}),
        (1, 2): st(S12, {R2, C1, S21}, {R1, C2, T}),
        (2, 1): st(S21, {R1, C2, S12}, {R2, C1, T}),
        (2, 2): st(S22, {R1, C1, S11}, {R2, C2, T}),
    }
    l3 = (
        st(R1, {R2, C1, C2}, T),
        st(R2, {R1, C1, C2}, T),
        st(C1, {R1, R2, C2}, T),
        st(C2, {R1, R2, C1}, T),
    )
    axioms = l3 + tuple(l1[k] for k in sorted(l1)) + tuple(l2[k] for k in sorted(l2))
    index = {stmt: i for i, stmt in enumerate(axioms)}
    entries = {(1, 1): S11, (1, 2): S12, (2, 1): S21, (2, 2): S22}
    steps: list[DerivationStep] = []
    for i, j in sorted(entries):
        own = entries[i, j]
        diagonal = entries[3 - i, 3 - j]
        others = frozenset(entries.values()) - {own}
        near = others - {diagonal}
        base = len(axioms) + len(steps)
        steps += [
            DerivationStep("symmetry", (index[l1[i, j]],), st(others, own, TAILS)),
            DerivationStep("weak_union", (base,), st(near, own, TAILS | {diagonal})),
            DerivationStep("symmetry", (base + 1,), st(own, near, TAILS | {diagonal})),
            DerivationStep(
                "contraction",
                (base + 2, index[l2[i, j]]),
                st(own, l2[i, j].right | near, l2[i, j].given),
            ),
        ]
    return Derivation(SYMBOLS, axioms, tuple(steps))


def random_grid_joint(rng: np.random.Generator) -> JointState:
    """A latent-exposed 2x2 grid joint with random carriers and kernels."""

    def rand_kernel(dom, cod):
        shape = (
            int(np.prod([c.size for c in dom])) if dom else 1,
            int(np.prod([c.size for c in cod])),
        )
        mat = rng.uniform(0.05, 1.0, size=shape)
        mat /= mat.sum(axis=1, keepdims=True)
        return Kernel(tuple(dom), tuple(cod), mat)

    sizes = rng.integers(2, 4, size=4)
    a = FinSet("A", tuple(f"a{k}" for k in range(sizes[0])))
    b = FinSet("B", tuple(f"b{k}" for k in range(sizes[1])))
    c = FinSet("C", tuple(f"c{k}" for k in range(sizes[2])))
    x = FinSet("X", tuple(f"x{k}" for k in range(sizes[3])))
    spec = AHSpec(
        q=rand_kernel((), (a,)),
        f=rand_kernel((a,), (b,)),
        g=rand_kernel((a,), (c,)),
        h=rand_kernel((b, a, c), (x,)),
        rows=2,
        cols=2,
    )
    return build_ah_joint(spec, expose_latents=True)


def main() -> None:
    scripts = {
        "independence1": entry_independence(),
        "independence2": entry_separation(),
        "independence3": tail_independence(),
        "ah_ordered_markov": ordered_markov(),
    }
    rng = np.random.default_rng(20250823)
    joints = [random_grid_joint(rng) for _ in range(5)]
    for name, derivation in scripts.items():
        report = validate_derivation(derivation)
        if not report:
            raise SystemExit(f"{name}: {report.message}")
        for stmt in derivation.statements():
            for k, p in enumerate(joints):
                if not ci_residual(p, stmt.left, stmt.right, stmt.given) <= 1e-9:
                    raise SystemExit(f"{name}: false on joint {k}: {stmt}")
        path = OUT_DIR / f"{name}.json"
        path.write_text(
            json.dumps(derivation_to_json(derivation), indent=2) + "\n",
            encoding="utf-8",
        )
        print(f"wrote {path.relative_to(pathlib.Path.cwd())} "
              f"({len(derivation.axioms)} axioms, {len(derivation.steps)} steps)")


if __name__ == "__main__":
    main()
