"""Regenerate the bundled derivation scripts under src/finstoch/scripts/.

Each script is a replayable proof over the nine wires of the 2x2 latent
grid: the shared latent T, row tails R[i], column tails C[j], and
entries S[i,j].  A script is stated as axioms and goals only; its steps
are the semigraphoid closure's derivation of the goals from the axioms,
so a change to the closure that moves a derivation changes the files.
Before writing, every derivation is validated step by step and every
axiom and conclusion is checked numerically on random latent-exposed
grid joints, so the bundled files are both sound proofs and true
statements about the construction they describe.
"""

from __future__ import annotations

import json
import math
import pathlib
import sys

import numpy as np

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from finstoch import (
    AHSpec,
    CIStatement,
    FinSet,
    JointState,
    Kernel,
    build_ah_joint,
    ci_residual,
    semigraphoid_closure,
    validate_derivation,
)
from finstoch.serialization import derivation_to_json

OUT_DIR = ROOT / "src" / "finstoch" / "scripts"

T = "T"
R1, R2 = "R[1]", "R[2]"
C1, C2 = "C[1]", "C[2]"
S11, S12, S21, S22 = "S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"
SYMBOLS = (T, R1, R2, C1, C2, S11, S12, S21, S22)
TAILS = frozenset({T, R1, R2, C1, C2})


def st(left, right, given=()) -> CIStatement:
    as_set = lambda g: frozenset([g] if isinstance(g, str) else g)
    return CIStatement(as_set(left), as_set(right), as_set(given))


# each tail is independent of the other three tails given the latent
TAIL_SPLITS = tuple(st(x, TAILS - {x, T}, T) for x in (R1, R2, C1, C2))


def ordered_markov() -> tuple[tuple[CIStatement, ...], tuple[CIStatement, ...]]:
    """The ordered Markov conditions of the expanded 2x2 grid model.

    The axioms are the conclusions of the three independence scripts:
    the tail splits (which already are the conditions for the tail
    boxes), each entry against the other entries given every tail, and
    each entry against its unrelated tails and entry given its own.  The
    goal for each entry box adds the other entries to the latter.
    """
    entries = {(i, j): f"S[{i},{j}]" for i in (1, 2) for j in (1, 2)}
    own = {(i, j): {f"R[{i}]", f"C[{j}]", T} for i, j in entries}
    others = {k: set(entries.values()) - {e} for k, e in entries.items()}
    unrelated = {
        (i, j): {f"R[{3 - i}]", f"C[{3 - j}]", entries[3 - i, 3 - j]} for i, j in entries
    }
    axioms = (
        TAIL_SPLITS
        + tuple(st(e, others[k], TAILS) for k, e in entries.items())
        + tuple(st(e, unrelated[k], own[k]) for k, e in entries.items())
    )
    return axioms, tuple(st(e, unrelated[k] | others[k], own[k]) for k, e in entries.items())


# Each script is its axioms, then the goals the closure derives from them.
SCRIPTS = {
    # one entry is independent of the other entries given every tail, since
    # each later entry is independent of all earlier but its own tails given those
    "independence1": (
        (
            st(S12, {R2, C1, S11}, {R1, T, C2}),
            st(S21, {R1, C2, S11, S12}, {R2, T, C1}),
            st(S22, {R1, C1, S11, S12, S21}, {R2, T, C2}),
        ),
        (st(S11, {S12, S21, S22}, TAILS),),
    ),
    # one entry is independent of the unrelated row, column and entry given its
    # own tails, from axioms that peel the unrelated tails off one at a time
    "independence2": (
        (
            st({S11, R1, C1}, R2, T),
            st({S11, R1, C1}, C2, {T, R2}),
            st({S11, R1, C1}, S22, {T, R2, C2}),
        ),
        (st(S11, {R2, C2, S22}, {T, R1, C1}), st(S11, S22, {T, R1, C1})),
    ),
    # the tail splits, from the row/column split and the two within-kind ones
    "independence3": (
        (st({R1, R2}, {C1, C2}, T), st(R1, R2, T), st(C1, C2, T)),
        TAIL_SPLITS,
    ),
    "ah_ordered_markov": ordered_markov(),
}


def random_grid_joint(rng: np.random.Generator) -> JointState:
    """A latent-exposed 2x2 grid joint with random carriers and kernels."""

    def rand_kernel(dom, cod):
        shape = (math.prod(c.size for c in dom), math.prod(c.size for c in cod))
        mat = rng.uniform(0.05, 1.0, size=shape)
        return Kernel(dom, cod, mat / mat.sum(axis=1, keepdims=True))

    sizes = rng.integers(2, 4, size=4)
    a, b, c, x = (
        FinSet(label, tuple(f"{label.lower()}{k}" for k in range(n)))
        for label, n in zip("ABCX", sizes)
    )
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
    rng = np.random.default_rng(20250823)
    joints = [random_grid_joint(rng) for _ in range(5)]
    for name, (axioms, goals) in SCRIPTS.items():
        derivation = semigraphoid_closure(axioms, SYMBOLS).derivation(*goals)
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
        print(f"wrote {path.relative_to(ROOT)} "
              f"({len(derivation.axioms)} axioms, {len(derivation.steps)} steps)")


if __name__ == "__main__":
    main()
