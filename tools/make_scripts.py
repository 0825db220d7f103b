"""Regenerate the bundled derivation scripts under src/finstoch/scripts/.

Each script is a replayable proof over the nine wires of the 2x2 latent
grid: the shared latent T, row tails R[i], column tails C[j], and
entries S[i,j].  A script is stated as axioms and goals only; its steps
are the semigraphoid closure's derivation of the goals from the axioms,
so a change to the closure that moves a derivation changes the files.
The grid's lemma families come from its box list, as ``verify-ah``'s
do, and ``ah_ordered_markov``'s goals from its model; only the peeling
axioms of ``independence1``-``3`` are written here.
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
    default_timing,
    expand_ah_model,
    past,
    semigraphoid_closure,
    validate_derivation,
)
from finstoch.exchange import _ah_families
from finstoch.markov import _screening_off
from finstoch.serialization import derivation_to_json

OUT_DIR = ROOT / "src" / "finstoch" / "scripts"

T = "T"
R1, R2 = "R[1]", "R[2]"
C1, C2 = "C[1]", "C[2]"
S11, S12, S21, S22 = "S[1,1]", "S[1,2]", "S[2,1]", "S[2,2]"
MODEL = expand_ah_model(2)  # its wires are sorted; the closure sorts its ground set anyway


def st(left, right, given=()) -> CIStatement:
    as_set = lambda g: frozenset([g] if isinstance(g, str) else g)
    return CIStatement(as_set(left), as_set(right), as_set(given))


def binary(family) -> tuple[CIStatement, ...]:
    """Each part of each member against the rest; a two-part member's second is a mirror."""
    return tuple(
        st(x, set().union(*(y for y in parts if y is not x)), given)
        for parts, given in family
        for x in (parts[:1] if len(parts) == 2 else parts)
    )


# each entry against the other entries given every tail; each entry against its
# unrelated tails and entry given its own; each tail against the others given T
ENTRY_SPLITS, ENTRY_SEPARATIONS, TAIL_SPLITS = map(binary, _ah_families(2, 2))
# per box of the model: its outputs against the earlier wires, given its inputs
ORDERED_MARKOV = binary(_screening_off(MODEL, past(MODEL, default_timing(MODEL))))
SPLIT, SEPARATED = ENTRY_SPLITS[0], ENTRY_SEPARATIONS[0]

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
        (SPLIT,),
    ),
    # one entry is independent of the unrelated row, column and entry given its own
    # tails, and so of that entry, from axioms that peel the unrelated tails off one at a time
    "independence2": (
        (
            st({S11, R1, C1}, R2, T),
            st({S11, R1, C1}, C2, {T, R2}),
            st({S11, R1, C1}, S22, {T, R2, C2}),
        ),
        (SEPARATED, st(SEPARATED.left, SEPARATED.right & SPLIT.right, SEPARATED.given)),
    ),
    # the tail splits, from the row/column split and the two within-kind ones
    "independence3": (
        (st({R1, R2}, {C1, C2}, T), st(R1, R2, T), st(C1, C2, T)),
        TAIL_SPLITS,
    ),
    # the model's ordered Markov statements from the lemma families; its tail boxes' are axioms
    "ah_ordered_markov": (TAIL_SPLITS + ENTRY_SPLITS + ENTRY_SEPARATIONS, ORDERED_MARKOV),
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
        derivation = semigraphoid_closure(axioms, MODEL.wires).derivation(*goals)
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
