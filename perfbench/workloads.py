"""The four workloads: inputs drawn from a seed, timed jobs, untimed checks.

A workload hands out rounds of operations.  Each :class:`Op` has a
``run`` that the harness times and a ``check`` that it does not; the
check returns the list of ways the output is wrong.  Every round of a
workload has the same operations at the same input sizes; only the
drawn values change with the round (``grid``, ``algebra``, ``closure``)
or with the seed (``cli``, whose inputs are JSON files written at
set-up).
"""

from __future__ import annotations

import json
import subprocess
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from time import perf_counter
from typing import Any, Callable

import numpy as np

import finstoch as fs
from finstoch import serialization as ser

import oracles
from oracles import ATOL, Expect

BUNDLED = (
    "independence1.json",
    "independence2.json",
    "independence3.json",
    "ah_ordered_markov.json",
)


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], list[str]]
    known_fault: bool = False


def rows(rng, n: int, m: int, zero_frac: float = 0.0) -> np.ndarray:
    """Row-stochastic n x m matrix; planted zeros leave one entry per row."""
    mat = rng.uniform(0.05, 1.0, size=(n, m))
    if zero_frac:
        mask = rng.random((n, m)) < zero_frac
        mask[np.arange(n), rng.integers(m, size=n)] = False
        mat[mask] = 0.0
    return mat / mat.sum(axis=1, keepdims=True)


def carrier(label: str, size: int) -> fs.FinSet:
    return fs.FinSet(label, tuple(f"{label.lower()}{k}" for k in range(size)))


def verdict(residual: float) -> bool:
    return residual <= ATOL


def _agree(problems, what, library, oracle, expected):
    if library != oracle:
        problems.append(f"{what}: library says {library}, oracle says {oracle}")
    if oracle != expected:
        problems.append(f"{what}: oracle says {oracle}, construction says {expected}")


def _close(problems, what, got, want, atol):
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=atol):
        problems.append(f"{what}: differs from the reference")


# ---------------------------------------------------------------------------
# grid: latent-grid constructions at two sizes and one exchangeable sequence

GRID_SIZES = ((2, 3), (3, 2))  # (grid side, carrier size): 3^9 and 2^16 entries
SEQ_LATENT, SEQ_VALUES, SEQ_LEN = 3, 3, 8  # 3 * 3^8 entries with the latent


class Grid:
    def __init__(self, seed: int):
        self.seed = seed

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        grids = []
        for n, k in GRID_SIZES:
            q, f, g = rows(rng, 1, k)[0], rows(rng, k, k), rows(rng, k, k)
            h = rows(rng, k**3, k).reshape(k, k, k, k)
            joint = oracles.ah_joint(q, f, g, h, n, n, expose=True)
            bad = joint.copy().ravel()
            bad[rng.integers(bad.size)] += 0.05
            grids.append((n, k, q, f, g, h, joint, (bad / bad.sum()).reshape(joint.shape)))
        sq, sf = rows(rng, 1, SEQ_LATENT)[0], rows(rng, SEQ_LATENT, SEQ_VALUES)
        inputs = (grids, sq, sf)
        return [Op("grid", lambda: self.run(inputs), lambda out: self.check(inputs, out))]

    @staticmethod
    def run(inputs):
        grids, sq, sf = inputs
        out = []
        for n, k, q, f, g, h, _, bad in grids:
            a, b, c, x = (carrier(lbl, k) for lbl in "ABCX")
            spec = fs.AHSpec(
                fs.Kernel.state(q, a),
                fs.Kernel((a,), (b,), f),
                fs.Kernel((a,), (c,), g),
                fs.Kernel((b, a, c), (x,), h.reshape(k**3, k)),
                n,
                n,
            )
            p = fs.build_ah_joint(spec, expose_latents=True)
            s = fs.build_ah_joint(spec)
            model = fs.expand_ah_model(n)
            wires = list(zip(p.wire_names, p.kernel.cod))
            perturbed = fs.JointState.from_array(bad, wires)
            out.append(
                dict(
                    p=p,
                    s=s,
                    lemmas=fs.verify_ah_lemmas(spec),
                    local=fs.local_markov_residual(p, model),
                    ordered=fs.ordered_markov_residual(p, model),
                    compatible=fs.compatibility_residual(p, model),
                    invariance=fs.invariance_residual(s, fs.grid_transpositions(n, n)),
                    perturbed_local=fs.local_markov_residual(perturbed, model),
                )
            )
        a, x = carrier("A", SEQ_LATENT), carrier("X", SEQ_VALUES)
        qk, fk = fs.Kernel.state(sq, a), fs.Kernel((a,), (x,), sf)
        d = fs.build_definetti_joint(qk, fk, SEQ_LEN, expose_latent=True)
        parts = [[w] for w in d.wire_names[1:]]
        ds = fs.build_definetti_joint(qk, fk, SEQ_LEN)
        seq = dict(
            d=d,
            ds=ds,
            mutual=fs.mutual_ci_residual(d, parts, ["A"]),
            invariance=fs.invariance_residual(
                ds, fs.adjacent_transpositions(SEQ_LEN, "sequence")
            ),
        )
        return out, seq

    @staticmethod
    def check(inputs, output) -> list[str]:
        grids, sq, sf = inputs
        out, seq = output
        problems: list[str] = []
        for (n, k, q, f, g, h, joint, bad), res in zip(grids, out):
            tag = f"{n}x{n} grid"
            names = oracles.ah_names(n, n, True)
            if list(res["p"].wire_names) != names:
                problems.append(f"{tag}: wire names {res['p'].wire_names}")
            _close(problems, f"{tag} joint", res["p"].array, joint, 1e-12)
            entries = oracles.ah_joint(q, f, g, h, n, n, expose=False)
            _close(problems, f"{tag} entries", res["s"].array, entries, 1e-12)
            lemmas = oracles.ah_lemma_oracle(joint, names, n)
            lib = (
                res["lemmas"].entries_independent,
                res["lemmas"].entry_separated,
                res["lemmas"].tails_independent,
            )
            for what, got, r in zip(("entries", "separated", "tails"), lib, lemmas):
                _agree(problems, f"{tag} lemma {what}", got, verdict(r), True)
            local = verdict(oracles.local_markov_oracle(joint, names, n, n))
            _agree(problems, f"{tag} local", verdict(res["local"]), local, True)
            ordered = verdict(oracles.ordered_markov_oracle(joint, names, n, n))
            _agree(problems, f"{tag} ordered", verdict(res["ordered"]), ordered, True)
            # the three Markov predicates agree on valid models
            _agree(problems, f"{tag} compatible", verdict(res["compatible"]), local, True)
            swap = verdict(oracles.grid_swap_residual(entries, n, n))
            _agree(problems, f"{tag} invariance", verdict(res["invariance"]), swap, True)
            bad_local = verdict(oracles.local_markov_oracle(bad, names, n, n))
            _agree(problems, f"{tag} perturbed local", verdict(res["perturbed_local"]), bad_local, False)
        names = ["A"] + [f"X[{i}]" for i in range(1, SEQ_LEN + 1)]
        d = oracles.definetti_joint(sq, sf, SEQ_LEN, expose=True)
        if list(seq["d"].wire_names) != names:
            problems.append(f"sequence wire names {seq['d'].wire_names}")
        _close(problems, "sequence joint", seq["d"].array, d, 1e-12)
        _close(problems, "sequence entries", seq["ds"].array, d.sum(axis=0), 1e-12)
        mutual = oracles.mutual_product_residual(d, names, [[w] for w in names[1:]], ["A"])
        _agree(problems, "sequence mutual", verdict(seq["mutual"]), verdict(mutual), True)
        swap = verdict(oracles.sequence_swap_residual(d.sum(axis=0)))
        _agree(problems, "sequence invariance", verdict(seq["invariance"]), swap, True)
        return problems


# ---------------------------------------------------------------------------
# algebra: pairing check, noise outsourcing, structure maps

CS_STATE, CS_OUT, CS_PARAM = 64, 8, 2
OUTSOURCE_IN, OUTSOURCE_OUT = 40, 6
ID_SIZE, COPY_SIZE, SWAP_SIZES = 300, 100, (20, 15)


def _pairing(p, u, v) -> np.ndarray:
    """sum_x p(x) u(x,a) v(x,b), the pairing of u and v against p."""
    return (p[:, None] * u).T @ v


def _cs_reference(p, f, g) -> tuple[float, float]:
    """Antecedent and consequent residuals of the pairing check."""
    ff, fg, gg = _pairing(p, f, f), _pairing(p, f, g), _pairing(p, g, g)
    ante = max(np.abs(ff - fg).max(), np.abs(fg - gg).max(), np.abs(ff - gg).max())
    support = p > 1e-6
    cons = np.abs(f[support] - g[support]).max() if support.any() else 0.0
    return float(ante), float(cons)


def _cs_agree(problems, what, rep, ref, expected):
    ante, cons = ref
    _agree(problems, what, (rep.antecedent_holds, rep.consequent_holds), (ante <= 1e-12, cons <= 1e-6), expected)
    got = (rep.antecedent_residual, rep.consequent_residual)
    if not np.allclose(got, ref, rtol=1e-9, atol=1e-15):
        problems.append(f"{what}: residuals {got}, reference {ref}")


class Algebra:
    def __init__(self, seed: int):
        self.seed = seed
        self.id_set = carrier("I", ID_SIZE)
        self.copy_set = carrier("K", COPY_SIZE)
        self.swap_sets = (carrier("L", SWAP_SIZES[0]), carrier("M", SWAP_SIZES[1]))

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        p = rows(rng, 1, CS_STATE, zero_frac=0.3)[0]
        f = rows(rng, CS_STATE, CS_OUT)
        on = np.flatnonzero(p > 0)
        off = np.flatnonzero(p == 0)
        g_on = f.copy()
        g_on[rng.choice(on)] = rows(rng, 1, CS_OUT)[0]
        g_off = f.copy()
        g_off[off] = rows(rng, off.size, CS_OUT)
        pp = rows(rng, CS_PARAM, CS_STATE, zero_frac=0.3)
        pf = rows(rng, CS_STATE * CS_PARAM, CS_OUT)
        pg = pf.copy()
        dead = (pp.T == 0).ravel()  # base row x * CS_PARAM + w is off slice w's support
        pg[dead] = rows(rng, int(dead.sum()), CS_OUT)
        k = rows(rng, OUTSOURCE_IN, OUTSOURCE_OUT, zero_frac=0.3)
        order = [f"v{i}" for i in rng.permutation(OUTSOURCE_OUT)]
        inputs = dict(p=p, f=f, g=(f, g_on, g_off), pp=pp, pf=pf, pg=pg, k=k, order=order)
        return [Op("algebra", lambda: self.run(inputs), lambda out: self.check(inputs, out))]

    def run(self, inputs):
        x, y, w = carrier("X", CS_STATE), carrier("Y", CS_OUT), carrier("W", CS_PARAM)
        p = fs.Kernel.state(inputs["p"], x)
        f = fs.Kernel((x,), (y,), inputs["f"])
        cs = [fs.cs_check(p, f, fs.Kernel((x,), (y,), g)) for g in inputs["g"]]
        pcs = fs.parametric_cs_check(
            fs.ParamKernel(fs.Kernel((w,), (x,), inputs["pp"])),
            fs.ParamKernel(fs.Kernel((x, w), (y,), inputs["pf"])),
            fs.ParamKernel(fs.Kernel((x, w), (y,), inputs["pg"])),
        )
        d, v = carrier("D", OUTSOURCE_IN), carrier("V", OUTSOURCE_OUT)
        k = fs.Kernel((d,), (v,), inputs["k"])
        qf = fs.quantile_pushback(k, inputs["order"])
        seed, mech = fs.outsourced_form(k, inputs["order"])
        composite = fs.compose(mech, fs.tensor(seed, fs.identity(k.dom)))
        return dict(
            cs=cs,
            pcs=pcs,
            qf=qf,
            push=fs.pushforward_residual(qf, k),
            seed=seed,
            mech=mech,
            composite=fs.max_abs_diff(composite, k),
            identity=fs.identity(self.id_set),
            copy=fs.copy_kernel(self.copy_set),
            swap=fs.swap_kernel(*self.swap_sets),
        )

    @staticmethod
    def check(inputs, out) -> list[str]:
        problems: list[str] = []
        p, f = inputs["p"], inputs["f"]
        want = ((True, True), (False, False), (True, True))
        for case, rep, g, expected in zip(("g=f", "on support", "off support"), out["cs"], inputs["g"], want):
            _cs_agree(problems, f"cs {case}", rep, _cs_reference(p, f, g), expected)
        pp, pf, pg = inputs["pp"], inputs["pf"], inputs["pg"]
        slices = [_cs_reference(pp[w], pf[w::CS_PARAM], pg[w::CS_PARAM]) for w in range(CS_PARAM)]
        ref = (max(a for a, _ in slices), max(c for _, c in slices))
        _cs_agree(problems, "parametric cs", out["pcs"], ref, (True, True))

        k, order = inputs["k"], inputs["order"]
        col = {f"v{i}": i for i in range(OUTSOURCE_OUT)}
        worst = 0.0
        for row, probs in zip(out["qf"].rows, k):
            lengths = np.zeros(OUTSOURCE_OUT)
            uppers = [0.0] + [bp.upper for bp in row]
            for bp, length in zip(row, np.diff(uppers)):
                lengths[col[bp.value]] = length
            worst = max(worst, float(np.abs(lengths - probs).max()))
        for what, r in (("pushforward", out["push"]), ("pushforward reference", worst)):
            if not r <= 1e-12:
                problems.append(f"{what} residual {r:g} > 1e-12")
        seed = out["seed"].matrix[0]
        mech = out["mech"].matrix.reshape(seed.size, OUTSOURCE_IN, OUTSOURCE_OUT)
        if not np.isin(mech, (0.0, 1.0)).all():
            problems.append("mechanism is not deterministic")
        composite = np.einsum("u,uxy->xy", seed, mech)
        for what, r in (("composite", out["composite"]), ("composite reference", float(np.abs(composite - k).max()))):
            if not r <= 1e-12:
                problems.append(f"{what} residual {r:g} > 1e-12")

        n = COPY_SIZE
        copy = np.zeros((n, n * n))
        copy[np.arange(n), np.arange(n) * (n + 1)] = 1.0
        a, b = SWAP_SIZES
        swap = np.zeros((a * b, b * a))
        ia, ib = np.meshgrid(np.arange(a), np.arange(b), indexing="ij")
        swap[(ia * b + ib).ravel(), (ib * a + ia).ravel()] = 1.0
        for what, got, ref in (
            ("identity", out["identity"].matrix, np.eye(ID_SIZE)),
            ("copy", out["copy"].matrix, copy),
            ("swap", out["swap"].matrix, swap),
        ):
            if got.shape != ref.shape or not np.array_equal(got, ref):
                problems.append(f"{what} kernel differs from the numpy matrix")
        return problems


# ---------------------------------------------------------------------------
# closure: semigraphoid closures, derivations read back out, bundled replays

CHAIN_LEN, SAMPLE = 7, 10


def _key(s):
    return (sorted(s.left), sorted(s.right), sorted(s.given))


def _bundled(name: str) -> fs.Derivation:
    text = (resources.files("finstoch") / "scripts" / name).read_text()
    return ser.derivation_from_json(json.loads(text))


class Closure:
    def __init__(self, seed: int):
        self.seed = seed
        self.bundled = [_bundled(name) for name in BUNDLED]
        self.grid_axioms = self.bundled[0]

    def round(self, r: int) -> list[Op]:
        rng = np.random.default_rng([self.seed, r])
        chain = [f"V{k:02d}" for k in rng.choice(100, CHAIN_LEN, replace=False)]
        axioms = [
            (chain[:k], chain[k + 1 :], [chain[k]]) for k in range(1, CHAIN_LEN - 1)
        ]
        chain_joint = oracles.chain_joint(
            rows(rng, 1, 2)[0], [rows(rng, 2, 2) for _ in range(CHAIN_LEN - 1)]
        )
        q, f, g = rows(rng, 1, 2)[0], rows(rng, 2, 2), rows(rng, 2, 2)
        h = rows(rng, 8, 2).reshape(2, 2, 2, 2)
        grid_joint = oracles.ah_joint(q, f, g, h, 2, 2, expose=True)
        picks = rng.random((2, SAMPLE))
        inputs = dict(chain=chain, axioms=axioms, picks=picks, joints=(chain_joint, grid_joint))
        return [Op("closure", lambda: self.run(inputs), lambda out: self.check(inputs, out))]

    def run(self, inputs):
        axioms = [
            fs.CIStatement(frozenset(x), frozenset(y), frozenset(w))
            for x, y, w in inputs["axioms"]
        ]
        grid = self.grid_axioms
        closures = (
            fs.semigraphoid_closure(axioms, inputs["chain"]),
            fs.semigraphoid_closure(grid.axioms, grid.symbols),
        )
        sampled = []
        for c, us in zip(closures, inputs["picks"]):
            ordered = sorted(c.statements, key=_key)
            for u in us:
                s = ordered[int(u * len(ordered))]
                d = c.derivation(s)
                sampled.append((s, d, fs.validate_derivation(d)))
        replays = [fs.validate_derivation(d) for d in self.bundled]
        return closures, sampled, replays

    def check(self, inputs, output) -> list[str]:
        closures, sampled, replays = output
        chain = inputs["chain"]
        grid_names = oracles.ah_names(2, 2, True)
        problems: list[str] = []
        if not all(c.complete for c in closures):
            problems.append("closure stopped before its fixed point")
        tagged = [(inputs["joints"][0], chain)] * SAMPLE + [(inputs["joints"][1], grid_names)] * SAMPLE
        for (s, d, rep), (joint, names) in zip(sampled, tagged):
            bad = oracles.first_bad_step(d.axioms, d.steps)
            if bad is not None:
                problems.append(f"derivation of {s}: step {bad} breaks the rules")
            last = d.steps[-1].conclusion if d.steps else None
            if last != s and s not in d.axioms:
                problems.append(f"derivation of {s} ends elsewhere")
            if not rep.ok:
                problems.append(f"validate_derivation rejects the derivation of {s}")
            if not verdict(oracles.ci_product_residual(joint, names, s.left, s.right, s.given)):
                problems.append(f"closure statement {s} is false on a joint of its axioms")
        # X0 _||_ X2 | X1,X3 needs decomposition then weak union
        needed = fs.CIStatement(frozenset(chain[:1]), frozenset(chain[2:3]), frozenset(chain[1:4:2]))
        if needed not in closures[0].statements:
            problems.append(f"closure misses the derivable {needed}")
        if not verdict(oracles.ci_product_residual(inputs["joints"][0], chain, needed.left, needed.right, needed.given)):
            problems.append(f"{needed} is false on the drawn chain")
        # the bundled proof from the same axioms uses only closure rules
        if not all(step.conclusion in closures[1].statements for step in self.grid_axioms.steps):
            problems.append("closure misses a conclusion of the bundled independence1 proof")
        false = (
            (closures[0], inputs["joints"][0], chain, [chain[0]], [chain[2]]),
            (closures[1], inputs["joints"][1], grid_names, ["S[1,1]"], ["S[1,2]"]),
        )
        for c, joint, names, x, y in false:
            stmt = fs.CIStatement(frozenset(x), frozenset(y))
            if verdict(oracles.ci_product_residual(joint, names, x, y)):
                problems.append(f"{stmt} holds on the drawn joint")
            if stmt in c.statements:
                problems.append(f"closure contains the false statement {stmt}")
        if not all(rep.ok for rep in replays):
            problems.append("a bundled script fails to replay")
        return problems


# ---------------------------------------------------------------------------
# cli: one subprocess per job over JSON inputs written at set-up


def _json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc))


class Cli:
    """Rotation of CLI invocations; the two known faults count as failed."""

    def __init__(self, seed: int, workdir: Path, env: dict[str, str], command: list[str]):
        self.dir = workdir
        self.env = env
        self.command = command
        self.dir.mkdir(parents=True, exist_ok=True)
        rng = np.random.default_rng(seed)
        k = 3
        a, b, c, x = (carrier(lbl, k) for lbl in "ABCX")
        q, f, g = rows(rng, 1, k)[0], rows(rng, k, k), rows(rng, k, k)
        h = rows(rng, k**3, k).reshape(k, k, k, k)
        spec = fs.AHSpec(
            fs.Kernel.state(q, a),
            fs.Kernel((a,), (b,), f),
            fs.Kernel((a,), (c,), g),
            fs.Kernel((b, a, c), (x,), h.reshape(k**3, k)),
            2,
            2,
        )
        self.joint = oracles.ah_joint(q, f, g, h, 2, 2, expose=True)
        names = oracles.ah_names(2, 2, True)
        wires = [(w, {"T": a, "R": b, "C": c, "S": x}[w[0]]) for w in names]
        state = lambda arr, ws: ser.state_to_json(fs.JointState.from_array(arr, ws))
        bad = self.joint.copy().ravel()
        bad[rng.integers(bad.size)] += 0.05
        entries = oracles.ah_joint(q, f, g, h, 2, 2, expose=False)
        _json(self.dir / "spec.json", ser.ahspec_to_json(spec))
        _json(self.dir / "model.json", ser.model_to_json(fs.expand_ah_model(2)))
        _json(self.dir / "state.json", state(self.joint, wires))
        _json(self.dir / "perturbed.json", state(bad / bad.sum(), wires))
        _json(self.dir / "entries.json", state(entries, wires[5:]))

        d, v = carrier("D", 8), carrier("V", 4)
        _json(self.dir / "kernel.json", ser.kernel_to_json(fs.Kernel((d,), (v,), rows(rng, 8, 4, 0.3))))
        xs, ys = carrier("X", 16), carrier("Y", 4)
        p = rows(rng, 1, 16, zero_frac=0.3)[0]
        fm = rows(rng, 16, 4)
        gm = fm.copy()
        off = np.flatnonzero(p == 0)
        gm[off] = rows(rng, off.size, 4)
        _json(self.dir / "p.json", ser.kernel_to_json(fs.Kernel.state(p, xs)))
        _json(self.dir / "f.json", ser.kernel_to_json(fs.Kernel((xs,), (ys,), fm)))
        _json(self.dir / "g.json", ser.kernel_to_json(fs.Kernel((xs,), (ys,), gm)))
        self._write_fault_inputs()
        self.steps = {name: len(_bundled(name).steps) for name in BUNDLED}

    def _write_fault_inputs(self) -> None:
        """Seed-independent inputs of the two known faults."""
        two = lambda lbl: {"label": lbl, "elements": ["0", "1"]}
        names = oracles.ah_names(2, 2, True)
        flat = [1.0 / 512] * 512
        flat[0] = float("nan")
        _json(
            self.dir / "nan_state.json",
            {"dom": [], "cod": [two(w[0]) for w in names], "rows": [flat], "wire_names": names},
        )
        one = lambda lbl: {"dom": [], "cod": [{"label": lbl, "elements": ["0"]}], "rows": [[1.0]]}
        unit = lambda dom, lbl: {
            "dom": [{"label": d, "elements": ["0"]} for d in dom],
            "cod": [{"label": lbl, "elements": ["0"]}],
            "rows": [[1.0]],
        }
        _json(
            self.dir / "spec6.json",
            {
                "q": one("A"),
                "f": unit("A", "B"),
                "g": unit("A", "C"),
                "h": unit("BAC", "X"),
                "rows": 6,
                "cols": 6,
            },
        )

    def _op(self, argv, *expects: Expect, extra=None, known_fault=False) -> Op:
        def run():
            proc = subprocess.run(
                self.command + argv,
                cwd=self.dir,
                env=dict(self.env, PERFBENCH_SPAWN=repr(perf_counter())),
                capture_output=True,
                text=True,
                encoding="utf-8",
                timeout=60,
            )
            return proc.returncode, proc.stdout, proc.stderr

        def check(out):
            # the first expectation that matches wins; else report the first's misses
            misses = [oracles.cli_problems(e, *out) for e in expects]
            if all(misses):
                return misses[0]
            return extra() if extra is not None else []

        return Op(argv[0], run, check, known_fault)

    def _factorized(self) -> list[str]:
        path = self.dir / "asg.json"
        doc = json.loads(path.read_text())
        path.unlink()
        box = lambda name, shape: np.asarray(doc["boxes"][name]["rows"]).reshape(shape)
        k = 3
        joint = oracles.ah_joint_boxes(
            box("alpha", (k,)),
            [box(f"beta[{i}]", (k, k)) for i in (1, 2)],
            [box(f"gamma[{j}]", (k, k)) for j in (1, 2)],
            [[box(f"eta[{i},{j}]", (k, k, k, k)) for j in (1, 2)] for i in (1, 2)],
            expose=True,
        )
        problems: list[str] = []
        _close(problems, "factorize -o recomposition", joint, self.joint, 1e-9)
        return problems

    def _built(self) -> list[str]:
        path = self.dir / "built.json"
        doc = json.loads(path.read_text())
        path.unlink()
        problems: list[str] = []
        if doc["wire_names"] != oracles.ah_names(2, 2, True):
            problems.append("build-ah -o wrote other wire names")
        got = np.asarray(doc["rows"]).reshape(self.joint.shape)
        _close(problems, "build-ah -o joint", got, self.joint, 1e-12)
        return problems

    def round(self, r: int) -> list[Op]:
        lines = lambda verdict, *names: tuple((verdict, n) for n in names)
        markov = ("local-markov", "ordered-markov", "compatible")
        ah_lemmas = lines("PASS", "ah-entries-given-tails", "ah-entry-vs-unrelated", "ah-tails-given-latent")
        ops = [
            self._op(["validate-model", "model.json"], Expect(0, lines("PASS", "model-valid"))),
            self._op(
                ["check-ci", "state.json", "--x", "S[1,1]", "--y", "S[2,2]", "--given", "T,R[1],C[1]"],
                Expect(0, lines("PASS", "ci ")),
            ),
            self._op(["check-markov", "state.json", "model.json"], Expect(0, lines("PASS", *markov))),
            self._op(["check-markov", "perturbed.json", "model.json"], Expect(1, lines("FAIL", *markov))),
            self._op(
                ["factorize", "state.json", "model.json", "-o", "asg.json"],
                Expect(0, lines("PASS", "factorize-recompose")),
                extra=self._factorized,
            ),
            self._op(
                ["build-ah", "spec.json", "--expose-latents", "-o", "built.json"],
                Expect(0, lines("PASS", "build-ah 9 wires")),
                extra=self._built,
            ),
            self._op(["verify-ah", "spec.json"], Expect(0, ah_lemmas)),
            self._op(
                ["check-exchangeable", "entries.json", "--grid", "2x2"],
                Expect(0, lines("PASS", "exchange row-swap(1,2)", "exchange column-swap(1,2)")),
            ),
        ]
        for name, n in self.steps.items():
            ops.append(self._op(["replay", name], Expect(0, lines("PASS", *(f"step[{k}]" for k in range(n))))))
        ops += [
            self._op(
                ["noise-outsource", "kernel.json"],
                Expect(0, lines("PASS", "quantile-pushforward", "seed-mechanism-composite")),
            ),
            self._op(["check-cs", "p.json", "f.json", "g.json"], Expect(0, lines("PASS", "cs-antecedent", "cs-as-equal"))),
            # A NaN cell cannot be evaluated: exit 2 naming the file, no PASS.
            self._op(["check-markov", "nan_state.json", "model.json"], Expect(2, None, "nan_state.json"), known_fault=True),
            # One-element carriers: verdict lines or exit 2 naming the file,
            # never a traceback.
            self._op(
                ["verify-ah", "spec6.json"],
                Expect(0, ah_lemmas),
                Expect(2, None, "spec6.json"),
                known_fault=True,
            ),
        ]
        return ops


if __name__ == "__main__":
    import argparse

    ap = argparse.ArgumentParser(description="Write the cli workload's JSON inputs.")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--out", type=Path, required=True, help="directory to write into")
    args = ap.parse_args()
    Cli(args.seed, args.out, {}, [])
    print("\n".join(sorted(p.name for p in args.out.iterdir())))
