"""Shared generators and loop-based reference computations for the tests.

Generators draw small structured objects from a seeded numpy Generator.
The reference computations use plain Python loops over index tuples, so
the vectorized library code is always checked against a second route
written independently of it.
"""

from __future__ import annotations

import itertools
import math
import string

import numpy as np

from finstoch import (
    AHSpec,
    Box,
    BoxAssignment,
    CausalModel,
    FinSet,
    JointState,
    Kernel,
    deterministic_kernel,
    make_model,
    recompose,
)


def carrier(label: str, size: int) -> FinSet:
    return FinSet(label, tuple(str(k) for k in range(size)))


def random_carrier(rng, label, lo=2, hi=4) -> FinSet:
    return carrier(label, int(rng.integers(lo, hi + 1)))


def random_rows(rng, nrows, ncols, zero_frac=0.0) -> np.ndarray:
    """Row-stochastic matrix, strictly positive unless zeros are planted.

    Planted zeros are exact; at least one entry per row survives.
    """
    mat = rng.uniform(0.05, 1.0, size=(nrows, ncols))
    if zero_frac > 0.0 and ncols > 1:
        mask = rng.random(size=mat.shape) < zero_frac
        for i in range(nrows):
            if mask[i].all():
                mask[i, int(rng.integers(ncols))] = False
        mat[mask] = 0.0
    return mat / mat.sum(axis=1, keepdims=True)


def _tuple(factors):
    return (factors,) if isinstance(factors, FinSet) else tuple(factors)


def random_kernel(rng, dom, cod, zero_frac=0.0) -> Kernel:
    dom_t, cod_t = _tuple(dom), _tuple(cod)
    nr = math.prod(f.size for f in dom_t)
    nc = math.prod(f.size for f in cod_t)
    return Kernel(dom_t, cod_t, random_rows(rng, nr, nc, zero_frac))


def random_map(rng, dom, cod) -> Kernel:
    """Deterministic kernel of a uniformly chosen function."""
    dom_t, cod_t = _tuple(dom), _tuple(cod)
    outputs = list(itertools.product(*(c.elements for c in cod_t)))
    table = {
        xs: outputs[int(rng.integers(len(outputs)))]
        for xs in itertools.product(*(c.elements for c in dom_t))
    }
    return deterministic_kernel(dom_t, cod_t, lambda xs: table[xs])


def random_state(rng, cod, zero_frac=0.0) -> Kernel:
    cod_t = _tuple(cod)
    nc = math.prod(f.size for f in cod_t)
    return Kernel.state(random_rows(rng, 1, nc, zero_frac)[0], cod_t)


def random_joint(rng, names, lo=2, hi=4, zero_frac=0.0) -> JointState:
    wires = [(w, random_carrier(rng, w, lo, hi)) for w in names]
    n = math.prod(c.size for _, c in wires)
    probs = random_rows(rng, 1, n, zero_frac)[0]
    return JointState.from_array(probs.reshape([c.size for _, c in wires]), wires)


def perturbed(rng, p: JointState, eps=0.05) -> JointState:
    """Bump one entry by eps and renormalize."""
    flat = p.kernel.matrix[0].copy()
    flat[int(rng.integers(flat.size))] += eps
    flat /= flat.sum()
    wires = list(zip(p.wire_names, p.kernel.cod))
    return JointState.from_array(flat.reshape(p.kernel.cod_shape), wires)


# ---------------------------------------------------------------------------
# loop-based reference computations


def slow_compose(f: Kernel, g: Kernel) -> np.ndarray:
    """Matrix of g after f by explicit summation."""
    nr, mid = f.matrix.shape
    nc = g.matrix.shape[1]
    out = np.zeros((nr, nc))
    for i in range(nr):
        for j in range(mid):
            for k in range(nc):
                out[i, k] += f.matrix[i, j] * g.matrix[j, k]
    return out


def slow_tensor(f: Kernel, g: Kernel) -> np.ndarray:
    ra, ca = f.matrix.shape
    rb, cb = g.matrix.shape
    out = np.zeros((ra * rb, ca * cb))
    for i1 in range(ra):
        for i2 in range(rb):
            for j1 in range(ca):
                for j2 in range(cb):
                    out[i1 * rb + i2, j1 * cb + j2] = (
                        f.matrix[i1, j1] * g.matrix[i2, j2]
                    )
    return out


def table(p: JointState, wires) -> dict:
    """Marginal of p as a dict from value-index tuples to probabilities.

    Keys follow the requested wire order, not p's.
    """
    wires = list(wires)
    axes = [p.wire_index(w) for w in wires]
    full = p.array
    out: dict = {}
    for idx in itertools.product(*(range(n) for n in full.shape)):
        key = tuple(idx[a] for a in axes)
        out[key] = out.get(key, 0.0) + float(full[idx])
    return out


def product_identity_residual(p: JointState, x, y, given=()) -> float:
    """CI oracle: worst |q(x,y,w) q(w) - q(x,w) q(y,w)| by brute force."""
    x, y, given = list(x), list(y), list(given)
    qxyw = table(p, x + y + given)
    qxw = table(p, x + given)
    qyw = table(p, y + given)
    qw = table(p, given)
    nx, ny = len(x), len(y)
    worst = 0.0
    for key, v in qxyw.items():
        kx, ky, kw = key[:nx], key[nx : nx + ny], key[nx + ny :]
        worst = max(worst, abs(v * qw[kw] - qxw[kx + kw] * qyw[ky + kw]))
    return worst


def mutual_product_residual(p: JointState, parts, given=()) -> float:
    """Joint-independence oracle: q(all,w) q(w)^(k-1) vs the part product."""
    parts = [list(g) for g in parts]
    given = list(given)
    flat = [w for g in parts for w in g]
    qall = table(p, flat + given)
    qparts = [table(p, g + given) for g in parts]
    qw = table(p, given)
    sizes = [len(g) for g in parts]
    worst = 0.0
    for key, v in qall.items():
        kw = key[len(flat) :]
        lhs = v * qw[kw] ** (len(parts) - 1)
        rhs = 1.0
        start = 0
        for g, q in zip(sizes, qparts):
            rhs *= q[key[start : start + g] + kw]
            start += g
        worst = max(worst, abs(lhs - rhs))
    return worst


# ---------------------------------------------------------------------------
# structured joints with exact independences


def block_product_joint(rng, blocks, lo=2, hi=3) -> JointState:
    """Joint over the union of the blocks, exactly independent across them."""
    wires: list[tuple[str, FinSet]] = []
    arr = np.ones(())
    for block in blocks:
        ws = [(w, random_carrier(rng, w, lo, hi)) for w in block]
        n = math.prod(c.size for _, c in ws)
        part = random_rows(rng, 1, n)[0].reshape([c.size for _, c in ws])
        arr = np.multiply.outer(arr, part)
        wires.extend(ws)
    return JointState.from_array(arr, wires)


def latent_blocks_joint(rng, latent, blocks, lo=2, hi=3) -> JointState:
    """Blocks conditionally independent given one exposed latent wire."""
    a = random_carrier(rng, latent, lo, hi)
    q = random_rows(rng, 1, a.size)[0]
    wires: list[tuple[str, FinSet]] = [(latent, a)]
    operands = [q]
    subs = ["z"]
    pos = 0
    for block in blocks:
        ws = [(w, random_carrier(rng, w, lo, hi)) for w in block]
        n = math.prod(c.size for _, c in ws)
        t = random_rows(rng, a.size, n).reshape(
            [a.size] + [c.size for _, c in ws]
        )
        letters = string.ascii_lowercase[pos : pos + len(ws)]
        pos += len(ws)
        operands.append(t)
        subs.append("z" + letters)
        wires.extend(ws)
    out = "z" + string.ascii_lowercase[:pos]
    arr = np.einsum(",".join(subs) + "->" + out, *operands)
    return JointState.from_array(arr, wires)


def chain_joint(rng, names, lo=2, hi=3) -> JointState:
    """Markov chain over the named wires, built by exact recomposition."""
    boxes = [Box("g1", (), (names[0],))]
    for k in range(1, len(names)):
        boxes.append(Box(f"g{k + 1}", (names[k - 1],), (names[k],)))
    m = make_model(boxes)
    return recompose(m, random_assignment(rng, m, lo, hi))


# ---------------------------------------------------------------------------
# random models and assignments


def random_dag_model(rng, max_boxes=4, max_wires=5) -> CausalModel:
    """Random pure-bloom acyclic model; every wire is an overall output."""
    n_boxes = int(rng.integers(2, max_boxes + 1))
    boxes: list[Box] = []
    wires: list[str] = []
    for k in range(1, n_boxes + 1):
        room = max_wires - len(wires) - (n_boxes - k)
        n_out = 1 if room <= 1 else int(rng.integers(1, min(2, room) + 1))
        outs = tuple(f"W{len(wires) + i + 1}" for i in range(n_out))
        n_in = int(rng.integers(0, len(wires) + 1)) if wires else 0
        ins = ()
        if n_in:
            picked = rng.choice(wires, size=n_in, replace=False)
            ins = tuple(sorted(str(w) for w in picked))
        boxes.append(Box(f"f{k}", ins, outs))
        wires.extend(outs)
    return make_model(boxes)


def random_assignment(rng, m: CausalModel, lo=2, hi=3, zero_frac=0.0):
    carriers = {w: random_carrier(rng, w, lo, hi) for w in m.wires}
    kernels = {}
    for b in m.boxes:
        dom = tuple(carriers[w] for w in b.in_wires)
        cod = tuple(carriers[w] for w in b.out_wires)
        kernels[b.name] = random_kernel(rng, dom, cod, zero_frac)
    return BoxAssignment(carriers, kernels)


def random_ahspec(rng, rows, cols=None, hi=3) -> AHSpec:
    cols = rows if cols is None else cols
    a = random_carrier(rng, "A", 2, hi)
    b = random_carrier(rng, "B", 2, hi)
    c = random_carrier(rng, "C", 2, hi)
    x = random_carrier(rng, "X", 2, hi)
    return AHSpec(
        q=random_state(rng, a),
        f=random_kernel(rng, a, b),
        g=random_kernel(rng, a, c),
        h=random_kernel(rng, (b, a, c), x),
        rows=rows,
        cols=cols,
    )


def one_element_ahspec(n: int) -> AHSpec:
    """An n-by-n grid spec whose four carriers have one element each.

    Its exposed joint has 1 + 2n + n*n wires but a single entry, so it
    probes the wire cap apart from the entry cap.
    """
    a, b, c, x = (carrier(label, 1) for label in "ABCX")
    return AHSpec(
        q=Kernel.state([1.0], a),
        f=Kernel((a,), (b,), [[1.0]]),
        g=Kernel((a,), (c,), [[1.0]]),
        h=Kernel((b, a, c), (x,), [[1.0]]),
        rows=n,
        cols=n,
    )
