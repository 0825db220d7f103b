"""Layer spans recorded from outside the library.

The benchmark does not edit ``src/``.  Instead :func:`install` replaces
the public functions of every ``finstoch`` module with timing wrappers,
in the defining module and in every module that imported the name
(``finstoch.markov.ci_residual`` is the same function object as
``finstoch.ci.ci_residual``, so both bindings are swapped).  A few
methods are wrapped on their classes.  Spans are kept in memory as
``(name, start, end, parent, job)`` tuples and written out once, when
the run ends.

A layer's self time is its span's duration minus the durations of its
direct child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter
from types import SimpleNamespace

LAYERS = (
    "kernels",
    "ci",
    "markov",
    "models",
    "exchange",
    "semigraphoid",
    "quantiles",
    "serialization",
    "cli",
)


# Extra counts taken at a span boundary: span name -> (count key, fn(args, result)).
_EXTRACTORS = {
    "kernels.marginalize": ("kernels.marginalize.entries_in", lambda a, r: a[0].kernel.matrix.size),
    "kernels.tensor": ("kernels.tensor.entries_out", lambda a, r: r.matrix.size),
    "kernels.deterministic_kernel": ("kernels.deterministic_kernel.rows", lambda a, r: r.matrix.shape[0]),
    "ci.mutual_ci_residual": ("ci.mutual_ci_residual.entries_in", lambda a, r: a[0].kernel.matrix.size),
    "semigraphoid.semigraphoid_closure": ("semigraphoid.closure.statements", lambda a, r: len(r.statements)),
}


class Tracer:
    """Spans and counts of one traced phase; ``job`` tags new spans."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.job = None
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def span(self, name: str, fn):
        extra = _EXTRACTORS.get(name)

        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            self._open[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._open[name] -= 1
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent, self.job)
                self.counts[name + ".calls"] += 1
            if extra is not None:
                self.counts[extra[0]] += extra[1](args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def counter(self, key: str, fn, inside: str | None = None):
        """Count calls without a span; with ``inside``, only under that span."""

        def wrapper(*args, **kwargs):
            if inside is None or self._open[inside]:
                self.counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def self_ms(self) -> dict[str, float]:
        """Total self time per span name, in milliseconds."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for k, (name, start, end, _, _) in enumerate(self.spans):
            out[name] += (end - start - child[k]) * 1e3
        return dict(out)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": self.counts}, fh)


def _span_name(layer: str, fn_name: str) -> str | None:
    if layer == "serialization":
        for suffix in ("_from_json", "_to_json"):
            if fn_name.endswith(suffix):
                return "serialization." + suffix[1:]
        return None
    if layer == "cli":
        if fn_name == "build_parser":
            return "cli.build_parser"
        if fn_name.startswith("_cmd_"):
            return "cli.handler"
        return None
    if fn_name.startswith("_"):
        return None
    return f"{layer}.{fn_name}"


def install(tracer: Tracer) -> None:
    """Swap every public finstoch function, everywhere it is bound, for a span."""
    import finstoch
    from finstoch import cli, kernels, quantiles, semigraphoid

    modules = [finstoch] + [sys.modules[f"finstoch.{layer}"] for layer in LAYERS]
    wrapped = {}
    for layer in LAYERS:
        mod = sys.modules[f"finstoch.{layer}"]
        for fn_name, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = _span_name(layer, fn_name)
            if name is not None:
                wrapped[id(obj)] = tracer.span(name, obj)
    for mod in modules:
        for attr, obj in list(vars(mod).items()):
            if id(obj) in wrapped:
                setattr(mod, attr, wrapped[id(obj)])

    # cli._read parses with json.load; only the CLI reads JSON during a job
    cli.json = SimpleNamespace(
        load=tracer.span("serialization.json_parse", json.load),
        dump=json.dump,
        JSONDecodeError=json.JSONDecodeError,
    )
    for cls in (kernels.Kernel, kernels.JointState):
        cls.__post_init__ = tracer.span("kernels.construct", cls.__post_init__)
    closure = semigraphoid.Closure
    closure.derivation = tracer.span("semigraphoid.derivation", closure.derivation)
    qf = quantiles.QuantileFunction
    qf.value_at = tracer.counter("quantiles.value_at.calls", qf.value_at)
    stmt = semigraphoid.CIStatement
    stmt.__post_init__ = tracer.counter(
        "semigraphoid.closure.attempts",
        stmt.__post_init__,
        inside="semigraphoid.semigraphoid_closure",
    )


def layer_metrics(tracer: Tracer, jobs: int) -> dict[str, float]:
    """Per-job counts and self times, keyed as in BENCHMARK.json."""
    out = {k: v / jobs for k, v in tracer.counts.items()}
    for name, ms in tracer.self_ms().items():
        out[name + ".self_ms"] = ms / jobs
    attempts = tracer.counts.get("semigraphoid.closure.attempts", 0)
    if attempts:
        out["semigraphoid.closure.useful_ratio"] = (
            tracer.counts["semigraphoid.closure.statements"] / attempts
        )
    return out
