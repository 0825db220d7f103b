"""Exact verification tools for finite stochastic kernels.

The package represents conditional distributions between finite sets
as row-stochastic matrices and builds on that one representation:
categorical composition and tensoring, conditionals and almost-sure
equality, conditional-independence checks, a semigraphoid derivation
engine, wiring-diagram models with local and ordered Markov property
checks and constructive factorization, latent constructions for
exchangeable sequences and arrays, and quantile representations that
outsource all randomness of a kernel to one uniform seed.

Names resolve on first use.  A bare ``import finstoch`` loads no numpy;
the first access through the package to a name, or to a submodule not
yet loaded, loads every module that defines a name below at once, so
they are all in ``sys.modules`` together.  ``finstoch.cli`` is imported
only on request.
"""

from __future__ import annotations

import importlib

__version__ = "0.1.0"

# Public names, by the module that defines them.
_EXPORTS = {
    "ci": (
        "check_partition_lemma",
        "ci_residual",
        "common_refinement",
        "mutual_ci_residual",
    ),
    "errors": (
        "BadWireNaming",
        "BudgetExceeded",
        "DomainMismatch",
        "FinstochError",
        "InvalidModel",
        "InvalidTiming",
        "NotAPartition",
        "ParamMismatch",
        "ShapeMismatch",
        "SizeLimit",
        "UnknownNode",
        "UnknownWire",
        "WireMismatch",
        "WireOverlap",
    ),
    "exchange": (
        "AHLemmaReport",
        "AHSpec",
        "PermSpec",
        "adjacent_transpositions",
        "build_ah_joint",
        "build_definetti_joint",
        "decode_names",
        "grid_transpositions",
        "invariance_residual",
        "verify_ah_lemmas",
    ),
    "kernels": (
        "DEFAULT_ATOL",
        "MAX_ENTRIES",
        "CSReport",
        "FinSet",
        "JointState",
        "Kernel",
        "ParamKernel",
        "as_equal_residual",
        "compose",
        "conditional",
        "copy_kernel",
        "cs_check",
        "deterministic_kernel",
        "discard_kernel",
        "identity",
        "marginalize",
        "max_abs_diff",
        "parametric_cs_check",
        "reindex",
        "swap_kernel",
        "tensor",
    ),
    "markov": (
        "BoxAssignment",
        "compatibility_residual",
        "factorize",
        "local_markov_residual",
        "markov_residuals",
        "ordered_markov_residual",
        "recompose",
    ),
    "models": (
        "Box",
        "CausalModel",
        "TimingFunction",
        "Violation",
        "default_timing",
        "expand_ah_model",
        "make_model",
        "non_descendants",
        "past",
        "topo_order",
        "validate_model",
        "validate_timing",
    ),
    "quantiles": (
        "Breakpoint",
        "QuantileFunction",
        "outsourced_form",
        "outsourced_residual",
        "pushforward_residual",
        "quantile_pushback",
    ),
    "semigraphoid": (
        "RULES",
        "CIStatement",
        "Closure",
        "Derivation",
        "DerivationReport",
        "DerivationStep",
        "semigraphoid_closure",
        "validate_derivation",
    ),
    "serialization": (
        "ahspec_from_json",
        "ahspec_to_json",
        "assignment_from_json",
        "assignment_to_json",
        "derivation_from_json",
        "derivation_to_json",
        "finset_from_json",
        "finset_to_json",
        "kernel_from_json",
        "kernel_to_json",
        "model_from_json",
        "model_to_json",
        "quantile_from_json",
        "quantile_to_json",
        "state_from_json",
        "state_to_json",
        "statement_from_json",
        "statement_to_json",
        "timing_from_json",
        "timing_to_json",
    ),
}

__all__ = sorted(name for names in _EXPORTS.values() for name in names)


def __getattr__(name: str):
    if name not in _EXPORTS and name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for layer, names in _EXPORTS.items():
        module = importlib.import_module(f".{layer}", __name__)
        globals().update((n, getattr(module, n)) for n in names)
    return globals()[name]


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *__all__})
