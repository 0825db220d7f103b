"""Exception types, the default tolerance and the size caps of the package.

This module imports nothing, so numpy-free modules such as
``semigraphoid`` and ``models`` can use it.
"""

from __future__ import annotations

DEFAULT_ATOL = 1e-9
MAX_ENTRIES = 1 << 20
MAX_WIRES = 52  # distinct einsum indices numpy can address


class FinstochError(ValueError):
    """Base class for all errors raised by this package."""


class DomainMismatch(FinstochError):
    """Composite requested between kernels whose interfaces do not match."""


class ShapeMismatch(FinstochError):
    """Matrix or factor shapes disagree with the declared interface."""


class UnknownWire(FinstochError):
    """A wire name does not occur in the state or model at hand."""


class WireOverlap(FinstochError):
    """Wire groups that must be disjoint overlap."""


class WireMismatch(FinstochError):
    """A state's wires do not line up with the model's wires."""


class NotAPartition(FinstochError):
    """The given blocks do not partition the expected ground set."""


class ParamMismatch(FinstochError):
    """Parametric kernels carry different parameter factors."""


class UnknownNode(FinstochError):
    """A box or wire name does not occur in the model."""


class InvalidModel(FinstochError):
    """A model breaks its rules: ``violations`` lists them all, the message is the first."""

    def __init__(self, violations):
        super().__init__(str(violations[0]))
        self.violations = tuple(violations)


class InvalidTiming(FinstochError):
    """A timing function violates the model's precedence constraints."""


class BadWireNaming(FinstochError):
    """Wire names do not decode to grid or sequence positions."""


class SizeLimit(FinstochError):
    """A requested state space exceeds the configured entry cap."""


class BudgetExceeded(FinstochError):
    """Closure budget ran out before reaching a fixed point.

    The partial closure computed so far is attached as ``partial``.
    """

    def __init__(self, message: str, partial=None):
        super().__init__(message)
        self.partial = partial
