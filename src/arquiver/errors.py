"""Exception hierarchy.

Input-shaped problems (bad quiver data, non-tree, non-Dynkin) are kept
separate from internal consistency failures so the CLI can map them to
distinct exit codes.
"""

from __future__ import annotations


class ArquiverError(Exception):
    """Base class for all errors raised by this package."""


# -- invalid input -----------------------------------------------------------

class InvalidQuiverError(ArquiverError, ValueError):
    """A quiver description violates a structural invariant."""


class LoopArrowError(InvalidQuiverError):
    pass


class TwoCycleError(InvalidQuiverError):
    pass


class MultipleArrowError(InvalidQuiverError):
    pass


class BadValuationError(InvalidQuiverError):
    pass


class DanglingVertexError(InvalidQuiverError):
    pass


class NotATreeError(ArquiverError):
    """The underlying graph has a cycle or is disconnected."""


class NotDynkinError(ArquiverError):
    """The underlying valued graph is not a Dynkin diagram."""


class PositionOutOfRangeError(ArquiverError, ValueError):
    pass


class BoundExceededError(ArquiverError):
    """Knitting ran past the level bound of its Dynkin type without terminating.

    On valid Dynkin input this cannot happen; it signals an input whose
    additive function never turns negative.
    """


class ParseError(ArquiverError, ValueError):
    """Input text could not be parsed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        super().__init__(message)
        self.line = line

    def __str__(self) -> str:
        return f"line {self.line}: {super().__str__()}"


# -- internal consistency failures -------------------------------------------

class InternalCheckError(ArquiverError):
    """A guaranteed invariant failed at runtime; the computation is corrupt."""


class KnitInconsistentError(InternalCheckError):
    """The knitted values violate the expected sign pattern."""


class CrossCheckFailedError(InternalCheckError):
    """Two independent computations of the same quantity disagree."""


class SingularCartanError(InternalCheckError):
    """E - A or E - B, read off the ext-quiver, fails to invert the Cartan
    or the injective matrix of the knitted modules."""


class OrderBoundExceededError(InternalCheckError):
    """The Coxeter order read off the knitted translation orbits, the least
    common multiple of their lengths, is not the order tabled for the type."""
