"""Exception types shared across the package."""


class JacGraphError(Exception):
    """Base class for every error raised by jacgraph."""


class GraphConstructionError(JacGraphError):
    """Duplicate labels, bad genus values and similar construction problems."""


class UnknownVertexError(JacGraphError):
    pass


class UnknownEdgeError(JacGraphError):
    pass


class InvalidSubsetError(JacGraphError):
    """A vertex or edge subset violates an operation's precondition
    (overlapping parts, empty where forbidden, improper where proper is required)."""


class GraphMismatchError(JacGraphError):
    """A cochain or polarization is bound to a different graph than expected."""


class EmptyGraphError(JacGraphError):
    pass


class DisconnectedGraphError(JacGraphError):
    pass


class DegreeMismatchError(JacGraphError):
    """Two multidegrees that should have equal total degree do not."""


class DegreeBudgetError(JacGraphError):
    """A multidegree does not meet the total-degree budget of its context."""


class PolarizationTotalError(JacGraphError):
    """Polarization values must add up to an integer."""


class NonIntegralRestrictionError(JacGraphError):
    """Restricting a polarization to a subset whose adjusted total is not an integer."""


class CanonicalPolarizationError(JacGraphError):
    """The canonical polarization needs 2g - 2 != 0 for the arithmetic genus
    g (the total genus on a connected graph)."""


class BlowupValueError(JacGraphError):
    """An exceptional vertex of a subdivision carries a value outside {-1, 0}."""


class GuardLimitError(JacGraphError):
    """A call returns or walks more than ``_kernel.LIMIT`` of what it counts."""


class ReductionGuardError(JacGraphError):
    """Safety valve for the reduction loops; firing indicates a bug, not bad input."""
