"""Exception types shared across the package.

The CLI maps these onto exit codes, so library code should raise the most
specific class that applies rather than bare ValueError/RuntimeError.
"""


class GeodiscError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(GeodiscError, ValueError):
    """An operation was called with inputs that violate its contract."""


class WindingNumberError(PreconditionError):
    """A boundary curve has nonzero winding about the origin.

    Raised by the branch-log machinery of ``geodisc.circle``.
    """


class SolverDivergence(GeodiscError, RuntimeError):
    """An iterative solve failed to reach its tolerance.

    ``last_residual`` carries the residual norm at the point of failure;
    ``stagnated`` is True when Newton stopped because that norm stopped
    falling, not because a line search or the iteration budget ran out.
    """

    stagnated = False

    def __init__(self, message, last_residual=None):
        super().__init__(message)
        self.last_residual = last_residual


class HypothesisViolation(GeodiscError, RuntimeError):
    """The data violates a structural hypothesis (as opposed to a solver
    failure), e.g. an inner domain that is not strongly convex with
    respect to a disc, detected through a nonpositive tangency constant."""
