"""Exception types shared across the package."""


class RobotError(Exception):
    """Base class for all domain errors raised by this package."""


class ParseError(RobotError):
    """Robot description file is malformed (bad JSON, wrong arity, bad types)."""


class ValidationError(RobotError):
    """Robot description is well-formed but violates a geometric invariant."""


class DegenerateElimination(RobotError):
    """No leg pairing yields a usable linear elimination for the forward problem."""


class SerialDegenerate(RobotError):
    """A leg's two revolute joints coincide, so its line (and the line-matrix
    determinant built from unit directions) is undefined.  ``leg`` is 1-based,
    matching the rho_1..rho_3 naming."""

    def __init__(self, leg: int, message: str | None = None):
        self.leg = leg
        super().__init__(message or f"leg {leg} is serially singular; its line is undefined")


class ArchitecturalSingularity(RobotError):
    """The design is singular for every position at some orientation (similar
    triangles; a reflected copy, which is not, is flagged conservatively)."""


class AmbiguousContinuation(RobotError):
    """A leg length touches zero tangentially along a path, so the sign of the
    directed distance cannot be continued past the touch."""


class NoPathFound(RobotError):
    """The planner exhausted its search without a valid mode-changing path.

    ``explored`` counts the grid nodes reachable from the searched
    endpoint(s): from the start alone, or the union of the start's and the
    target's reachable sets when both were searched.  It is 0 when the
    planner failed before any grid search.
    """

    def __init__(self, message: str, explored: int = 0):
        self.explored = explored
        super().__init__(message)


class InvalidStart(RobotError):
    """The requested start pose is singular or outside the search box."""
