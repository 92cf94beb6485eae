"""Exception types shared across the package."""


class PrefaxiomError(Exception):
    """Base class for package-specific errors."""


class SchemaError(PrefaxiomError):
    """A profile document violates the input schema."""

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        self.field = field
        self.line = line
        detail = message
        if field is not None:
            detail += f" (field: {field})"
        if line is not None:
            detail += f" (line: {line})"
        super().__init__(detail)


class UndefinedPairError(PrefaxiomError):
    """A queried candidate pair has no recorded comparisons."""


class NotCompleteProfileError(PrefaxiomError):
    """Operation requires a profile in which every voter holds a full ranking."""


class DimensionMismatchError(PrefaxiomError):
    """Inputs disagree on the number of candidates or voters."""


class DisconnectedGraphError(PrefaxiomError):
    """The comparison graph is disconnected, so rewards are not identifiable."""


class NotConstantTotalError(PrefaxiomError):
    """Operation requires a weight matrix with a constant per-pair total."""


class ZeroProbabilityError(PrefaxiomError):
    """A target distribution entry is zero where a positive value is required."""


class NotConvergedError(PrefaxiomError):
    """Operation requires a converged reward vector."""


class NoUniqueTopError(PrefaxiomError):
    """No finite MLE exists and no single candidate set dominates all others.

    The positive-weight digraph has more than one source component, so the
    ridge -> 0 limit of the softmax is not decided by the graph.
    """


class TiesNotAllowedError(PrefaxiomError):
    """Operation requires a strict ranking without tie classes."""


class SpaceTooLargeError(PrefaxiomError):
    """The requested exhaustive search space exceeds the enumeration bound."""

