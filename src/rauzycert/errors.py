"""Exception types shared across the package."""


class RauzyError(Exception):
    """Base class for all errors raised by this package."""


class PermutationParseError(RauzyError, ValueError):
    """Malformed two-row permutation input."""


class ReducibleError(RauzyError, ValueError):
    """A move or enumeration was requested on a reducible permutation."""


class NotAllowedError(RauzyError, ValueError):
    """A path whose endpoints do not define the same unlabeled permutation."""


class NotPrimitiveError(RauzyError, ValueError):
    """A matrix operation that requires primitivity got a non-primitive input."""


class EnumerationCapError(RauzyError, RuntimeError):
    """Diagram exploration exceeded the configured vertex cap."""


class ConvergenceError(RauzyError, RuntimeError):
    """Iterative bracketing failed to reach the requested tolerance.

    ``bracket`` is the best certified bracket reached before giving up,
    with the number of iterations spent."""

    def __init__(self, message: str, bracket=None):
        super().__init__(message)
        self.bracket = bracket
