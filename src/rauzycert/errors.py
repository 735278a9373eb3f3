"""Exception types shared across the package, and its one range check.

``prefix`` is what the command line prints before the message on stderr.
"""


class RauzyError(Exception):
    """Base class for all errors raised by this package."""

    prefix = "error"


class PermutationParseError(RauzyError, ValueError):
    """Malformed two-row permutation input."""

    prefix = "parse error"


class ReducibleError(RauzyError, ValueError):
    """A move or enumeration was requested on a reducible permutation."""

    prefix = "reducible error"


class NotAllowedError(RauzyError, ValueError):
    """A path whose endpoints do not define the same unlabeled permutation."""

    prefix = "path error"


class EnumerationCapError(RauzyError, RuntimeError):
    """Diagram exploration exceeded the configured vertex cap."""

    prefix = "cap error"


def check_range(name: str, value: int, low: int, high: int | None = None,
                error=ValueError) -> None:
    """Raise ``error`` before any work when ``value`` lies outside low..high
    (no upper limit when ``high`` is None)."""
    if value < low:
        raise error("%s must be >= %d, got %d" % (name, low, value))
    if high is not None and value > high:
        raise error("%s must be <= %d, got %d" % (name, high, value))
