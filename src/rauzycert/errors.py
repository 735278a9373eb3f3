"""Exception types shared across the package.

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

