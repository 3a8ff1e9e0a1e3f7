"""Shared exception types."""


class StratikitError(Exception):
    """Base class for every error raised by this package.

    Carries an optional ``path`` locating the offending entry in a JSON
    document (e.g. ``"forms[2][0]"``).
    """

    def __init__(self, message, path=None):
        super().__init__(message)
        self.path = path


class InputError(StratikitError):
    """Malformed input: bad labels, bad schema, dimension mismatch."""


class StructureError(StratikitError):
    """A structural invariant failed (relation not transitive, family not a
    topology, composition table inconsistent, ...)."""


class CapExceeded(StratikitError):
    """A configurable size cap was exceeded."""
