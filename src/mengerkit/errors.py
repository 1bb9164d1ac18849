"""Exception types shared across the package.

``InputError`` maps to CLI exit code 2, ``CapacityError`` to exit code 3.
Verification failures (counterexamples) are never exceptions; they are
returned as values so callers can archive them.
"""


class MengerkitError(Exception):
    """Base class for all package errors."""


class InputError(MengerkitError):
    """Malformed or inconsistent input (bad table shape, size mismatch,
    violated precondition, unknown file field)."""


class CapacityError(MengerkitError):
    """A configured size cap was exceeded (closure size, frame states,
    oracle carrier size).  Carries the partial count reached."""

    def __init__(self, message: str, count: int | None = None):
        super().__init__(message)
        self.count = count


class ClosureCapError(CapacityError):
    """A closure outgrew its member cap; the forge draws again on it."""
