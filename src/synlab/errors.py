"""Shared exception types.

The CLI maps InputError and ResourceError to exit code 2, and
VerificationFailure and InvariantError to exit code 3; everything else is a
genuine bug and escapes as a traceback.
"""


class InputError(ValueError):
    """Caller handed us inconsistent or out-of-range parameters."""


class StateError(RuntimeError):
    """Operation invoked out of order (e.g. a differential stage skipped)."""


class ResourceError(RuntimeError):
    """Requested computation exceeds configured size limits."""


class InvariantError(RuntimeError):
    """An internal consistency condition failed; results are not trustworthy."""


class VerificationFailure(RuntimeError):
    """A cross-check between the two computation routes came out unequal."""
