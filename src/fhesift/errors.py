"""Exception types shared across the package."""


class FheSiftError(Exception):
    """Base class for package errors."""


class DepthExhausted(FheSiftError):
    """A multiplication was attempted on a ciphertext with no levels left.

    ``stage`` names the pipeline stage that ran out of depth, when known.
    """

    def __init__(self, message: str, stage: str | None = None):
        super().__init__(message)
        self.stage = stage


class EmptyInput(FheSiftError):
    """An aggregate kernel was called with an empty operand list."""


class DeferralUnsupported(FheSiftError):
    """The program cannot be expressed as a single deferred package."""


class MissingAssignment(FheSiftError):
    """A comparison or sqrt parameter was read before a value was bound to it."""


class PgmError(FheSiftError):
    """Malformed PGM input; ``offset`` is the byte position of the problem."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class ConfigError(FheSiftError):
    """Malformed or unknown configuration entry."""
