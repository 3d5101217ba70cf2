"""Exception types shared across the package."""


class MgkError(Exception):
    """Base class for every error raised by this package."""


class ShapeError(MgkError):
    """Operand dimensions do not agree."""


class ContractError(MgkError):
    """A documented precondition or invariant was violated."""


class NumericError(MgkError):
    """A computation produced non-finite values or an unusable measurement."""


class ConfigError(MgkError):
    """A run or model configuration is invalid."""


class FormatError(MgkError):
    """A file does not match its documented byte layout.

    Carries the byte offset at which parsing failed when known.
    """

    def __init__(self, message, offset=None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset
