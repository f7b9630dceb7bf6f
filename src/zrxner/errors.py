"""Exception types shared across the toolkit.

The CLI maps these onto process exit codes: UsageError -> 2,
CheckpointError -> 3, NumericalError -> 4, AlignmentError -> 4; an OSError
(a missing input) and a UnicodeDecodeError (an input that is not UTF-8)
also exit 2.
"""


class UsageError(ValueError):
    """Bad input or bad arguments: the caller violated a precondition."""


class ParseError(UsageError):
    """Malformed input file; carries the 1-based line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointError(RuntimeError):
    """Unreadable, corrupt, or version-incompatible artifact."""


class NumericalError(RuntimeError):
    """Non-finite values or divergence detected during training."""


class AlignmentError(RuntimeError):
    """Mapper refinement failed (e.g. the induced dictionary is empty)."""
