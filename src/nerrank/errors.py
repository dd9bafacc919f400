"""Exception hierarchy shared across the toolkit.

The CLI maps each class to a distinct exit code (see cli.EXIT_CODES).
"""

from contextlib import contextmanager

# what a missing, unreadable or misplaced path raises: an input that
# cannot be opened, or an output that cannot be made (a regular file where
# a bundle directory is expected raises FileExistsError)
FILE_ERRORS = (FileNotFoundError, FileExistsError, IsADirectoryError, NotADirectoryError, PermissionError)


class NerrankError(Exception):
    """Base class for all toolkit errors."""


class ConfigError(NerrankError):
    """Malformed, unknown, or type-invalid configuration key/value."""


class ParseError(NerrankError):
    """Malformed input data (CoNLL, n-best, embedding, or cluster files)."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class CheckpointMismatchError(NerrankError):
    """Checkpoint contents disagree with the active configuration."""


class ShapeMismatchError(NerrankError):
    """Tensor operands have incompatible shapes."""


@contextmanager
def checkpoint_errors(path, model: str):
    """The one error rule of the saved-model readers: FILE_ERRORS propagate
    (exit 2); any other failure becomes a CheckpointMismatchError that names
    the path and the model (exit 4)."""
    try:
        yield
    except FILE_ERRORS:
        raise
    except Exception as exc:
        raise CheckpointMismatchError(f"{path} is not a readable {model}: {exc}") from exc
