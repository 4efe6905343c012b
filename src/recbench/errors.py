"""Exception types shared across the package.

Every failure surfaced to callers derives from :class:`RecbenchError`, so
the CLI can catch one base class and emit a single structured error line.
"""


class RecbenchError(Exception):
    """Base class for all structured errors raised by this package."""


class TableFileError(RecbenchError):
    """Malformed table file: bad header, bad row, or unwritable path."""


class DataError(RecbenchError):
    """Invalid dataset contents or a preprocessing failure."""


class ProtocolError(RecbenchError):
    """Invalid evaluation plan, split, or candidate construction."""


class ModelError(RecbenchError):
    """Invalid model input or training failure."""


class CheckpointError(RecbenchError):
    """Unreadable, corrupt, or incompatible checkpoint file."""


class ConfigError(RecbenchError):
    """Unknown key, type mismatch, or missing mandatory configuration."""


class EvalError(RecbenchError):
    """Evaluation failure: unknown metric, bad shapes, missing fields."""


class NaNScoreError(EvalError):
    """A score matrix holds NaN; ``row`` is the first row that does."""

    def __init__(self, row):
        super().__init__(f"NaN score in row {row}")
        self.row = row
