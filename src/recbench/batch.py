"""The per-step data unit fed to models.

A :class:`Batch` maps field names to equal-length numpy columns, such as
int64 user and item IDs or float64 labels.  Models receive training steps
and scoring requests as batches and read columns by field name.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import DataError


class Batch(Mapping):
    """Named equal-length columns of encoded values."""

    def __init__(self, columns):
        self._columns = {name: np.asarray(col) for name, col in columns.items()}
        lengths = {len(col) for col in self._columns.values()}
        if len(lengths) > 1:
            raise DataError(f"batch columns disagree on length: {sorted(lengths)}")
        self._length = lengths.pop() if lengths else 0

    def __getitem__(self, name):
        return self._columns[name]

    def __iter__(self):
        return iter(self._columns)

    def __len__(self):
        return self._length

    @property
    def fields(self):
        return list(self._columns)

    def __repr__(self):
        return f"Batch(length={self._length}, fields={self.fields})"

