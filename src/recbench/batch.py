"""The per-step data unit fed to models.

A :class:`Batch` maps field names to equal-length numpy columns: int64 IDs
for token fields, float64 for float fields, and 2-D arrays (padded to a
shared length with 0) for sequence fields.  Batches are value-like; every
operation returns a new batch and never mutates its input.
"""

from __future__ import annotations

from collections.abc import Mapping

import numpy as np

from .errors import DataError
from .tables import DataTable, FieldType


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

    def repeat(self, times) -> "Batch":
        """Tile the whole batch ``times`` times: [a, b] -> [a, b, a, b]."""
        if times < 1:
            raise DataError("repeat count must be >= 1")
        reps = {}
        for name, col in self._columns.items():
            reps[name] = np.tile(col, times) if col.ndim == 1 else np.tile(col, (times, 1))
        return Batch(reps)

    def repeat_interleave(self, times) -> "Batch":
        """Repeat each row consecutively: [a, b] -> [a, a, b, b]."""
        if times < 1:
            raise DataError("repeat count must be >= 1")
        return Batch({name: np.repeat(col, times, axis=0)
                      for name, col in self._columns.items()})

    def update(self, other: "Batch") -> "Batch":
        """Overwrite/extend columns by name with those of ``other``.

        ``other`` must have the same length, or length 1 (broadcast).
        """
        if len(other) not in (len(self), 1) and len(self._columns) > 0:
            raise DataError(f"cannot update a batch of length {len(self)} "
                            f"with one of length {len(other)}")
        merged = dict(self._columns)
        for name, col in other._columns.items():
            if len(other) == 1 and len(self) != 1 and self._columns:
                col = np.repeat(col, len(self), axis=0)
            merged[name] = col
        return Batch(merged)

    def __repr__(self):
        return f"Batch(length={self._length}, fields={self.fields})"


def _pad_sequences(seqs, dtype):
    width = max((len(s) for s in seqs), default=0)
    out = np.zeros((len(seqs), width), dtype=dtype)
    for i, s in enumerate(seqs):
        if s is not None and len(s):
            out[i, :len(s)] = s
    return out


def batch_from_table(table: DataTable, rows, fields=None) -> Batch:
    """Build a batch from selected rows of an ID-encoded table.

    Sequence columns are padded with 0 to the longest sequence in the
    batch.  Raw (non-encoded) token columns are rejected.
    """
    rows = np.asarray(rows, dtype=np.intp)
    names = fields if fields is not None else table.field_names
    columns = {}
    for name in names:
        spec = table.field(name)
        col = table.columns[name]
        if spec.ftype == FieldType.TOKEN or spec.ftype == FieldType.FLOAT:
            if not isinstance(col, np.ndarray):
                raise DataError(f"field {name!r} is not encoded; run remap_ids first")
            columns[name] = col[rows]
        elif spec.ftype == FieldType.TOKEN_SEQ:
            seqs = [col[i] for i in rows]
            if any(not isinstance(s, np.ndarray) for s in seqs if s is not None):
                raise DataError(f"field {name!r} is not encoded; run remap_ids first")
            columns[name] = _pad_sequences(seqs, np.int64)
        else:
            columns[name] = _pad_sequences([col[i] for i in rows], np.float64)
    return Batch(columns)
