"""Typed delimited table files.

Every task input arrives as one of three suffix-identified text files:

========  =========================================================
suffix    content
========  =========================================================
.inter    user-item interaction rows (mandatory for every task)
.user     user profile features, one row per user
.item     item features, one row per item
========  =========================================================

All three share one layout: line 1 declares ``name:type`` for every field,
each following line carries one record, fields separated by a single
configurable character (comma by default), ``\\n`` line endings, UTF-8.
Two field types exist: ``token`` (a discrete value kept verbatim as a
string) and ``float``.  A table stores a token column in one form: int64
codes, 0 for a missing cell, plus the column's distinct tokens in
first-occurrence order, so code ``c`` is token ``c - 1`` of that list.
RecBole's sequence tags ``token_seq`` and ``float_seq`` are accepted in
a header so that its files load, but no model reads a sequence: their
cells count toward each line's field count and are never parsed, and
the table holds only the token and float fields.  An empty cell encodes
a missing value.  Cells must not contain the separator character; there
is no quoting or escaping dialect.  A space cannot be the separator, as
sequence cells hold spaces.

:func:`read_table` parses a file column by column: after one check of
every line's field count, all cells are split off at once and each
column is converted whole: one ``float`` map per float column and one
:func:`_token_codes` pass per token column.  A file that fails that
parse is parsed again cell by cell, and that path reports the first
fault in row-major order, with its line number.
"""

from __future__ import annotations

import csv
import math
import re
from collections import defaultdict
from dataclasses import dataclass
from enum import Enum
from itertools import count, repeat

import numpy as np

from .errors import TableFileError

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class FieldType(str, Enum):
    TOKEN = "token"
    FLOAT = "float"


# header tags whose columns read_table reads past
SKIPPED_TAGS = ("token_seq", "float_seq")


class TableKind(str, Enum):
    INTER = "inter"
    USER = "user"
    ITEM = "item"


@dataclass(frozen=True)
class FieldSpec:
    """A named, typed column declaration."""

    name: str
    ftype: FieldType

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise TableFileError(f"invalid field name {self.name!r}")


class DataTable:
    """An ordered collection of named typed columns parsed from one file.

    Every column is a numpy array:

    * ``token``  int64 codes, with the column's distinct tokens in
      ``tokens[name]``: code ``c >= 1`` is ``tokens[name][c - 1]`` and
      code 0 (``PAD_ID``) is a missing cell
    * ``float``  float64 array, NaN = missing

    A token column whose name ``tokens`` lacks is given as its cells, a
    list of ``str`` (``None`` or ``""`` = missing), and is encoded here;
    codes come only with their token list, so such a column given as an
    array is an error.
    a float column may be given as any sequence of floats.
    Tables are immutable by convention: every transformation returns a new
    table and shares unmodified columns and token lists.
    """

    def __init__(self, kind, fields, columns, tokens=None):
        self.kind = TableKind(kind)
        self.fields = tuple(fields)
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise TableFileError(f"duplicate field name in {names}")
        if set(columns) != set(names):
            raise TableFileError("columns do not match the declared fields")
        self.columns, self.tokens = dict(columns), dict(tokens or {})
        for f in self.fields:
            if f.ftype == FieldType.FLOAT:
                self.columns[f.name] = np.asarray(columns[f.name], dtype=np.float64)
            elif f.name not in self.tokens:
                if isinstance(columns[f.name], np.ndarray):
                    raise TableFileError(f"token column {f.name!r} is an array "
                                         "without its token list")
                self.columns[f.name], self.tokens[f.name] = _token_codes(columns[f.name])
        lengths = {len(self.columns[n]) for n in names} or {0}
        if len(lengths) != 1:
            raise TableFileError(f"ragged columns: lengths {sorted(lengths)}")
        self.row_count = lengths.pop()
        _validate_kind_shape(self)

    def field(self, name) -> FieldSpec:
        for f in self.fields:
            if f.name == name:
                return f
        raise TableFileError(f"unknown field {name!r}")

    def has_field(self, name):
        return any(f.name == name for f in self.fields)

    @property
    def field_names(self):
        return [f.name for f in self.fields]

    def decode(self, name):
        """The token column ``name`` as its cells: ``str``, ``None`` = missing."""
        cells = [None, *self.tokens[name]]
        return [cells[c] for c in self.columns[name].tolist()]

    def select_rows(self, indices) -> "DataTable":
        """New table keeping only ``indices``, in the given order."""
        indices = np.asarray(indices, dtype=np.intp)
        cols = {name: col[indices] for name, col in self.columns.items()}
        return DataTable(self.kind, self.fields, cols, self.tokens)

    def append_field(self, spec: FieldSpec, column) -> "DataTable":
        """New table with ``spec`` and ``column`` added, or replacing a
        same-named field."""
        fields = tuple(spec if f.name == spec.name else f for f in self.fields)
        if not self.has_field(spec.name):
            fields += (spec,)
        tokens = {n: t for n, t in self.tokens.items() if n != spec.name}
        return DataTable(self.kind, fields, {**self.columns, spec.name: column}, tokens)

    def __len__(self):
        return self.row_count

    def __eq__(self, other):
        if not isinstance(other, DataTable):
            return NotImplemented
        if self.kind != other.kind or self.fields != other.fields:
            return False
        if self.row_count != other.row_count:
            return False
        for f in self.fields:
            if f.ftype == FieldType.TOKEN:
                if self.decode(f.name) != other.decode(f.name):
                    return False
            elif not np.array_equal(self.columns[f.name], other.columns[f.name],
                                    equal_nan=True):
                return False
        return True

    def __repr__(self):
        return (f"DataTable(kind={self.kind.value!r}, rows={self.row_count}, "
                f"fields={[f'{f.name}:{f.ftype.value}' for f in self.fields]})")


def _token_codes(cells):
    """``(codes, tokens)`` of a token column given as its cells.

    ``tokens`` lists the distinct non-missing cells in first-occurrence
    order, and ``codes`` is the int64 array of each cell's 1-based place
    in it, 0 for a missing (``None`` or empty) cell.  The table's only
    encoder of token cells.
    """
    # one dict pass: a token seen for the first time takes the next code
    code_of = defaultdict(count(1).__next__, {None: 0, "": 0})
    codes = np.fromiter(map(code_of.__getitem__, cells), np.int64, len(cells))
    return codes, list(code_of)[2:]


def _validate_kind_shape(table: DataTable):
    """Enforce the per-kind field-layout rules."""
    kind, fields = table.kind, table.fields
    if kind == TableKind.INTER:
        if sum(f.ftype == FieldType.TOKEN for f in fields) < 2:
            raise TableFileError(
                ".inter files need at least two token fields (user ID, item ID)")
    elif not fields or fields[0].ftype != FieldType.TOKEN:
        raise TableFileError(f".{kind.value} files must start with a token ID field")


def _check_separator(sep):
    if len(sep) != 1:
        raise TableFileError(f"separator must be a single character, got {sep!r}")
    if sep in {":", " ", "\n", "\r"}:
        raise TableFileError(f"separator {sep!r} collides with the file syntax")


def _parse_header(line, sep, where):
    """The header's fields in column order; ``None`` marks a skipped column."""
    fields, names = [], []
    for part in line.split(sep):
        name, colon, tag = part.rpartition(":")
        if not colon or not name:
            raise TableFileError(f"{where}: malformed header entry {part!r} "
                                 "(expected name:type)")
        try:
            fields.append(None if tag in SKIPPED_TAGS else FieldSpec(name, FieldType(tag)))
        except ValueError:
            raise TableFileError(f"{where}: unknown type tag {tag!r} in {part!r}") from None
        except TableFileError as exc:
            raise TableFileError(f"{where}: {exc}") from None
        names.append(name)
    if len(set(names)) != len(names):
        raise TableFileError(f"{where}: duplicate field name in header")
    return fields


def _parse_cell(text, ftype, where):
    if ftype == FieldType.TOKEN:
        return text or None
    if not text:
        return math.nan
    try:
        value = float(text)
    except ValueError:
        raise TableFileError(f"{where}: non-numeric value {text!r} in a float field") from None
    if math.isinf(value):
        raise TableFileError(f"{where}: non-finite value {text!r} in a float field")
    return value  # NaN text is accepted and treated as missing


def read_table(path, kind, sep=",") -> DataTable:
    """Parse one table file into a :class:`DataTable`.

    Raises :class:`TableFileError` for a malformed header, an unknown type
    tag, a row with the wrong field count (the message names the line), or
    non-numeric text in a float field.  Row order is preserved; a missing
    cell becomes token code 0 or a NaN float.  Sequence columns are read past.
    """
    _check_separator(sep)
    kind = TableKind(kind)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            raw = handle.read()
    except OSError as exc:
        raise TableFileError(f"cannot read {path}: {exc}") from None
    if not raw:
        raise TableFileError(f"{path}: empty file, missing header")
    header, _, body = raw.partition("\n")
    del raw
    fields = _parse_header(header.rstrip("\r"), sep, f"{path}:1")
    try:
        columns = _parse_columns(body, fields, sep, path)
    except (ValueError, TableFileError):
        _raise_first_fault(body, fields, sep, path)
        raise
    return DataTable(kind, [f for f in fields if f is not None], columns)


def _body_lines(body):
    """The record lines after the header, each without its trailing ``\\r``s."""
    if not body:
        return []
    lines = body.split("\n")
    if lines[-1] == "":
        lines.pop()
    if "\r" in body:
        lines = [line.rstrip("\r") for line in lines]
    return lines


def _parse_columns(body, fields, sep, path):
    """The body's columns, each converted whole; raises on any fault."""
    nf = len(fields)
    lines = _body_lines(body)
    if not set(map(str.count, lines, repeat(sep))) <= {nf - 1}:
        raise ValueError("wrong field count")
    n, joined = len(lines), sep.join(lines)
    del lines  # free the line strings before the cells exist: the parse's memory peak
    cells = joined.split(sep) if n else []
    del joined
    columns = {}
    for j, f in enumerate(fields):
        if f is None:
            continue
        col = cells[j::nf]
        if f.ftype == FieldType.FLOAT:
            if "" in col:
                col = [c or "nan" for c in col]
            col = np.array(list(map(float, col)), dtype=np.float64)
            if np.isinf(col).any():
                raise ValueError("non-finite float")
        columns[f.name] = col
    return columns


def _raise_first_fault(body, fields, sep, path):
    """Parse cell by cell and raise the first fault in row-major order."""
    for lineno, line in enumerate(_body_lines(body), start=2):
        cells = line.split(sep)
        if len(cells) != len(fields):
            raise TableFileError(
                f"{path}:{lineno}: expected {len(fields)} fields, got {len(cells)}")
        for f, cell in zip(fields, cells):
            if f is not None:
                _parse_cell(cell, f.ftype, f"{path}:{lineno} field {f.name!r}")


def _format_cell(value, ftype, sep, where):
    if ftype == FieldType.FLOAT:
        if math.isinf(value):
            raise TableFileError("cannot write a non-finite float")
        return "" if math.isnan(value) else repr(value)
    if value is None:
        return ""
    if sep in value or "\n" in value or "\r" in value:
        raise TableFileError(f"{where}: token {value!r} contains the separator "
                             "or a newline; cells cannot be escaped")
    return value


def write_table(table: DataTable, path, sep=","):
    """Write ``table`` so that :func:`read_table` reproduces it exactly.

    Floats are written with round-trip-safe precision (``repr``); missing
    values become empty cells.
    """
    _check_separator(sep)
    lines = [sep.join(f"{f.name}:{f.ftype.value}" for f in table.fields)]
    columns = [table.decode(f.name) if f.ftype == FieldType.TOKEN
               else table.columns[f.name].tolist() for f in table.fields]
    for i in range(table.row_count):
        cells = []
        for f, column in zip(table.fields, columns):
            cells.append(_format_cell(column[i], f.ftype, sep, f"row {i} field {f.name!r}"))
        lines.append(sep.join(cells))
    try:
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise TableFileError(f"cannot write {path}: {exc}") from None


def convert_csv(path, mapping, kind, delimiter=",") -> DataTable:
    """Convert a delimited text file with a header into a :class:`DataTable`.

    ``mapping`` assigns source columns to table fields:
    ``{"userId": ("user_id", FieldType.TOKEN), ...}``.  Unmapped source
    columns are dropped.  Coercion failures name the offending row and
    field.
    """
    kind = TableKind(kind)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            reader = csv.reader(handle, delimiter=delimiter)
            rows = list(reader)
    except OSError as exc:
        raise TableFileError(f"cannot read {path}: {exc}") from None
    if not rows:
        raise TableFileError(f"{path}: empty file, missing header")
    header = rows[0]
    positions = {}
    fields = []
    for src, (dst, ftype) in mapping.items():
        if src not in header:
            raise TableFileError(f"{path}: source column {src!r} not found "
                                 f"(header has {header})")
        positions[dst] = header.index(src)
        fields.append(FieldSpec(dst, FieldType(ftype)))
    data: dict[str, list] = {f.name: [] for f in fields}
    for lineno, row in enumerate(rows[1:], start=2):
        for f in fields:
            pos = positions[f.name]
            cell = row[pos].strip() if pos < len(row) else ""
            data[f.name].append(
                _parse_cell(cell, f.ftype, f"{path}:{lineno} field {f.name!r}"))
    return DataTable(kind, fields, data)
