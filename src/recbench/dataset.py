"""Dataset assembly and preprocessing.

A :class:`Dataset` bundles the interaction table with optional user and
item feature tables, validates them against each other, and carries the
vocabularies produced by ID remapping.  Datasets are immutable: every
preprocessing function returns a new instance and shares the columns it
did not touch.

The canonical preprocessing order used by the runner is: row filters (in
config order) -> remap_ids -> fill_nan -> set_label_by_threshold ->
normalize.  Filters never re-remap IDs; remapping is a separate explicit
step so filtered-out entities do not occupy vocabulary slots.

The row filters are :func:`filter_by_inter_num` (k-core counts) and
:func:`filter_by_field_value` (one comparison on a float field, which a
missing value never satisfies).

Every table holds token and float fields only (``read_table`` reads past
sequence columns).  A token column has one form from the parse on: int64
codes, 0 for a missing cell, plus the column's token list.  Filters
select code rows, :func:`remap_ids` relabels the codes into one
vocabulary per field name, and :func:`fill_nan` imputes the float fields.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import DataError
from .tables import DataTable, FieldSpec, FieldType, TableKind

PAD_ID = 0
PAD_TOKEN = "[PAD]"


class Vocabulary:
    """Bijection between raw tokens and contiguous internal IDs.

    ID 0 is reserved for the padding/unknown token; real tokens get IDs
    1..size-1 in first-occurrence order.
    """

    def __init__(self, field_name, tokens):
        self.field = field_name
        unique = dict.fromkeys(tokens)  # first-occurrence order
        unique.pop(None, None)
        self.token_of = [PAD_TOKEN, *unique]
        self.id_of = dict(zip(unique, range(1, len(self.token_of))))

    @property
    def size(self):
        """Number of IDs including the reserved padding slot."""
        return len(self.token_of)

    def encode(self, token):
        return PAD_ID if token is None else self.id_of[token]

    def decode(self, idx):
        return self.token_of[idx]

    def __repr__(self):
        return f"Vocabulary(field={self.field!r}, size={self.size})"


@dataclass(frozen=True)
class Dataset:
    """Validated tables plus vocabularies; immutable after build.  Token
    columns are int64 codes, 0 = missing, and IDs into ``vocabs`` once encoded."""

    inter: DataTable
    user_feat: DataTable | None = None
    item_feat: DataTable | None = None
    user_field: str = "user_id"
    item_field: str = "item_id"
    vocabs: dict = field(default_factory=dict)
    encoded: bool = False

    @classmethod
    def build(cls, inter, user_feat=None, item_feat=None, user_field="user_id",
              item_field="item_id") -> "Dataset":
        if inter.kind != TableKind.INTER:
            raise DataError(f"interaction table has kind {inter.kind.value!r}")
        for name in (user_field, item_field):
            if not inter.has_field(name):
                raise DataError(f"interaction table lacks the {name!r} field")
            if inter.field(name).ftype != FieldType.TOKEN:
                raise DataError(f"field {name!r} must be a token field")
        if user_feat is not None and not user_feat.has_field(user_field):
            raise DataError(f"user table lacks the {user_field!r} field")
        if item_feat is not None and not item_feat.has_field(item_field):
            raise DataError(f"item table lacks the {item_field!r} field")
        missing = np.count_nonzero(inter.columns[user_field] == PAD_ID)
        if missing:
            raise DataError(f"field {user_field!r} is missing in {missing} interaction rows")
        return cls(inter, user_feat, item_feat, user_field, item_field)

    @property
    def tables(self):
        named = [("inter", self.inter), ("user_feat", self.user_feat),
                 ("item_feat", self.item_feat)]
        return [(name, t) for name, t in named if t is not None]

    @property
    def n_users(self):
        self._require_encoded()
        return self.vocabs[self.user_field].size

    @property
    def n_items(self):
        self._require_encoded()
        return self.vocabs[self.item_field].size

    def _require_encoded(self):
        if not self.encoded:
            raise DataError("dataset is not ID-encoded yet; call remap_ids")

    def user_ids(self):
        self._require_encoded()
        return self.inter.columns[self.user_field]

    def item_ids(self):
        self._require_encoded()
        return self.inter.columns[self.item_field]


# ---------------------------------------------------------------------------
# row filtering


def filter_by_inter_num(ds: Dataset, min_user=0, min_item=0) -> Dataset:
    """Drop users/items with too few interactions, iterated to a fixpoint.

    Alternates user and item removal until every remaining user has at
    least ``min_user`` rows and every remaining item at least ``min_item``
    rows (k-core semantics).  Relative row order is preserved.  Feature
    tables are untouched: entities that only appear there keep their rows.
    """
    if min_user < 0 or min_item < 0:
        raise DataError("interaction-count thresholds must be >= 0")
    # the token codes are the groups; code 0, a missing cell, is one of them
    groups = [(ds.inter.columns[name], len(ds.inter.tokens[name]) + 1, least)
              for name, least in ((ds.user_field, min_user), (ds.item_field, min_item))
              if least > 0]
    keep = np.ones(len(ds.inter), dtype=bool)
    changed = True
    while changed:
        changed = False
        for codes, n_codes, least in groups:
            bad = np.bincount(codes[keep], minlength=n_codes)[codes] < least
            bad &= keep
            if bad.any():
                keep &= ~bad
                changed = True
    if not keep.any():
        raise DataError("dataset emptied by filtering")
    if keep.all():
        return ds
    return replace(ds, inter=ds.inter.select_rows(np.flatnonzero(keep)))


_COMPARISONS = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater,
                "<": np.less, "==": np.equal, "!=": np.not_equal}


def filter_by_field_value(ds: Dataset, field_name, op, value) -> Dataset:
    """Keep interaction rows where ``field_name <op> value`` holds.

    ``op`` is one of ``>=``, ``<=``, ``>``, ``<``, ``==`` and ``!=``, and
    the field must be a float field.  A missing value satisfies no
    comparison, ``!=`` included.  No ID re-remapping happens here.
    """
    if not ds.inter.has_field(field_name):
        raise DataError(f"unknown field {field_name!r}")
    ftype = ds.inter.field(field_name).ftype
    if ftype != FieldType.FLOAT:
        raise DataError(f"field {field_name!r} is a {ftype.value} field; "
                        "comparisons need a float field")
    if op not in _COMPARISONS:
        raise DataError(f"unknown comparison {op!r}")
    column = ds.inter.columns[field_name]
    mask = _COMPARISONS[op](column, value) & ~np.isnan(column)
    if not mask.any():
        raise DataError("dataset emptied by filtering")
    if mask.all():
        return ds
    return replace(ds, inter=ds.inter.select_rows(np.flatnonzero(mask)))


# ---------------------------------------------------------------------------
# ID remapping


def remap_ids(ds: Dataset) -> Dataset:
    """Relabel every token field to contiguous IDs (first occurrence first).

    A token field's vocabulary is keyed by its name: every column of that
    name, in any table, shares it, and its tokens are taken in table
    order (``.inter``, then ``.user``, then ``.item``), each column's in
    the order of their first kept row.  So an item that only the item
    table holds still gets an ID, and a token that filtering dropped gets
    none.  Missing tokens keep code 0, the padding ID.  Each encoded
    column's token list is its vocabulary's ``token_of[1:]``.  Returns
    ``ds`` unchanged if it is already encoded.
    """
    if ds.encoded:
        return ds
    # each token column's present codes, in order of their first kept row
    present, sources = {}, {}
    for attr, table in ds.tables:
        for name, tokens in table.tokens.items():
            col = table.columns[name]
            first = np.full(len(tokens) + 1, len(col))
            np.minimum.at(first, col, np.arange(len(col)))
            first[PAD_ID] = len(col)  # a missing cell gets no ID
            codes = np.argsort(first, kind="stable")[:np.count_nonzero(first < len(col))]
            present[attr, name] = codes
            sources.setdefault(name, []).extend(tokens[c - 1] for c in codes.tolist())
    vocabs = {name: Vocabulary(name, tokens) for name, tokens in sources.items()}

    new_tables = {}
    for attr, table in ds.tables:
        cols, tokens = dict(table.columns), {}
        for name, old_tokens in table.tokens.items():
            codes, vocab = present[attr, name], vocabs[name]
            new_id = np.zeros(len(old_tokens) + 1, dtype=np.int64)
            new_id[codes] = [vocab.id_of[old_tokens[c - 1]] for c in codes.tolist()]
            cols[name], tokens[name] = new_id[cols[name]], vocab.token_of[1:]
        new_tables[attr] = DataTable(table.kind, table.fields, cols, tokens)
    return replace(ds, vocabs=vocabs, encoded=True, **new_tables)


# ---------------------------------------------------------------------------
# value repair and shaping


def fill_nan(ds: Dataset) -> Dataset:
    """Impute missing values across all tables.

    Missing floats become the column mean over observed values; a float
    column with no observed value is an error.  Missing tokens carry code
    0 from the parse on, the padding ID after :func:`remap_ids`, so they
    need no work here.
    """
    new_tables = {}
    for attr, table in ds.tables:
        filled = {}
        for spec in table.fields:
            if spec.ftype != FieldType.FLOAT:
                continue
            col = table.columns[spec.name]
            nans = np.isnan(col)
            if not nans.any():
                continue
            if nans.all():
                raise DataError(f"column {spec.name!r} has no observed values")
            filled[spec.name] = np.where(nans, col[~nans].mean(), col)
        if filled:
            new_tables[attr] = DataTable(table.kind, table.fields,
                                         {**table.columns, **filled}, table.tokens)
    return replace(ds, **new_tables) if new_tables else ds


def set_label_by_threshold(ds: Dataset, field_name, threshold, label_field="label") -> Dataset:
    """Add a binary ``label`` column: 1.0 where ``field_name`` >= threshold.

    Missing values count as below the threshold; run :func:`fill_nan`
    first if that is not wanted.
    """
    if not ds.inter.has_field(field_name):
        raise DataError(f"unknown field {field_name!r}")
    if ds.inter.field(field_name).ftype != FieldType.FLOAT:
        raise DataError(f"field {field_name!r} is not a float field")
    values = ds.inter.columns[field_name]
    labels = (values >= threshold).astype(np.float64)
    inter = ds.inter.append_field(FieldSpec(label_field, FieldType.FLOAT), labels)
    return replace(ds, inter=inter)


def normalize(ds: Dataset, fields) -> Dataset:
    """Min-max rescale the listed float columns to [0, 1].

    A constant column maps to all zeros.  Each occurrence of a field name
    (across tables) is rescaled independently.
    """
    remaining = set(fields)
    new_tables = {}
    for attr, table in ds.tables:
        scaled = {}
        for spec in table.fields:
            if spec.name not in fields:
                continue
            if spec.ftype != FieldType.FLOAT:
                raise DataError(f"field {spec.name!r} is not a float field")
            remaining.discard(spec.name)
            col = table.columns[spec.name]
            observed = col[~np.isnan(col)]
            if len(observed) == 0:
                raise DataError(f"column {spec.name!r} has no observed values")
            lo, hi = observed.min(), observed.max()
            if hi == lo:
                scaled[spec.name] = np.where(np.isnan(col), np.nan, 0.0)
            else:
                scaled[spec.name] = (col - lo) / (hi - lo)
        if scaled:
            new_tables[attr] = DataTable(table.kind, table.fields,
                                         {**table.columns, **scaled}, table.tokens)
    if remaining:
        raise DataError(f"unknown field {sorted(remaining)[0]!r}")
    return replace(ds, **new_tables) if new_tables else ds
