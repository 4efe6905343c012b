"""Second-order factorization machine with logistic output.

The feature map one-hot encodes the user and item IDs and appends the
user-profile and item-profile features: each token field contributes one
slot per vocabulary entry (value 1.0 at the active ID), each float field
a single slot carrying its value.  Per-row interaction context fields are
not part of the map, so pair prediction and full-catalog scoring agree.
Each side's slot indices and values are tabulated per entity once, at
construction, so looking up a batch's slots is one row gather per side.

The score is the classic second-order form

    y = w0 + sum_a w[a] x_a
           + 1/2 * sum_f [ (sum_a v[a,f] x_a)^2 - sum_a v[a,f]^2 x_a^2 ]

trained with stable logistic loss on the binary label column by the
seeded mini-batch SGD of :class:`~.base.SGDModel`; ``predict`` returns
sigmoid(y).
"""

from __future__ import annotations

from collections import namedtuple

import numpy as np

from ..batch import Batch
from ..errors import ModelError
from ..tables import FieldType
from .base import SGDModel
from .losses import expit, logistic_loss, logistic_loss_grad


# one feature field inside the flattened slot space: kind is "token" or
# "float", source "user_id", "item_id", "user_feat" or "item_feat"
_Slot = namedtuple("_Slot", "name kind offset source")


class FMModel(SGDModel):
    kind = "fm"
    _state = {"bias": "w0", "linear_weights": "w", "factor_matrix": "v"}

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        self.label_field = self.hyper.get("label_field", "label")
        if not ds.inter.has_field(self.label_field):
            raise ModelError(f"missing label column {self.label_field!r}; "
                             "derive one with set_label_by_threshold")
        self._build_feature_map(self.hyper.get("fields"))
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.w0 = np.zeros(1)
        self.w = np.zeros(self.n_slots)
        self.v = rng.normal(0.0, 0.01, size=(self.n_slots, cfg.embedding_dim))
        self._labels = ds.inter.columns[self.label_field][self.train_rows]

    # -- feature map -------------------------------------------------------

    def _build_feature_map(self, wanted):
        """Lay out the slot space and build each side's slot tables once.

        ``self._tables[side]`` holds, for every entity of that side, the
        int64 indices and float64 values of the side's slots, in
        ``self.slots`` order; ``self._side_cols[side]`` names those slots'
        positions in ``self.slots``.  An entity with no feature row gets
        the padding token and 0.0; a missing float becomes 0.0.  A
        ``wanted`` name that is neither an ID field nor a scalar feature
        field of the ``.user`` or ``.item`` table is an error.
        """
        ds = self.ds
        sides = (("user", ds.user_field, ds.user_feat, self.n_users),
                 ("item", ds.item_field, ds.item_feat, self.n_items))
        usable = [ds.user_field, ds.item_field]  # names fm.fields may give
        self.slots = [_Slot(ds.user_field, "token", 0, "user_id"),
                      _Slot(ds.item_field, "token", self.n_users, "item_id")]
        offset = self.n_users + self.n_items
        self._side_cols, self._tables = {}, {}
        for col, (side, key, table, n) in enumerate(sides):
            cols, idx, val = [col], [self.slots[col].offset + np.arange(n)], [np.ones(n)]
            rows = np.full(n, -1, dtype=np.int64)  # entity -> its feature row
            specs = ()
            if table is not None:
                rows[table.columns[key]] = np.arange(table.row_count, dtype=np.int64)
                specs = table.fields
            present, safe = rows >= 0, np.maximum(rows, 0)
            for spec in specs:
                if spec.name == key:
                    continue
                usable.append(spec.name)
                if wanted is not None and spec.name not in wanted:
                    continue
                cols.append(len(self.slots))
                self.slots.append(_Slot(spec.name, spec.ftype.value, offset, f"{side}_feat"))
                column = np.where(present, table.columns[spec.name][safe], 0)
                if spec.ftype == FieldType.TOKEN:
                    idx.append(offset + column)
                    val.append(np.ones(n))
                    offset += ds.vocabs[spec.name].size
                else:
                    idx.append(np.full(n, offset, dtype=np.int64))
                    val.append(np.nan_to_num(column, nan=0.0))
                    offset += 1
            self._side_cols[side] = cols
            self._tables[side] = (np.column_stack(idx), np.column_stack(val))
        unknown = sorted(set(wanted or ()).difference(usable))
        if unknown:
            raise ModelError(f"fm.fields: {', '.join(map(repr, unknown))} not "
                             "found among the ID and scalar feature fields "
                             f"of the .user and .item tables: {', '.join(usable)}")
        self.n_slots = offset

    def active_slots(self, users, items):
        """(indices, values) matrices of shape (B, fields) for given pairs.

        Columns follow ``self.slots``; the per-row sums over them are
        float reductions, so their order fixes the output bits.
        """
        idx = np.empty((len(users), len(self.slots)), dtype=np.int64)
        val = np.empty((len(users), len(self.slots)), dtype=np.float64)
        for side, entities in (("user", users), ("item", items)):
            cols = self._side_cols[side]
            idx[:, cols], val[:, cols] = self._side_half(
                np.asarray(entities, dtype=np.int64), side)
        return idx, val

    # -- forward / backward --------------------------------------------------

    def _forward(self, idx, val):
        """Logits of the rows' active slots, with the factor terms reused."""
        linear = self.w0 + (self.w[idx] * val).sum(axis=1)
        vx = self.v[idx] * val[:, :, None]
        total = vx.sum(axis=1)
        logits = linear + 0.5 * (total ** 2 - (vx ** 2).sum(axis=1)).sum(axis=1)
        return logits, vx, total

    def score_logits_from_slots(self, idx, val):
        return self._forward(idx, val)[0]

    def score_logits(self, batch):
        users, items = self._pair_columns(batch)
        return self.score_logits_from_slots(*self.active_slots(users, items))

    def predict(self, batch):
        return expit(self.score_logits(batch))

    def full_sort_predict(self, users):
        lin_u, su, qu = self._half_terms(
            *self._side_half(np.asarray(users, dtype=np.int64), "user"))
        lin_i, si, qi = self._half_terms(*self._tables["item"])
        cross = su @ si.T
        pair = 0.5 * ((su ** 2).sum(axis=1)[:, None] + 2.0 * cross
                      + (si ** 2).sum(axis=1)[None, :] - qu[:, None] - qi[None, :])
        return expit(self.w0 + lin_u[:, None] + lin_i[None, :] + pair)

    def _half_terms(self, idx, val):
        """Linear term, factor sum and squared-factor sum of one side's slots."""
        vx = self.v[idx] * val[:, :, None]
        return (self.w[idx] * val).sum(axis=1), vx.sum(axis=1), (vx ** 2).sum(axis=1).sum(axis=1)

    def _side_half(self, entities, side):
        """(indices, values) of one side's slots, in ``self.slots`` order."""
        idx, val = self._tables[side]
        return idx[entities], val[entities]

    # -- training ------------------------------------------------------------

    def _batch(self, sel, rng):
        return Batch({self.ds.user_field: self._users[sel],
                      self.ds.item_field: self._items[sel],
                      self.label_field: self._labels[sel]})

    def _row_grads(self, batch):
        """Per-row gradients of the summed batch objective."""
        if self.label_field not in batch:
            raise ModelError(f"missing label column {self.label_field!r} in batch")
        users, items = self._pair_columns(batch)
        labels = batch[self.label_field]
        idx, val = self.active_slots(users, items)
        logits, vx, total = self._forward(idx, val)
        n = len(users)
        g_logit = logistic_loss_grad(logits, labels) * n  # mean -> per-row
        reg = 2.0 * self.cfg.l2
        g_w_rows = g_logit[:, None] * val + reg * self.w[idx]
        g_v_rows = (g_logit[:, None, None]
                    * val[:, :, None] * (total[:, None, :] - vx)
                    + reg * self.v[idx])
        total_loss = (logistic_loss(logits, labels) * n
                      + self.cfg.l2
                      * ((self.w[idx] ** 2).sum() + (self.v[idx] ** 2).sum()))
        rows = idx.ravel()
        return total_loss, [("bias", np.zeros(1, dtype=np.int64), np.array([g_logit.sum()])),
                            ("linear_weights", rows, g_w_rows.ravel()),
                            ("factor_matrix", rows, g_v_rows.reshape(-1, self.v.shape[1]))]
