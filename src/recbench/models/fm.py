"""Second-order factorization machine with logistic output.

The feature map one-hot encodes the user and item IDs and appends the
user-profile and item-profile features: each token field contributes one
slot per vocabulary entry (value 1.0 at the active ID), each float field
a single slot carrying its value.  Per-row interaction context fields are
not part of the map, so pair prediction and full-catalog scoring agree.

The score is the classic second-order form

    y = w0 + sum_a w[a] x_a
           + 1/2 * sum_f [ (sum_a v[a,f] x_a)^2 - sum_a v[a,f]^2 x_a^2 ]

trained with stable logistic loss on the binary label column by seeded
mini-batch SGD; ``predict`` returns sigmoid(y).
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch
from ..errors import ModelError
from ..tables import FieldType
from .base import Model, _add_rows
from .losses import logistic_loss, logistic_loss_grad


class _Slot:
    """One feature field inside the flattened slot space."""

    def __init__(self, name, kind, offset, source):
        self.name = name
        self.kind = kind          # "token" | "float"
        self.offset = offset
        self.source = source      # "user_id" | "item_id" | "user_feat" | "item_feat"


def _feature_row_lookup(table, key_field, n_keys):
    """Map entity ID -> row of its feature table (-1 when absent)."""
    lookup = np.full(n_keys, -1, dtype=np.int64)
    keys = table.columns[key_field]
    lookup[keys] = np.arange(len(keys), dtype=np.int64)
    return lookup


class FMModel(Model):
    kind = "fm"
    iterative = True

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        if len(self.train_rows) == 0:
            raise ModelError("empty train split")
        self.label_field = self.hyper.get("label_field", "label")
        if not ds.inter.has_field(self.label_field):
            raise ModelError(f"missing label column {self.label_field!r}; "
                             "derive one with set_label_by_threshold")
        self._build_feature_map(self.hyper.get("fields"))
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.w0 = 0.0
        self.w = np.zeros(self.n_slots)
        self.v = rng.normal(0.0, 0.01, size=(self.n_slots, cfg.embedding_dim))
        self._train_users = ds.user_ids()[self.train_rows]
        self._train_items = ds.item_ids()[self.train_rows]
        self._train_labels = ds.inter.columns[self.label_field][self.train_rows]

    # -- feature map -------------------------------------------------------

    def _side_fields(self, table, key_field, wanted):
        fields = []
        if table is None:
            return fields
        for spec in table.fields:
            if spec.name == key_field or spec.ftype.is_seq:
                continue
            if wanted is not None and spec.name not in wanted:
                continue
            fields.append(spec)
        return fields

    def _build_feature_map(self, wanted):
        ds = self.ds
        wanted = set(wanted) if wanted is not None else None
        self.slots = []
        offset = 0

        def push(name, kind, width, source):
            nonlocal offset
            self.slots.append(_Slot(name, kind, offset, source))
            offset += width

        push(ds.user_field, "token", self.n_users, "user_id")
        push(ds.item_field, "token", self.n_items, "item_id")
        for source, table, key, size in (("user_feat", ds.user_feat, ds.user_field, self.n_users),
                                         ("item_feat", ds.item_feat, ds.item_field, self.n_items)):
            for spec in self._side_fields(table, key, wanted):
                if spec.ftype == FieldType.TOKEN:
                    push(spec.name, "token", ds.vocabs[spec.name].size, source)
                elif spec.ftype == FieldType.FLOAT:
                    push(spec.name, "float", 1, source)
        self.n_slots = offset
        self._side_cols = {side: [c for c, slot in enumerate(self.slots)
                                  if slot.source.startswith(side)]
                           for side in ("user", "item")}
        self._user_rows = (_feature_row_lookup(ds.user_feat, ds.user_field, self.n_users)
                           if ds.user_feat is not None else None)
        self._item_rows = (_feature_row_lookup(ds.item_feat, ds.item_field, self.n_items)
                           if ds.item_feat is not None else None)

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
        from scipy.special import expit

        return expit(self.score_logits(batch))

    def full_sort_predict(self, users):
        from scipy.special import expit

        users = np.asarray(users, dtype=np.int64)
        all_items = np.arange(self.n_items, dtype=np.int64)
        u_idx, u_val = self._side_half(users, "user")
        i_idx, i_val = self._side_half(all_items, "item")
        lin_u = (self.w[u_idx] * u_val).sum(axis=1)
        lin_i = (self.w[i_idx] * i_val).sum(axis=1)
        vu = self.v[u_idx] * u_val[:, :, None]
        vi = self.v[i_idx] * i_val[:, :, None]
        su, si = vu.sum(axis=1), vi.sum(axis=1)
        qu, qi = (vu ** 2).sum(axis=1).sum(axis=1), (vi ** 2).sum(axis=1).sum(axis=1)
        cross = su @ si.T
        pair = 0.5 * ((su ** 2).sum(axis=1)[:, None] + 2.0 * cross
                      + (si ** 2).sum(axis=1)[None, :] - qu[:, None] - qi[None, :])
        return expit(self.w0 + lin_u[:, None] + lin_i[None, :] + pair)

    def _side_half(self, entities, side):
        """(indices, values) of one side's slots, in ``self.slots`` order."""
        cols = [self.slots[c] for c in self._side_cols[side]]
        idx = np.empty((len(entities), len(cols)), dtype=np.int64)
        val = np.ones((len(entities), len(cols)), dtype=np.float64)
        for col, slot in enumerate(cols):
            if slot.source == f"{side}_id":
                idx[:, col] = slot.offset + entities
                continue
            rows = (self._user_rows if side == "user" else self._item_rows)[entities]
            table = self.ds.user_feat if side == "user" else self.ds.item_feat
            column = table.columns[slot.name]
            present = rows >= 0
            safe = np.where(present, rows, 0)
            if slot.kind == "token":
                idx[:, col] = slot.offset + np.where(present, column[safe], 0)
            else:
                idx[:, col] = slot.offset
                val[:, col] = np.nan_to_num(np.where(present, column[safe], 0.0), nan=0.0)
        return idx, val

    # -- training ------------------------------------------------------------

    def epoch_batches(self, rng):
        order = rng.permutation(len(self.train_rows))
        bs = self.cfg.batch_size
        for lo in range(0, len(order), bs):
            sel = order[lo:lo + bs]
            yield Batch({
                self.ds.user_field: self._train_users[sel],
                self.ds.item_field: self._train_items[sel],
                self.label_field: self._train_labels[sel],
            })

    def _batch_grads(self, batch):
        """Per-row gradients of the summed batch objective.

        Like the pairwise models, the update accumulates per-example
        gradients (sum, not mean), so step sizes are batch-size free;
        ``calculate_loss`` reports the per-row mean.
        """
        if self.label_field not in batch:
            raise ModelError(f"missing label column {self.label_field!r} in batch")
        users, items = self._pair_columns(batch)
        labels = batch[self.label_field]
        idx, val = self.active_slots(users, items)
        logits, vx, total = self._forward(idx, val)
        n = len(users)
        g_logit = logistic_loss_grad(logits, labels) * n  # mean -> per-row
        reg = 2.0 * self.cfg.l2
        g_w0 = float(g_logit.sum())
        g_w_rows = g_logit[:, None] * val + reg * self.w[idx]
        g_v_rows = (g_logit[:, None, None]
                    * val[:, :, None] * (total[:, None, :] - vx)
                    + reg * self.v[idx])
        total_loss = (logistic_loss(logits, labels) * n
                      + self.cfg.l2
                      * ((self.w[idx] ** 2).sum() + (self.v[idx] ** 2).sum()))
        return total_loss, idx, g_w0, g_w_rows, g_v_rows

    def calculate_loss(self, batch):
        total_loss, idx, g_w0, g_w_rows, g_v_rows = self._batch_grads(batch)
        lr = self.cfg.learning_rate
        self.w0 -= lr * g_w0
        np.add.at(self.w, idx, -lr * g_w_rows)
        _add_rows(self.v, idx.ravel(), -lr * g_v_rows.reshape(-1, self.v.shape[1]))
        return float(total_loss) / len(idx)

    def loss_and_grads(self, batch):
        """Summed batch objective and its dense gradients, without updating."""
        total_loss, idx, g_w0, g_w_rows, g_v_rows = self._batch_grads(batch)
        g_w = np.zeros_like(self.w)
        g_v = np.zeros_like(self.v)
        np.add.at(g_w, idx, g_w_rows)
        _add_rows(g_v, idx.ravel(), g_v_rows.reshape(-1, g_v.shape[1]))
        return float(total_loss), {"bias": np.array([g_w0]),
                                   "linear_weights": g_w,
                                   "factor_matrix": g_v}

    # -- state ---------------------------------------------------------------

    def state_arrays(self):
        return {"bias": np.array([self.w0]),
                "linear_weights": self.w,
                "factor_matrix": self.v}

    def load_state_arrays(self, arrays):
        self.w0 = float(arrays["bias"][0])
        self.w = arrays["linear_weights"].astype(np.float64)
        self.v = arrays["factor_matrix"].astype(np.float64, order="C")
