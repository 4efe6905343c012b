"""Matrix factorization trained on pairwise ranking loss.

User and item embeddings are learned by plain seeded mini-batch SGD so
that checkpoint/resume stays bitwise deterministic: one uniformly
sampled training negative per positive, resampled every epoch, pairwise
loss (logistic by default, hinge via ``loss: margin``) plus L2 weight
decay on the embeddings touched by the batch.
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch
from ..errors import ModelError
from ..protocol import in_sorted, user_index
from .base import Model, _add_rows
from .losses import PAIRWISE_LOSSES


class BPRModel(Model):
    kind = "bpr"
    iterative = True

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        if len(self.train_rows) == 0:
            raise ModelError("empty train split")
        if cfg.loss not in PAIRWISE_LOSSES:
            raise ModelError(f"unknown pairwise loss {cfg.loss!r} "
                             f"(available: {sorted(PAIRWISE_LOSSES)})")
        self._loss_fn, self._grad_fn = PAIRWISE_LOSSES[cfg.loss]
        self._users = ds.user_ids()[self.train_rows]
        self._items = ds.item_ids()[self.train_rows]
        users, indptr, items = user_index(self._users, self._items, self.n_items)
        counts = np.diff(indptr)
        full = users[counts >= self.n_items - 1]
        if len(full):
            raise ModelError(f"user {int(full[0])} interacted with every item; "
                             "no training negative exists")
        self._seen_keys = np.repeat(users * self.n_items, counts) + items
        d = cfg.embedding_dim
        rng = rng if rng is not None else np.random.default_rng(cfg.seed)
        self.user_emb = rng.normal(0.0, 0.01, size=(self.n_users, d))
        self.item_emb = rng.normal(0.0, 0.01, size=(self.n_items, d))

    # -- training ----------------------------------------------------------

    def _sample_negatives(self, rng, users):
        n = self.n_items
        negs = np.empty(len(users), dtype=np.int64)
        redo = np.arange(len(users))
        while len(redo):  # redraw, in batch order, only the draws that hit a train pair
            negs[redo] = rng.integers(1, n, size=len(redo))
            redo = redo[in_sorted(self._seen_keys, users[redo] * n + negs[redo])]
        return negs

    def epoch_batches(self, rng):
        order = rng.permutation(len(self._users))
        bs = self.cfg.batch_size
        for lo in range(0, len(order), bs):
            sel = order[lo:lo + bs]
            users = self._users[sel]
            yield Batch({
                self.ds.user_field: users,
                "pos_item": self._items[sel],
                "neg_item": self._sample_negatives(rng, users),
            })

    def _row_grads(self, batch):
        """Per-pair gradients of the summed batch objective.

        The update is classic per-example SGD applied in parallel: the
        batch objective is the SUM of pair losses plus L2 on the touched
        rows, so step sizes do not shrink with the batch size.
        ``calculate_loss`` still reports the per-pair mean.
        """
        users = batch[self.ds.user_field]
        pos = batch["pos_item"]
        neg = batch["neg_item"]
        n = len(users)
        pu = self.user_emb[users]
        qi = self.item_emb[pos]
        qj = self.item_emb[neg]
        pos_scores = (pu * qi).sum(axis=1)
        neg_scores = (pu * qj).sum(axis=1)
        g_pos, g_neg = self._grad_fn(pos_scores, neg_scores)
        g_pos, g_neg = g_pos * n, g_neg * n  # mean gradient -> per-pair
        reg = 2.0 * self.cfg.l2
        g_pu = g_pos[:, None] * qi + g_neg[:, None] * qj + reg * pu
        g_qi = g_pos[:, None] * pu + reg * qi
        g_qj = g_neg[:, None] * pu + reg * qj
        total = (self._loss_fn(pos_scores, neg_scores) * n
                 + self.cfg.l2
                 * ((pu ** 2).sum() + (qi ** 2).sum() + (qj ** 2).sum()))
        return total, users, pos, neg, g_pu, g_qi, g_qj

    def calculate_loss(self, batch):
        total, users, pos, neg, g_pu, g_qi, g_qj = self._row_grads(batch)
        lr = self.cfg.learning_rate
        _add_rows(self.user_emb, users, -lr * g_pu)
        _add_rows(self.item_emb, np.concatenate([pos, neg]),
                  -lr * np.concatenate([g_qi, g_qj]))
        return float(total) / len(users)

    def loss_and_grads(self, batch):
        """Summed batch objective and its dense gradients, without updating."""
        total, users, pos, neg, g_pu, g_qi, g_qj = self._row_grads(batch)
        g_user = np.zeros_like(self.user_emb)
        g_item = np.zeros_like(self.item_emb)
        _add_rows(g_user, users, g_pu)
        _add_rows(g_item, np.concatenate([pos, neg]), np.concatenate([g_qi, g_qj]))
        return float(total), {"user_embeddings": g_user, "item_embeddings": g_item}

    # -- scoring -----------------------------------------------------------

    def predict(self, batch):
        users, items = self._pair_columns(batch)
        return (self.user_emb[users] * self.item_emb[items]).sum(axis=1)

    def full_sort_predict(self, users):
        return self.user_emb[np.asarray(users)] @ self.item_emb.T

    def state_arrays(self):
        return {"user_embeddings": self.user_emb, "item_embeddings": self.item_emb}

    def load_state_arrays(self, arrays):
        self.user_emb = arrays["user_embeddings"].astype(np.float64, order="C")
        self.item_emb = arrays["item_embeddings"].astype(np.float64, order="C")
