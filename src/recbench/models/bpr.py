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
from .base import SGDModel
from .losses import PAIRWISE_LOSSES


class BPRModel(SGDModel):
    kind = "bpr"
    _state = {"user_embeddings": "user_emb", "item_embeddings": "item_emb"}

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        if cfg.loss not in PAIRWISE_LOSSES:
            raise ModelError(f"unknown pairwise loss {cfg.loss!r} "
                             f"(available: {sorted(PAIRWISE_LOSSES)})")
        self._loss_fn, self._grad_fn = PAIRWISE_LOSSES[cfg.loss]
        users, indptr, items = user_index(self._users, self._items, self.n_items)
        counts = np.diff(indptr)
        full = users[counts >= self.n_items - 1]
        if len(full):
            user = self.ds.vocabs[self.ds.user_field].decode(full[0])
            raise ModelError(f"user {user!r} interacted with every item; "
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

    def _batch(self, sel, rng):
        users = self._users[sel]
        return Batch({self.ds.user_field: users, "pos_item": self._items[sel],
                      "neg_item": self._sample_negatives(rng, users)})

    def _row_grads(self, batch):
        """Per-pair gradients of the summed batch objective.

        The item update is one scatter over the positives, then the
        negatives, so a row that is both takes its additions in that order.
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
        return total, [("user_embeddings", users, g_pu),
                       ("item_embeddings", np.concatenate([pos, neg]),
                        np.concatenate([g_qi, g_qj]))]

    # -- scoring -----------------------------------------------------------

    def predict(self, batch):
        users, items = self._pair_columns(batch)
        return (self.user_emb[users] * self.item_emb[items]).sum(axis=1)

    def full_sort_predict(self, users):
        return self.user_emb[np.asarray(users)] @ self.item_emb.T
