"""Item-based collaborative filtering on cosine similarity."""

from __future__ import annotations

import numpy as np

from .. import _topk_np
from ..errors import ModelError
from .itemitem import ItemItemModel


class ItemKNNModel(ItemItemModel):
    """Cosine item-item neighborhoods with shrinkage.

    sim(i, j) = |U_i AND U_j| / (sqrt(|U_i|) * sqrt(|U_j|) + shrink),
    self-similarity excluded, only the top ``k`` neighbors per item kept
    (ties broken by ascending item ID).  score(u, i) sums sim(i, j) over
    the user's training items j, so the weight matrix is ``sim.T``.
    """

    kind = "itemknn"
    weights_key = "similarity"
    _stored = staticmethod(np.transpose)

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        self.k = int(self.hyper.get("k", 100))
        self.shrink = float(self.hyper.get("shrink", 0.0))
        if self.k < 1:
            raise ModelError("itemknn needs k >= 1 neighbors")
        if self.shrink < 0:
            raise ModelError("itemknn shrink must be >= 0")

    @property
    def sim(self):
        """The pruned similarity matrix, a view of ``W.T``."""
        return None if self.W is None else self.W.T

    def _fit(self, X):
        sim = (X.T @ X).toarray(order="C")  # C order: top-k reads it uncopied
        # sqrt of the product keeps parallel item vectors at exactly 1.0;
        # the division runs in place, so the fit holds two n_items² buffers
        denom = np.outer(np.diag(sim), np.diag(sim))
        np.sqrt(denom, out=denom)
        denom += self.shrink
        np.divide(sim, denom, out=sim, where=denom > 0)
        sim[denom <= 0] = 0.0
        del denom
        np.fill_diagonal(sim, 0.0)
        return self._prune_transposed(sim)

    def _prune_transposed(self, sim):
        """``W`` = the transpose of ``sim`` with each row's top k kept."""
        m = sim.shape[0]
        k = min(self.k, m - 1) if m > 1 else 1
        keep_idx = _topk_np.topk_indices(sim, k)
        W = np.zeros_like(sim)
        rows = np.repeat(np.arange(m), k)
        cols = keep_idx.ravel()
        W[cols, rows] = sim[rows, cols]
        return W
