"""Closed-form shallow linear autoencoder over item co-occurrence."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .itemitem import ItemItemModel


class EASEModel(ItemItemModel):
    """Ridge-regularized item-weight matrix with a zero diagonal.

    With X the binary user-item training matrix and G = X'X + l2*I:

        P = G^-1
        B = I - P * diag(1 / diag(P)),  diag(B) = 0 exactly

    and score(u) = X[u] @ B, so the weight matrix ``W`` is ``B``.  The
    solve is dense, sized for catalogs that fit an n_items x n_items
    matrix in memory.
    """

    kind = "ease"
    weights_key = "item_weights"

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        self.l2 = float(self.hyper.get("l2", 250.0))
        if self.l2 <= 0:
            raise ModelError("ease needs l2 > 0")

    @property
    def item_weights(self):
        return self.W

    def _fit(self, X):
        gram = np.asarray((X.T @ X).todense(), dtype=np.float64)
        gram[np.diag_indices_from(gram)] += self.l2
        P = np.linalg.inv(gram)
        del gram
        # B = I - P / diag(P), in P's buffer: 0.0 - x keeps the signed zeros
        P /= np.diag(P).copy()
        B = np.subtract(0.0, P, out=P)
        np.fill_diagonal(B, 0.0)
        return B
