"""Item-item scoring shared by the neighborhood and linear-autoencoder models."""

from __future__ import annotations

import numpy as np

from ..errors import ModelError
from .base import Model


def binary_interaction_matrix(users, items, n_users, n_items):
    """Sparse 0/1 user-item matrix; duplicate pairs collapse to 1."""
    import scipy.sparse as sp  # only the models that use it pay for the import

    mat = sp.coo_matrix((np.ones(len(users), dtype=np.float64), (users, items)),
                        shape=(n_users, n_items)).tocsr()
    mat.data[:] = 1.0
    return mat


class ItemItemModel(Model):
    """Closed-form model scoring a user as ``X[u] @ W``.

    ``X`` is the binary user-item training matrix (``train_matrix``) and
    ``W`` one C-contiguous n_items x n_items weight matrix, so scipy's
    sparse-dense product reads it without a copy.  Subclasses compute
    ``W`` in ``_fit(X)`` and name its checkpoint array ``weights_key``,
    stored as ``_stored(W)``.
    """

    iterative = False

    @staticmethod
    def _stored(W):
        """W as laid out in the checkpoint; applying it twice gives W back."""
        return W

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        self.W = None
        self.train_matrix = None

    def calculate_loss(self, batch):
        if self.W is None:
            users, items = self._pair_columns(batch)
            X = binary_interaction_matrix(users, items, self.n_users, self.n_items)
            self.W = np.ascontiguousarray(self._fit(X))
            self.train_matrix = X
        return 0.0

    def _require_fit(self):
        if self.W is None:
            raise ModelError(f"{self.kind} model is not fitted yet")

    def _scores(self, users):
        self._require_fit()
        return np.asarray(self.train_matrix[users] @ self.W)

    def predict(self, batch):
        # one score row per distinct user, not per pair: each row of a
        # sparse-dense product is computed on its own, so the bits match
        users, items = self._pair_columns(batch)
        distinct, inv = np.unique(users, return_inverse=True)
        return self._scores(distinct)[inv, items]

    def full_sort_predict(self, users):
        return self._scores(np.asarray(users))

    def state_arrays(self):
        self._require_fit()
        coo = self.train_matrix.tocoo()
        return {
            self.weights_key: self._stored(self.W),
            "train_user": coo.row.astype(np.float64),
            "train_item": coo.col.astype(np.float64),
        }

    def load_state_arrays(self, arrays):
        self.W = np.ascontiguousarray(self._stored(arrays[self.weights_key]))
        users = arrays["train_user"].astype(np.int64)
        items = arrays["train_item"].astype(np.int64)
        self.train_matrix = binary_interaction_matrix(users, items,
                                                      self.n_users, self.n_items)
