"""The two-function model interface and shared training plumbing.

Every model exposes the same three entry points:

* ``calculate_loss(batch)``  the training step: consumes one batch,
  updates parameters, returns the (finite) scalar loss.  Closed-form
  models fit entirely on their first call and return 0.0 afterwards.
* ``predict(batch)``         per-row scores for (user, item) pairs.
* ``full_sort_predict(users)``  an (n_users_in_batch, n_items) score
  matrix over the whole catalog, consistent with ``predict``.  It is a
  new array that the caller owns: the evaluator masks it in place.

Every model yields its own epoch batches through ``epoch_batches(rng)``,
so the trainer runs one loop for all of them: iterative models shuffle
and batch their training pairs for many epochs, closed-form models yield
their one whole-train batch for a single epoch.

Iterative models derive from :class:`SGDModel`, which owns the epoch
batching, the SGD step and the dense gradients; a subclass supplies only
its batches (``_batch``) and its per-row gradients (``_row_grads``).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..batch import Batch
from ..errors import ModelError


def _add_rows(E, rows, V):
    """``E[rows[k]] += V[k]`` for each k in order, like ``np.add.at(E, rows, V)``.

    The scatter runs over ``E``'s flat buffer, where numpy's 1-D fast path
    applies; each element receives the same additions in the same order,
    so the result is bitwise the same.  ``E`` is 1-D (one value per row)
    or 2-D and must be C-contiguous.
    """
    d = E[0].size
    np.add.at(E.reshape(-1), (rows[:, None] * d + np.arange(d)).ravel(), V.ravel())


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    embedding_dim: int = 64
    l2: float = 1e-6
    batch_size: int = 256
    epochs: int = 50
    patience: int = 5
    seed: int = 42
    loss: str = "bpr"

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if self.embedding_dim < 1:
            raise ModelError("embedding_dim must be >= 1")
        if self.l2 < 0:
            raise ModelError("l2 must be >= 0")
        if self.batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        if self.epochs < 1:
            raise ModelError("epochs must be >= 1")
        if self.patience < 1:
            raise ModelError("patience must be >= 1")

    def to_dict(self):
        return asdict(self)


class Model:
    """Base class; subclasses fill in the scoring and training logic."""

    kind = "base"
    iterative = False

    def __init__(self, ds, train_rows, cfg: TrainConfig, params=None, rng=None):
        self.ds = ds
        self.train_rows = np.asarray(train_rows, dtype=np.int64)
        self.cfg = cfg
        self.n_users = ds.n_users
        self.n_items = ds.n_items
        self.hyper = dict(params or {})

    # -- interface ---------------------------------------------------------

    def calculate_loss(self, batch: Batch) -> float:
        raise NotImplementedError

    def predict(self, batch: Batch) -> np.ndarray:
        raise NotImplementedError

    def full_sort_predict(self, users) -> np.ndarray:
        raise NotImplementedError

    def epoch_batches(self, rng):
        """Training batches for one epoch; closed form: the whole-train batch.

        The base version draws nothing from ``rng``.
        """
        yield self.train_batch()

    def train_batch(self) -> Batch:
        """The single whole-train batch used to fit closed-form models."""
        users = self.ds.user_ids()[self.train_rows]
        items = self.ds.item_ids()[self.train_rows]
        return Batch({self.ds.user_field: users, self.ds.item_field: items})

    # -- state -------------------------------------------------------------

    def state_arrays(self) -> dict:
        """Learned parameters as named float64 arrays."""
        raise NotImplementedError

    def load_state_arrays(self, arrays):
        raise NotImplementedError

    def _pair_columns(self, batch):
        try:
            return batch[self.ds.user_field], batch[self.ds.item_field]
        except KeyError as exc:
            raise ModelError(f"batch lacks the {exc.args[0]!r} column") from None


class SGDModel(Model):
    """An iterative model trained by seeded mini-batch SGD.

    A subclass supplies ``_batch(sel, rng)``, the batch of the training
    pairs at positions ``sel`` (it may draw negatives from ``rng``), and
    ``_row_grads(batch)``: the batch objective, a SUM over rows so step
    sizes do not shrink with the batch size, and, in update order,
    ``(name, rows, grads)`` triples, ``grads[k]`` being the gradient of
    row ``rows[k]`` of ``state_arrays()[name]``.  ``_state`` maps each
    state array's name to the attribute that holds it; ``state_arrays()``
    returns those live arrays, which the step updates in place, so
    ``load_state_arrays`` stores C-contiguous copies.
    """

    iterative = True

    def __init__(self, ds, train_rows, cfg, params=None, rng=None):
        super().__init__(ds, train_rows, cfg, params, rng)
        if len(self.train_rows) == 0:
            raise ModelError("empty train split")
        self._users = ds.user_ids()[self.train_rows]
        self._items = ds.item_ids()[self.train_rows]

    def epoch_batches(self, rng):
        """One permutation of the training pairs, cut into ``batch_size`` slices."""
        order = rng.permutation(len(self.train_rows))
        bs = self.cfg.batch_size
        for lo in range(0, len(order), bs):
            yield self._batch(order[lo:lo + bs], rng)

    def calculate_loss(self, batch):
        """One SGD step; returns the per-row mean of the batch objective."""
        total, triples = self._row_grads(batch)
        arrays = self.state_arrays()
        lr = self.cfg.learning_rate
        for name, rows, grads in triples:
            _add_rows(arrays[name], rows, -lr * grads)
        return float(total) / len(batch)

    def loss_and_grads(self, batch):
        """Summed batch objective and its dense gradients, without updating."""
        total, triples = self._row_grads(batch)
        grads = {name: np.zeros_like(arr) for name, arr in self.state_arrays().items()}
        for name, rows, row_grads in triples:
            _add_rows(grads[name], rows, row_grads)
        return float(total), grads

    def state_arrays(self):
        return {name: getattr(self, attr) for name, attr in self._state.items()}

    def load_state_arrays(self, arrays):
        for name, attr in self._state.items():
            setattr(self, attr, arrays[name].astype(np.float64, order="C"))
