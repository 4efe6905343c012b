"""Batch evaluation: the accelerated pipeline and the naive oracle.

The evaluator is decoupled from models and data: it consumes a scoring
interface (``full_sort_predict`` / ``predict``), per-user positives and
optional per-user masked histories, and a metric register.  Wiring a
dataset's split into those inputs is the runner's job
(:func:`recbench.runner.evaluate`).  Each pipeline keeps its per-batch
hit blocks in user order; metrics are computed once after the last
batch, so reports are invariant to the batch size.

Two execution paths share the scores and the metric code:

* ``evaluate``        reshape -> fill -> partial-selection topk -> hit
                      lookup in each user's positives.  Sampled
                      candidates are ranked in compact form, one row of
                      its own ~N candidates per user, padded with -inf;
                      a row with fewer than K scores above -inf gets the
                      full-width filler items (see :mod:`recbench.ranking`)
* ``evaluate_naive``  per-user full sort of full-width masked rows, -inf
                      outside the candidates under sampled ranking, hits
                      gathered from a dense relevance row

Both paths feed identical hit matrices into identical metric code, so a
correct kernel makes their reports byte-identical.

The one score mask is ``_batch_scores``' in-place -inf fill of each
user's history and of the padding column (item ID 0, never a real item).
Sampled scores stay one flat array from ``model.predict`` on, every
user's candidates concatenated in row order (see :mod:`recbench.ranking`).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from . import metrics as metrics_mod
from .batch import Batch
from .errors import EvalError, NaNScoreError
from .ranking import (NEG_INF, HitMatrix, compact_scores, compact_top_items,
                      index_hits, positive_hits, relevance_matrix,
                      reshape_scores, row_cells, topk_find)


@dataclass(frozen=True)
class MetricReport:
    """Flat metric values plus the provenance shown in report headers."""

    values: dict
    n_users: int
    masked: str
    candidates: str
    config_hash: str = ""

    def to_text(self):
        lines = [f"# users={self.n_users} masked={self.masked} "
                 f"candidates={self.candidates} config={self.config_hash or '-'}"]
        for key, value in self.values.items():
            lines.append(f"{key}\t{value!r}")
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = dict(self.values)
        payload["n_users"] = float(self.n_users)
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _full_sort(row):
    """Column indices of ``row`` by descending score, ties by ascending index.

    A quicksort order is that stable order when its scores strictly
    decrease; a row with a tie or a NaN is sorted again, stably.
    """
    order = np.argsort(-row)
    ranked = row[order]
    if not (ranked[:-1] > ranked[1:]).all():
        order = np.argsort(-row, kind="stable")
    return order


def _resolve_metrics(metric_names, ks):
    ranking, value = [], []
    for name in metric_names:
        kind = metrics_mod.metric_kind(name)
        if kind == "ranking":
            ranking.append(name.lower())
        else:
            value.append(name.lower())
    if ranking and not ks:
        raise EvalError("ranking metrics requested but no K values given")
    return ranking, value


class Evaluator:
    """Scores a model over fixed users, positives, and candidate sets.

    Parameters
    ----------
    n_items : catalog size (matrix width, including the padding column)
    users : evaluated user IDs, in report order
    positives : per-user arrays of relevant item IDs
    mask_items : optional per-user arrays of history to force to -inf
        (full ranking only; sampled candidates already exclude history)
    candidates : optional per-user candidate arrays (sampled ranking)
    value_pairs : optional ((users, items), truths) for rmse/mae metrics
    """

    def __init__(self, n_items, users, positives, metric_names, ks,
                 mask_items=None, candidates=None, batch_size=512,
                 mask_label="none", candidate_label="full",
                 value_pairs=None, config_hash="",
                 user_field="user_id", item_field="item_id"):
        self.n_items = int(n_items)
        self.users = np.asarray(users, dtype=np.int64)
        self.positives = list(positives)
        self.mask_items = list(mask_items) if mask_items is not None else None
        self.candidates = list(candidates) if candidates is not None else None
        self.ks = sorted(set(int(k) for k in ks))
        self.ranking_names, self.value_names = _resolve_metrics(metric_names, self.ks)
        self.batch_size = int(batch_size)
        self.mask_label = mask_label
        self.candidate_label = candidate_label
        self.value_pairs = value_pairs
        self.config_hash = config_hash
        self.user_field = user_field
        self.item_field = item_field
        if self.ks and self.ks[0] < 1:
            raise EvalError(f"K={self.ks[0]} must be >= 1")
        if self.batch_size < 1:
            raise EvalError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.mask_items is not None and self.candidates is not None:
            raise EvalError("mask_items applies to full ranking only; sampled "
                            "candidates already exclude the history")
        if self.ranking_names and self.ks and max(self.ks) >= self.n_items:
            raise EvalError(f"K={max(self.ks)} must be smaller than the "
                            f"catalog ({self.n_items} columns)")

    # -- score-matrix assembly -------------------------------------------

    def _candidate_scores(self, model, lo, hi):
        """Scores of the batch's candidates, concatenated in row order."""
        rows, items = row_cells(self.candidates[lo:hi])
        return model.predict(Batch({self.user_field: self.users[lo:hi][rows],
                                    self.item_field: items}))

    def _batch_scores(self, model, lo, hi):
        """The reshape and fill steps for one user batch, at full width.

        The matrix is the caller's own (``full_sort_predict`` returns a
        new array, and a sampled matrix is built here), so history
        masking and the padding fill happen in place.
        """
        if self.candidates is None:
            mat = reshape_scores(model.full_sort_predict(self.users[lo:hi]),
                                 self.n_items)
        else:
            mat = reshape_scores(self._candidate_scores(model, lo, hi),
                                 self.n_items, candidates=self.candidates[lo:hi])
        if self.mask_items is not None:
            mat[row_cells(self.mask_items[lo:hi])] = NEG_INF
        mat[:, 0] = NEG_INF  # padding slot is never a recommendation
        return mat

    # -- the two pipelines -----------------------------------------------

    def evaluate(self, model) -> MetricReport:
        """Accelerated path: batched pipeline with partial-selection topk.

        Full ranking selects over each batch's n x m score matrix, sampled
        ranking over the compact form of the batch's candidates.
        """
        blocks = []
        max_k = max(self.ks) if self.ks else 0
        if self.ranking_names:
            for lo in range(0, len(self.users), self.batch_size):
                hi = min(lo + self.batch_size, len(self.users))
                try:  # the score matrix is freed before the next batch's
                    if self.candidates is None:
                        top = topk_find(self._batch_scores(model, lo, hi), max_k)
                    else:
                        values, items = compact_scores(
                            self._candidate_scores(model, lo, hi),
                            self.candidates[lo:hi], self.n_items, max_k)
                        top = compact_top_items(topk_find(values, max_k),
                                                values, items)
                except NaNScoreError as exc:
                    raise EvalError(f"model scored NaN for user ID "
                                    f"{self.users[lo + exc.row]}") from None
                blocks.append(positive_hits(top, self.positives[lo:hi],
                                            self.n_items))
        return self._report(model, blocks)

    def evaluate_naive(self, model) -> MetricReport:
        """Oracle path: per-user full sort and scan over the same scores."""
        blocks = []
        max_k = max(self.ks) if self.ks else 0
        if self.ranking_names:
            for lo in range(0, len(self.users)):
                row = self._batch_scores(model, lo, lo + 1)[0]
                top = _full_sort(row)[:max_k]
                rel = relevance_matrix(self.positives[lo:lo + 1], self.n_items)
                blocks.append(index_hits(top[None, :], rel))
        return self._report(model, blocks)

    # -- shared tail -------------------------------------------------------

    def _value_arrays(self, model):
        """Predictions and truths over the value pairs, in pair order."""
        if self.value_pairs is None:
            raise EvalError("value metrics requested but no prediction targets "
                            "(is the truth field present?)")
        (users, items), truths = self.value_pairs
        bs = self.batch_size
        preds = [model.predict(Batch({self.user_field: users[lo:lo + bs],
                                      self.item_field: items[lo:lo + bs]}))
                 for lo in range(0, len(users), bs)]
        return (np.asarray(np.concatenate(preds), dtype=np.float64),
                np.asarray(truths, dtype=np.float64))

    def _report(self, model, blocks) -> MetricReport:
        """Metrics over the ranking hit blocks and the model's value predictions."""
        values = {}
        if self.ranking_names:
            hm = HitMatrix.concatenate(blocks)
            for name in self.ranking_names:
                fn = metrics_mod.ranking_metric(name)
                for k in self.ks:
                    per_user = fn(hm.hits, hm.pos_counts, k)
                    values[f"{name}@{k}"] = metrics_mod.mean_of(per_user)
        if self.value_names:
            preds, truths = self._value_arrays(model)
            for name in self.value_names:
                values[name] = metrics_mod.value_metric(name)(preds, truths)
        return MetricReport(values, len(self.users), self.mask_label,
                            self.candidate_label, self.config_hash)
