"""The vectorized top-K ranking pipeline.

Evaluation of a batch of users runs in four steps over one score matrix
with a row per user in the batch:

1. reshape   build the matrix.  Full ranking: the dense n x m model
             scores (m = catalog size).  Sampled ranking: the compact
             n x w form of :func:`compact_scores`, each row a user's
             candidates in ascending item ID with their scores, padded
             at the end with -inf (w = the longest candidate list, at
             least K), plus the matching matrix of item IDs;
2. fill      overwrite each user's training-item scores with -inf so they
             cannot be recommended (optional, full ranking only).  The
             evaluator fills the matrix it built in place
             (``Evaluator._batch_scores``);
3. topk      per row, the K highest-scoring column indices, descending
             score, ties broken by ascending index -- partial selection,
             never a full sort.  Sampled rows map the columns back to
             item IDs with :func:`compact_top_items`;
4. index     look each top-K item up in that user's positives, yielding
             the n x K binary hit matrix all ranking metrics are computed
             from.  :func:`positive_hits` does this with no n x m
             relevance matrix; :func:`index_hits` gathers from a dense
             :func:`relevance_matrix` and gives the same result.

Sampled scores travel in one form: a flat array holding the model's
scores of every user's candidates, concatenated in row order (the order
of :func:`row_cells`).  :func:`compact_scores` and :func:`reshape_scores`
with ``candidates=`` both take it, and check its length.

The compact form ranks exactly as the full-width n x m matrix that is
-inf except at the candidates (:func:`reshape_scores` with
``candidates=``), which the naive oracle still builds.  Column order is
item order, so the tie-break carries over.  A row with only f < K scores
above -inf ranks, full width, the lowest-ID items scoring -inf in its
last K - f slots: non-candidates, -inf candidates and the padding item
0 alike.  :func:`compact_top_items` fills those slots with the same
items, the first K - f IDs below K that are not among the row's f.

The topk step is the hot kernel: :mod:`recbench._topk_np`, partial
selection in numpy whose output is bit-identical to a stable full sort.
``TOPK_BACKEND`` names it in run records.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _topk_np
from .errors import EvalError
from .protocol import in_sorted, sorted_distinct

NEG_INF = -np.inf

TOPK_BACKEND = "numpy"


def topk_find(scores, k):
    """Indices of the k largest entries per row of ``scores``.

    Rows of the result are ordered by descending score; equal scores are
    broken by ascending item index; a NaN score raises ``NaNScoreError``.
    """
    scores = np.asarray(scores, dtype=np.float64)
    if scores.ndim != 2:
        raise EvalError(f"expected a 2-D score matrix, got shape {scores.shape}")
    n, m = scores.shape
    if not 1 <= k <= m:
        raise EvalError(f"k={k} out of range for {m} items")
    return _topk_np.topk_indices(scores, k)


def reshape_scores(scores, n_items, candidates=None) -> np.ndarray:
    """Arrange model scores as one dense (n, n_items) float64 matrix.

    Full ranking: ``scores`` is already (n, n_items) and is validated and
    converted.  Sampled ranking: ``scores`` holds the scores of
    ``candidates`` (a per-user list of item-ID arrays) concatenated in row
    order; the matrix is -inf outside the candidates.
    """
    if candidates is None:
        mat = np.asarray(scores, dtype=np.float64)
        if mat.ndim != 2 or mat.shape[1] != n_items:
            raise EvalError(f"expected shape (n, {n_items}), got {mat.shape}")
        return mat
    rows, cols, values = _candidate_cells(scores, candidates, n_items)
    out = np.full((len(candidates), n_items), NEG_INF, dtype=np.float64)
    out[rows, cols] = values
    return out


def _candidate_cells(scores, candidates, n_items):
    """``(rows, cols, values)`` of flat candidate scores, checked."""
    rows, cols = row_cells(candidates)
    if len(cols) and cols.max() >= n_items:
        raise EvalError(f"candidate index {int(cols.max())} >= n_items={n_items}")
    if len(cols) and cols.min() < 0:
        raise EvalError(f"candidate index {int(cols.min())} < 0")
    values = np.asarray(scores, dtype=np.float64)
    if values.shape != cols.shape:
        raise EvalError(f"{values.size} scores for {len(cols)} candidates")
    return rows, cols, values


def compact_scores(scores, candidates, n_items, k):
    """Sampled-ranking scores in compact form: ``(values, items)``.

    ``scores`` holds the model's scores of ``candidates`` (a per-user list
    of item-ID arrays; ``None`` or empty rows allowed) concatenated in row
    order.  Row r of the two (n, w) results holds user r's distinct
    candidates in ascending item ID and their scores, then -inf with item
    0 up to w = max(longest row, k).  A repeated candidate keeps its last
    score and the padding item 0 scores -inf, as in the full-width matrix.
    """
    rows, cols, values = _candidate_cells(scores, candidates, n_items)
    keys = rows * n_items + cols.astype(np.int64)
    if np.any(keys[1:] <= keys[:-1]):  # a row out of item order, or a repeat
        order = np.argsort(keys, kind="stable")
        order = order[np.append(keys[order][1:] != keys[order][:-1], True)]
        rows, cols, values = rows[order], cols[order], values[order]
    n = len(candidates)
    counts = np.bincount(rows, minlength=n)
    width = max(int(counts.max(initial=0)), k)
    slot = np.arange(len(rows)) - np.repeat(np.cumsum(counts) - counts, counts)
    out = np.full((n, width), NEG_INF)
    out[rows, slot] = np.where(cols == 0, NEG_INF, values)
    items = np.zeros((n, width), dtype=np.int64)
    items[rows, slot] = cols
    return out, items


def compact_top_items(top, values, items):
    """Item IDs of the compact top-k columns ``top``, with the full-width filler.

    A row with only f < k values above -inf takes, in its last k - f
    slots, the lowest item IDs not among its first f: below k there are
    always enough of them.
    """
    n, k = top.shape
    out = np.take_along_axis(items, top, axis=1)
    ranked = np.count_nonzero(np.take_along_axis(values, top, axis=1) > NEG_INF,
                              axis=1)[:, None]
    slots = np.arange(k)
    taken = np.zeros((n, k), dtype=bool)
    r, j = np.nonzero((slots < ranked) & (out < k))
    taken[r, out[r, j]] = True
    free = np.argsort(taken, axis=1, kind="stable")  # unused IDs < k, ascending
    filler = np.take_along_axis(free, np.maximum(slots - ranked, 0), axis=1)
    return np.where(slots < ranked, out, filler)


def row_cells(per_row):
    """``(rows, cols)`` index arrays of a per-row list of column indices.

    ``None`` or empty entries contribute no cells, so ``mat[row_cells(x)]``
    addresses every listed cell with one fancy index.
    """
    counts = [0 if c is None else len(c) for c in per_row]
    rows = np.repeat(np.arange(len(counts)), counts)
    cols = [np.asarray(c) for c, n in zip(per_row, counts) if n]
    return rows, np.concatenate(cols) if cols else np.empty(0, dtype=np.intp)


@dataclass(frozen=True)
class HitMatrix:
    """Binary hits at the top-K ranks plus per-user positive counts."""

    hits: np.ndarray        # (n, K) int8: 1 where rank k held a positive
    pos_counts: np.ndarray  # (n,) int64: positives per user

    def __post_init__(self):
        if self.hits.shape[0] != self.pos_counts.shape[0]:
            raise EvalError("hit matrix and positive counts disagree on users")

    @staticmethod
    def concatenate(blocks) -> "HitMatrix":
        blocks = list(blocks)
        if not blocks:
            raise EvalError("no hit-matrix blocks collected")
        return HitMatrix(np.concatenate([b.hits for b in blocks], axis=0),
                         np.concatenate([b.pos_counts for b in blocks]))


def index_hits(topk, relevance) -> HitMatrix:
    """Gather ``relevance`` at the top-K indices: hits[u][k] = rel[u][topk[u][k]]."""
    topk = np.asarray(topk)
    relevance = np.asarray(relevance)
    if topk.shape[0] != relevance.shape[0]:
        raise EvalError("top-k matrix and relevance matrix disagree on users")
    hits = np.take_along_axis(relevance, topk, axis=1).astype(np.int8)
    return HitMatrix(hits, relevance.sum(axis=1).astype(np.int64))


def positive_hits(topk, positives, n_items) -> HitMatrix:
    """Hits of ``topk`` against per-user positive item IDs, no dense matrix.

    hits[u][k] = 1 where topk[u][k] is one of ``positives[u]``, and
    pos_counts[u] is the number of *distinct* positives, so the result
    equals ``index_hits(topk, relevance_matrix(positives, n_items))``.
    Each (user, item) pair is encoded as one key ``row * n_items + item``;
    hits are found by binary search in the sorted distinct keys.
    """
    topk = np.asarray(topk, dtype=np.int64)
    n = topk.shape[0]
    if n != len(positives):
        raise EvalError("top-k matrix and positives disagree on users")
    rows, items = row_cells(positives)
    if len(items) and (items.min() < 0 or items.max() >= n_items):
        raise EvalError(f"positive item ID out of range for {n_items} items")
    keys = sorted_distinct(rows * n_items + items.astype(np.int64))
    pos_counts = np.bincount(keys // n_items, minlength=n).astype(np.int64)
    query = np.arange(n, dtype=np.int64)[:, None] * n_items + topk
    return HitMatrix(in_sorted(keys, query).astype(np.int8), pos_counts)


def relevance_matrix(positives, n_items) -> np.ndarray:
    """Dense (n, n_items) int8 matrix flagging each user's positives."""
    out = np.zeros((len(positives), n_items), dtype=np.int8)
    out[row_cells(positives)] = 1
    return out
