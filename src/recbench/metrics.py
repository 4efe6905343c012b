"""Ranking and value metrics, plus the metric register.

Ranking metrics consume only the binary hit matrix and the per-user
positive counts (never raw scores), so they are shared verbatim between
the accelerated pipeline and the naive per-user oracle.  Each returns a
per-user float64 array with NaN for users that have no positives; such
users are excluded from the reported mean.

Custom metrics can be signed into the register with
:func:`register_metric` and then requested by name like the built-ins.
"""

from __future__ import annotations

import numpy as np

from .errors import EvalError


def _discounts(k):
    # gain 1/log2(rank+1) with ranks 1-based
    return 1.0 / np.log2(np.arange(2, k + 2, dtype=np.float64))


def _exclude_empty(values, pos_counts):
    values = values.astype(np.float64)
    values[pos_counts == 0] = np.nan
    return values


def mean_of(per_user):
    """Mean over evaluated users (NaN entries are excluded)."""
    keep = ~np.isnan(per_user)
    if not keep.any():
        raise EvalError("no users with positives to evaluate")
    return float(np.mean(per_user[keep]))


def recall_at_k(hits, pos_counts, k):
    """Fraction of each user's positives found in the top k."""
    found = hits[:, :k].sum(axis=1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        per_user = found / pos_counts
    return _exclude_empty(per_user, pos_counts)


def precision_at_k(hits, pos_counts, k):
    """Fraction of the top k that are positives."""
    per_user = hits[:, :k].sum(axis=1, dtype=np.float64) / k
    return _exclude_empty(per_user, pos_counts)


def ndcg_at_k(hits, pos_counts, k):
    """Binary-relevance NDCG with the ideal DCG truncated at min(k, positives)."""
    w = _discounts(k)
    dcg = (hits[:, :k].astype(np.float64) * w).sum(axis=1)
    ideal_cum = np.concatenate([[0.0], np.cumsum(w)])
    idcg = ideal_cum[np.minimum(pos_counts, k)]
    with np.errstate(divide="ignore", invalid="ignore"):
        per_user = dcg / idcg
    return _exclude_empty(per_user, pos_counts)


def mrr_at_k(hits, pos_counts, k):
    """Reciprocal rank of the first hit within the top k (0 if none)."""
    window = hits[:, :k]
    any_hit = window.any(axis=1)
    first = window.argmax(axis=1)
    per_user = np.where(any_hit, 1.0 / (first + 1.0), 0.0)
    return _exclude_empty(per_user, pos_counts)


def value_metrics(predictions, truths):
    """RMSE and MAE between prediction and truth arrays."""
    predictions = np.asarray(predictions, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if predictions.shape != truths.shape or predictions.size == 0:
        raise EvalError(f"prediction/truth shape mismatch: "
                        f"{predictions.shape} vs {truths.shape}")
    err = predictions - truths
    return {"rmse": float(np.sqrt(np.mean(err ** 2))),
            "mae": float(np.mean(np.abs(err)))}


def rmse(predictions, truths):
    return value_metrics(predictions, truths)["rmse"]


def mae(predictions, truths):
    return value_metrics(predictions, truths)["mae"]


_RANKING = {
    "recall": recall_at_k,
    "precision": precision_at_k,
    "ndcg": ndcg_at_k,
    "mrr": mrr_at_k,
}
_VALUE = {"rmse": rmse, "mae": mae}


def register_metric(name, fn, kind="ranking"):
    """Sign a metric into the register.

    Ranking metrics take ``(hits, pos_counts, k)`` and return a per-user
    array, larger is better; value metrics take ``(predictions, truths)``
    and return a float error, smaller is better.  Early stopping and
    search ranking follow that direction (see :func:`metric_direction`).
    """
    name = name.lower()
    if kind == "ranking":
        _RANKING[name] = fn
    elif kind == "value":
        _VALUE[name] = fn
    else:
        raise EvalError(f"unknown metric kind {kind!r}")


def metric_kind(name):
    name = name.lower()
    if name in _RANKING:
        return "ranking"
    if name in _VALUE:
        return "value"
    raise EvalError(f"unknown metric {name!r} "
                    f"(registered: {sorted(_RANKING) + sorted(_VALUE)})")


def ranking_metric(name):
    try:
        return _RANKING[name.lower()]
    except KeyError:
        raise EvalError(f"unknown ranking metric {name!r}") from None


def value_metric(name):
    try:
        return _VALUE[name.lower()]
    except KeyError:
        raise EvalError(f"unknown value metric {name!r}") from None


def metric_direction(name):
    """+1 if larger is better (ranking), -1 if smaller is better (value)."""
    return -1 if metric_kind(name.split("@")[0]) == "value" else 1
