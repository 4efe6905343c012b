"""Reusable loss components for pairwise training.

All losses are means over score pairs so the learning rate does not
depend on the batch size; the matching ``*_grad`` helpers return the
exact gradients of those means with respect to the score arrays.
"""

from __future__ import annotations

import numpy as np

from ..errors import ModelError


def _check_pair(pos_scores, neg_scores):
    pos = np.asarray(pos_scores, dtype=np.float64)
    neg = np.asarray(neg_scores, dtype=np.float64)
    if pos.shape != neg.shape or pos.size == 0:
        raise ModelError(f"score arrays must be equal-length and nonempty, "
                         f"got {pos.shape} and {neg.shape}")
    return pos, neg


def bpr_loss(pos_scores, neg_scores) -> float:
    """Mean pairwise logistic loss -ln sigmoid(pos - neg).

    Computed as log(1 + exp(neg - pos)) via logaddexp, which neither
    overflows nor loses the tiny losses of well-separated pairs.
    """
    pos, neg = _check_pair(pos_scores, neg_scores)
    return float(np.mean(np.logaddexp(0.0, neg - pos)))


def bpr_loss_grad(pos_scores, neg_scores):
    """d(mean loss)/d(pos), d(mean loss)/d(neg)."""
    from scipy.special import expit

    pos, neg = _check_pair(pos_scores, neg_scores)
    s = expit(neg - pos) / pos.size
    return -s, s


def margin_loss(pos_scores, neg_scores, margin=1.0) -> float:
    """Mean hinge loss max(0, margin - (pos - neg))."""
    pos, neg = _check_pair(pos_scores, neg_scores)
    return float(np.mean(np.maximum(0.0, margin - (pos - neg))))


def margin_loss_grad(pos_scores, neg_scores, margin=1.0):
    pos, neg = _check_pair(pos_scores, neg_scores)
    active = ((margin - (pos - neg)) > 0).astype(np.float64) / pos.size
    return -active, active


PAIRWISE_LOSSES = {
    "bpr": (bpr_loss, bpr_loss_grad),
    "margin": (margin_loss, margin_loss_grad),
}


def logistic_loss(logits, labels) -> float:
    """Mean binary cross-entropy on raw logits, numerically stable."""
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return float(np.mean(np.logaddexp(0.0, logits) - labels * logits))


def logistic_loss_grad(logits, labels):
    """d(mean loss)/d(logits) = (sigmoid(logits) - labels) / n."""
    from scipy.special import expit

    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return (expit(logits) - labels) / logits.size
