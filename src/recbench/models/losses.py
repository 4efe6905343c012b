"""Reusable loss components for pairwise training.

All losses are means over score pairs so the learning rate does not
depend on the batch size; the matching ``*_grad`` helpers return the
exact gradients of those means with respect to the score arrays.

:func:`expit`, the logistic function behind BPR's and FM's gradients and
FM's predictions, gives the bits of scipy's ``expit`` without importing
scipy until a process has computed enough values for the import to pay
for itself, or asks for a whole scoring sweep in one call.
"""

from __future__ import annotations

import math

import numpy as np

from ..errors import ModelError

# log(DBL_MAX): math.exp of this float is finite, of the next one up it
# raises OverflowError, where the C exp that scipy calls returns inf
_EXP_MAX = 709.782712893384

# Values the exact math.exp route may compute in one process before
# expit switches to scipy's for good.  On a 2-core x86-64 VM, importing
# scipy's special module after numpy takes 0.16-0.28 s, and the math.exp
# route costs 60-90 ns per value more than scipy's, so about 2M values
# cost as much as the import: a run that passes the budget pays the
# import plus at most about as much again.
_EXPIT_BUDGET = 2_000_000
# A call larger than this goes to scipy at once.  Such calls are scoring
# sweeps (FM's full_sort_predict scores eval_batch_size users x every
# item per call), which repeat for every user batch and would spend the
# budget in a few calls; and the exact route's temporary list of Python
# floats stays about 2 MB.
_EXACT_CALL_MAX = 1 << 16
# Process-wide, like the import they stand for.  Threads that race on the
# count can only move the switch, which changes no bits.
_exact_values = 0    # values the math.exp route has computed so far
_scipy_expit = None  # scipy's expit, once the budget is spent


def _exact_expit(x):
    """``1 / (1 + exp(-x))`` through the C library's ``exp``, elementwise.

    scipy's ``expit`` computes the same expression with the same
    ``exp``, and numpy's add and divide are correctly rounded, so the bits
    match; an ``exp`` that overflows becomes ``inf`` and gives 0.0.
    """
    t = -x.ravel()
    t[t > _EXP_MAX] = np.inf
    e = np.fromiter(map(math.exp, t.tolist()), np.float64, t.size)
    return (1.0 / (1.0 + e)).reshape(x.shape)


def expit(x):
    """The logistic function, bit-identical to scipy's ``expit``.

    Computes through :func:`_exact_expit` until a call is larger than
    ``_EXACT_CALL_MAX`` or would take the process past ``_EXPIT_BUDGET``
    values, then imports scipy's and uses it for that call and every later
    one.  Both routes give the same bits, so where the switch falls moves
    only time.
    """
    global _exact_values, _scipy_expit
    x = np.asarray(x, dtype=np.float64)
    if _scipy_expit is None and (x.size > _EXACT_CALL_MAX
                                 or _exact_values + x.size > _EXPIT_BUDGET):
        from scipy.special import expit as _scipy_expit
    if _scipy_expit is not None:
        return _scipy_expit(x)
    _exact_values += x.size
    return _exact_expit(x)


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
    logits = np.asarray(logits, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    return (expit(logits) - labels) / logits.size
