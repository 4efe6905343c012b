"""Metric formulas against independent scan/set-based references."""

import math

import numpy as np
import pytest

from recbench.errors import EvalError
from recbench.metrics import (mean_of, metric_direction, metric_kind,
                              mrr_at_k, ndcg_at_k, precision_at_k,
                              recall_at_k, register_metric, value_metrics)


def _reference(hits_row, pos_count, k):
    """Scan-based reference metrics for one user, pure python.

    Users without positives are excluded from every metric (NaN), matching
    the documented reporting rule.
    """
    if pos_count == 0:
        return math.nan, math.nan, math.nan, math.nan
    prefix = [int(h) for h in hits_row[:k]]
    found = sum(prefix)
    recall = found / pos_count
    precision = found / k
    dcg = sum(1.0 / math.log2(rank + 2) for rank, h in enumerate(prefix) if h)
    idcg = sum(1.0 / math.log2(rank + 2) for rank in range(min(pos_count, k)))
    ndcg = dcg / idcg
    mrr = 0.0
    for rank, h in enumerate(prefix):
        if h:
            mrr = 1.0 / (rank + 1)
            break
    return recall, precision, ndcg, mrr


class TestWorkedExamples:
    def test_ndcg_hits_at_ranks_1_and_3(self):
        hits = np.array([[1, 0, 1]], dtype=np.int8)
        value = ndcg_at_k(hits, np.array([2]), 3)[0]
        # 1 + 1/log2(4) = 1.5 over 1 + 1/log2(3)
        assert abs(value - 0.91972) < 1e-5

    def test_recall_third(self):
        assert recall_at_k(np.array([[1, 0]], dtype=np.int8),
                           np.array([3]), 2)[0] == pytest.approx(1 / 3)

    def test_recall_all_found(self):
        assert recall_at_k(np.array([[1, 1, 0]], dtype=np.int8),
                           np.array([2]), 3)[0] == 1.0

    def test_precision_two_thirds(self):
        assert precision_at_k(np.array([[1, 0, 1]], dtype=np.int8),
                              np.array([2]), 3)[0] == pytest.approx(2 / 3)

    def test_precision_no_hits(self):
        assert precision_at_k(np.array([[0, 0]], dtype=np.int8),
                              np.array([1]), 2)[0] == 0.0

    def test_perfect_ndcg(self):
        assert ndcg_at_k(np.array([[1, 1]], dtype=np.int8),
                         np.array([2]), 2)[0] == 1.0

    def test_ndcg_no_hits(self):
        assert ndcg_at_k(np.array([[0, 0]], dtype=np.int8),
                         np.array([4]), 2)[0] == 0.0

    def test_mrr_first_hit_rank_3(self):
        assert mrr_at_k(np.array([[0, 0, 1]], dtype=np.int8),
                        np.array([1]), 3)[0] == pytest.approx(1 / 3)

    def test_mrr_rank_1(self):
        assert mrr_at_k(np.array([[1, 0]], dtype=np.int8),
                        np.array([1]), 2)[0] == 1.0


class TestAgainstReference:
    def test_500_random_instances(self, rng):
        for _ in range(500):
            n = int(rng.integers(1, 10))
            width = int(rng.integers(1, 15))
            k = int(rng.integers(1, width + 1))
            hits = (rng.random((n, width)) < 0.35).astype(np.int8)
            pos = np.maximum(hits.sum(axis=1), 0) + rng.integers(0, 4, size=n)
            got = {
                "recall": recall_at_k(hits, pos, k),
                "precision": precision_at_k(hits, pos, k),
                "ndcg": ndcg_at_k(hits, pos, k),
                "mrr": mrr_at_k(hits, pos, k),
            }
            for r in range(n):
                ref = _reference(hits[r], int(pos[r]), k)
                for name, expected in zip(("recall", "precision", "ndcg", "mrr"), ref):
                    value = got[name][r]
                    if math.isnan(expected):
                        assert math.isnan(value)
                    else:
                        assert abs(value - expected) < 1e-9, (name, r)

    def test_zero_positive_users_excluded_from_mean(self):
        hits = np.array([[1, 0], [0, 0]], dtype=np.int8)
        pos = np.array([1, 0])
        per_user = recall_at_k(hits, pos, 2)
        assert math.isnan(per_user[1])
        assert mean_of(per_user) == 1.0


class TestValueMetrics:
    def test_identity(self):
        out = value_metrics([1.0, 2.0], [1.0, 2.0])
        assert out == {"rmse": 0.0, "mae": 0.0}

    def test_hand_example(self):
        out = value_metrics([0.0, 0.0], [3.0, 4.0])
        assert out["mae"] == pytest.approx(3.5)
        assert out["rmse"] == pytest.approx(math.sqrt(12.5))

    def test_rmse_dominates_mae(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 30))
            pred, truth = rng.standard_normal(n), rng.standard_normal(n)
            out = value_metrics(pred, truth)
            assert out["rmse"] >= out["mae"] - 1e-12

    def test_length_mismatch(self):
        with pytest.raises(EvalError):
            value_metrics([1.0], [1.0, 2.0])


class TestRegister:
    def test_unknown_metric(self):
        with pytest.raises(EvalError, match="unknown metric"):
            metric_kind("auc")

    def test_register_custom(self):
        register_metric("hitrate", lambda hits, pos, k:
                        (hits[:, :k].sum(axis=1) > 0).astype(float))
        assert metric_kind("hitrate") == "ranking"

    def test_directions(self):
        assert metric_direction("ndcg@10") == 1
        assert metric_direction("rmse") == -1


class TestProperties:
    def test_recall_monotone_in_k(self, rng):
        hits = (rng.random((20, 10)) < 0.3).astype(np.int8)
        pos = hits.sum(axis=1) + 1
        previous = np.zeros(20)
        for k in range(1, 11):
            current = recall_at_k(hits, pos, k)
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_hit_count_monotone_in_k(self, rng):
        hits = (rng.random((20, 10)) < 0.3).astype(np.int8)
        pos = hits.sum(axis=1) + 1
        previous = np.zeros(20)
        for k in range(1, 11):
            current = precision_at_k(hits, pos, k) * k
            assert np.all(current >= previous - 1e-12)
            previous = current

    def test_all_metrics_bounded(self, rng):
        for _ in range(50):
            hits = (rng.random((8, 6)) < 0.4).astype(np.int8)
            pos = hits.sum(axis=1) + rng.integers(0, 3, size=8)
            keep = pos > 0
            for fn in (recall_at_k, precision_at_k, ndcg_at_k, mrr_at_k):
                vals = fn(hits, pos, 6)[keep]
                assert np.all(vals >= -1e-12) and np.all(vals <= 1 + 1e-12)


class TestValueDirection:
    def test_registered_value_metric_is_minimized(self, monkeypatch):
        import recbench.metrics as metrics_mod

        monkeypatch.setattr(metrics_mod, "_VALUE", dict(metrics_mod._VALUE))
        register_metric("mse", lambda p, t: float(np.mean((p - t) ** 2)),
                        kind="value")
        assert metric_direction("mse") == -1
        assert metric_direction("MAE") == -1
