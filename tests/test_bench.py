"""Benchmark harness sanity (small sizes; the full-scale run lives in
the acceptance suite)."""

import numpy as np
import pytest

from recbench import _topk_np, bench
from recbench.bench import bench_eval
from recbench.errors import EvalError


class _TiedScores(bench.FixedScores):
    """Serves the benchmark's scores rounded to integers: many ties."""

    def __init__(self, matrix):
        super().__init__(np.round(matrix))


def _highest_index_first(scores, k):
    """Top-k that breaks ties toward the higher item index (wrong rule)."""
    m = scores.shape[1]
    flipped = np.argsort(-scores[:, ::-1], axis=1, kind="stable")[:, :k]
    return m - 1 - flipped


class TestBenchEval:
    def test_paths_produce_identical_reports(self):
        result = bench_eval(200, 300, k=5, repeats=2, seed=7)
        assert result.reports_identical
        assert result.naive_seconds > 0 and result.accel_seconds > 0
        assert result.speedup == pytest.approx(
            result.naive_seconds / result.accel_seconds)

    def test_tied_scores_identical_with_correct_kernel(self, monkeypatch):
        monkeypatch.setattr(bench, "FixedScores", _TiedScores)
        assert bench_eval(200, 300, k=10, repeats=1, seed=7).reports_identical

    def test_wrong_tie_break_detected(self, monkeypatch):
        # the warmup reports are the identity check; a kernel that breaks
        # ties the wrong way must still be caught
        monkeypatch.setattr(bench, "FixedScores", _TiedScores)
        monkeypatch.setattr(_topk_np, "topk_indices", _highest_index_first)
        result = bench_eval(200, 300, k=10, repeats=1, seed=7)
        assert result.reports_identical is False
        assert "reports identical        : NO" in result.to_text()

    def test_deterministic_metrics(self):
        a = bench_eval(100, 150, k=5, repeats=1, seed=3)
        b = bench_eval(100, 150, k=5, repeats=1, seed=3)
        assert a.metrics == b.metrics

    def test_rejects_bad_sizes(self):
        with pytest.raises(EvalError):
            bench_eval(0, 10)
        with pytest.raises(EvalError):
            bench_eval(10, 1)

    def test_text_rendering(self):
        result = bench_eval(50, 80, k=3, repeats=1, seed=1)
        text = result.to_text()
        assert "naive per-user full sort" in text
        assert "speedup" in text
