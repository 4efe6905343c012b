"""Timing harness: accelerated pipeline vs naive per-user sorting.

Builds a seeded random score matrix and random per-user positives, then
measures the same metric computation through both evaluation paths over
several repeats.  Each path first runs once untimed; that warmup run's
report is also the one checked for correctness, so no path runs an
extra time for the check.  Correctness is a precondition of the timing:
both paths must emit byte-identical reports, and the result records
whether they did.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import EvalError
from .evaluator import Evaluator
from .ranking import TOPK_BACKEND

_BENCH_METRICS = ("recall", "ndcg")


class FixedScores:
    """Pseudo-model serving rows of a precomputed score matrix.

    Like every model, it returns a new array the caller owns.
    """

    def __init__(self, matrix):
        self.matrix = matrix

    def full_sort_predict(self, users):
        return self.matrix[users]


@dataclass
class BenchResult:
    n_users: int
    n_items: int
    k: int
    repeats: int
    seed: int
    naive_seconds: float
    accel_seconds: float
    speedup: float
    reports_identical: bool
    backend: str
    metrics: dict = field(default_factory=dict)

    def to_text(self):
        lines = [
            f"benchmark: {self.n_users} users x {self.n_items} items, "
            f"K={self.k}, mean of {self.repeats} runs, seed={self.seed}",
            f"naive per-user full sort : {self.naive_seconds:.4f} s",
            f"accelerated pipeline     : {self.accel_seconds:.4f} s "
            f"(topk backend: {self.backend})",
            f"speedup                  : {self.speedup:.1f}x",
            f"reports identical        : {'yes' if self.reports_identical else 'NO'}",
        ]
        for key, value in self.metrics.items():
            lines.append(f"{key} = {value!r}")
        return "\n".join(lines) + "\n"


def _timed(fn, repeats):
    """Mean seconds of ``repeats`` timed calls, and the untimed warmup's result."""
    first = fn()  # warmup
    start = time.perf_counter()
    for _ in range(repeats):
        fn()
    return (time.perf_counter() - start) / repeats, first


def bench_eval(n_users, n_items, k=10, repeats=10, seed=0,
               batch_size=256) -> BenchResult:
    """Time both evaluation paths on one synthetic full-ranking instance."""
    if n_users < 1 or n_items < 2 or k < 1 or repeats < 1:
        raise EvalError("benchmark sizes must be positive (and n_items >= 2)")
    if seed < 0:
        raise EvalError(f"seed must be non-negative, got {seed}")
    rng = np.random.default_rng(seed)
    scores = rng.standard_normal((n_users, n_items))
    # at most n_items - 1 distinct positives: item 0 is padding
    pos_counts = np.minimum(rng.integers(1, 6, size=n_users), n_items - 1)
    positives = [rng.choice(np.arange(1, n_items), size=c, replace=False)
                 for c in pos_counts]
    model = FixedScores(scores)
    evaluator = Evaluator(n_items, np.arange(n_users), positives,
                          list(_BENCH_METRICS), [k], batch_size=batch_size,
                          mask_label="none", candidate_label="full")
    accel_s, accel_report = _timed(lambda: evaluator.evaluate(model), repeats)
    naive_s, naive_report = _timed(lambda: evaluator.evaluate_naive(model),
                                   repeats)
    identical = (accel_report.to_text() == naive_report.to_text()
                 and accel_report.to_json() == naive_report.to_json())
    return BenchResult(
        n_users=n_users, n_items=n_items, k=k, repeats=repeats, seed=seed,
        naive_seconds=naive_s, accel_seconds=accel_s,
        speedup=naive_s / accel_s if accel_s > 0 else float("inf"),
        reports_identical=identical, backend=TOPK_BACKEND,
        metrics=dict(accel_report.values))
