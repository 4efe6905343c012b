"""End-to-end evaluation: accelerated pipeline vs the per-user oracle."""

import numpy as np
import pytest

from recbench.errors import EvalError
from recbench.evaluator import _full_sort
from recbench import Evaluator, evaluate
from recbench.models import PopularityModel, TrainConfig
from recbench.protocol import parse_eval_setting
from recbench.ranking import (compact_scores, compact_top_items, reshape_scores,
                              row_cells, topk_find)
from tests.conftest import build_dataset


class FixedScores:
    def __init__(self, matrix):
        self.matrix = np.asarray(matrix, dtype=np.float64)

    def full_sort_predict(self, users):
        return self.matrix[np.asarray(users)]

    def predict(self, batch):
        return self.matrix[batch["user_id"], batch["item_id"]]


def _random_instance(rng, n_users=None, n_items=None):
    n = n_users or int(rng.integers(2, 50))
    m = n_items or int(rng.integers(5, 50))
    scores = rng.standard_normal((n, m))
    positives = [np.sort(rng.choice(np.arange(1, m),
                                    size=rng.integers(1, min(4, m - 1) + 1),
                                    replace=False))
                 for _ in range(n)]
    hist = [np.sort(rng.choice(np.arange(1, m), size=rng.integers(0, m // 2),
                               replace=False)) for _ in range(n)]
    hist = [np.setdiff1d(h, p) for h, p in zip(hist, positives)]
    return scores, positives, hist


class TestPipelineEquivalence:
    def test_matches_naive_oracle_exactly(self, rng):
        for trial in range(25):
            scores, positives, hist = _random_instance(rng)
            n, m = scores.shape
            ev = Evaluator(m, np.arange(n), positives,
                           ["recall", "precision", "ndcg", "mrr"],
                           [1, 3, 5][:int(rng.integers(1, 4))],
                           mask_items=hist if trial % 2 else None,
                           batch_size=int(rng.integers(1, n + 1)))
            model = FixedScores(scores)
            fast = ev.evaluate(model)
            slow = ev.evaluate_naive(model)
            assert fast.to_text() == slow.to_text(), f"trial {trial}"
            assert fast.to_json() == slow.to_json(), f"trial {trial}"

    def test_wide_catalog_matches_naive_oracle(self, rng):
        # wide enough for the top-k screen; rounded scores tie, so the
        # naive oracle's quicksort order is redone stably
        for trial in range(6):
            scores, positives, hist = _random_instance(rng, n_users=150,
                                                       n_items=700)
            if trial % 2:
                scores = np.round(scores, 1)
            ev = Evaluator(700, np.arange(150), positives,
                           ["recall", "ndcg", "mrr"], [1, 5, 10],
                           mask_items=hist if trial % 3 else None,
                           batch_size=int(rng.integers(1, 151)))
            model = FixedScores(scores)
            fast, slow = ev.evaluate(model), ev.evaluate_naive(model)
            assert fast.to_json() == slow.to_json(), f"trial {trial}"

    def test_batch_size_invariance(self, rng):
        scores, positives, hist = _random_instance(rng, n_users=23, n_items=31)
        model = FixedScores(scores)
        reports = []
        for bs in (1, 7, 23):
            ev = Evaluator(31, np.arange(23), positives, ["recall", "ndcg"],
                           [5], mask_items=hist, batch_size=bs)
            reports.append(ev.evaluate(model).to_text())
        assert reports[0] == reports[1] == reports[2]

    def test_duplicated_unsorted_positives(self, rng):
        # positives count once each: the fast path's distinct count must
        # equal the naive path's dense relevance row sum
        for trial in range(10):
            scores, positives, hist = _random_instance(rng, n_users=12,
                                                       n_items=20)
            noisy = [rng.permutation(np.concatenate([p, p[:1], p]))
                     for p in positives]
            assert any(len(np.unique(p)) < len(p) for p in noisy)
            ev = Evaluator(20, np.arange(12), noisy,
                           ["recall", "precision", "ndcg", "mrr"], [1, 5, 10],
                           mask_items=hist, batch_size=5)
            model = FixedScores(scores)
            fast, slow = ev.evaluate(model), ev.evaluate_naive(model)
            assert fast.to_text() == slow.to_text(), f"trial {trial}"
            assert fast.to_json() == slow.to_json(), f"trial {trial}"
            dedup = Evaluator(20, np.arange(12), positives,
                              ["recall", "precision", "ndcg", "mrr"],
                              [1, 5, 10], mask_items=hist, batch_size=5)
            assert fast.to_text() == dedup.evaluate(model).to_text()

    def test_mask_items_with_none_and_empty_entries(self, rng):
        # the batched history fill must skip None and empty entries exactly
        # as masking each row by hand does
        for trial in range(15):
            scores, positives, hist = _random_instance(rng, n_users=14,
                                                       n_items=25)
            hist = [None if r % 3 == 0 else
                    np.empty(0, np.int64) if r % 3 == 1 else h
                    for r, h in enumerate(hist)]
            masked = scores.copy()
            for row, items in enumerate(hist):
                if items is not None and len(items):
                    masked[row, items] = -np.inf
            ev = Evaluator(25, np.arange(14), positives,
                           ["recall", "precision", "ndcg", "mrr"], [1, 5],
                           mask_items=hist, batch_size=int(rng.integers(1, 15)))
            ref = Evaluator(25, np.arange(14), positives,
                            ["recall", "precision", "ndcg", "mrr"], [1, 5])
            want = ref.evaluate_naive(FixedScores(masked)).to_json()
            model = FixedScores(scores)
            assert ev.evaluate(model).to_json() == want, f"trial {trial}"
            assert ev.evaluate_naive(model).to_json() == want, f"trial {trial}"

    def test_sampled_equals_full_when_candidates_cover_catalog(self, rng):
        # uni(m - |positives|) with every non-positive as candidate == full
        for _ in range(10):
            scores, positives, _ = _random_instance(rng, n_users=8, n_items=12)
            model = FixedScores(scores)
            cands = [np.arange(1, 12) for _ in range(8)]
            full = Evaluator(12, np.arange(8), positives, ["recall", "ndcg"],
                             [3], batch_size=4)
            samp = Evaluator(12, np.arange(8), positives, ["recall", "ndcg"],
                             [3], candidates=cands, batch_size=4)
            assert (full.evaluate(model).values == samp.evaluate(model).values)

    def test_masking_soundness(self, rng):
        # the masked history scores highest, and is all the positives there
        # are: a sound mask leaves nothing to recall
        n, m = 10, 30
        scores = rng.standard_normal((n, m))
        hist = [np.sort(rng.choice(np.arange(1, m), size=rng.integers(1, 8),
                                   replace=False)) for _ in range(n)]
        for r, items in enumerate(hist):
            scores[r, items] += 10.0
        model = FixedScores(scores)
        args = (m, np.arange(n), hist, ["recall"], [1, 5])
        unmasked = Evaluator(*args).evaluate(model).values
        assert unmasked["recall@5"] > 0
        ev = Evaluator(*args, mask_items=hist, batch_size=3)
        for report in (ev.evaluate(model), ev.evaluate_naive(model)):
            assert report.values == {"recall@1": 0.0, "recall@5": 0.0}


class TestNaiveFullSort:
    def test_equals_stable_argsort(self, rng):
        rows = [rng.standard_normal(500),
                np.round(rng.standard_normal(500), 1),
                np.zeros(50),
                np.array([0.0, -0.0, 1.0, -0.0, -np.inf, -np.inf]),
                np.array([np.nan, 1.0, np.nan, -np.inf, 2.0, np.nan])]
        for row in rows:
            np.testing.assert_array_equal(_full_sort(row),
                                          np.argsort(-row, kind="stable"))


def _sampled_instance(rng, n_users=None, n_items=None):
    """Random uniN-style candidates and scores with ties, -inf and short rows.

    Candidates are sorted and distinct, as ``build_candidates`` gives
    them; some rows are empty, ``None``, shorter than K or include the
    padding item 0.  Scores are normal, small integers (ties) or integers
    with -inf cells.
    """
    n = n_users or int(rng.integers(1, 30))
    m = n_items or int(rng.integers(6, 60))
    kind = int(rng.integers(0, 3))
    if kind == 0:
        scores = rng.standard_normal((n, m))
    else:
        scores = rng.integers(-2, 3, size=(n, m)).astype(np.float64)
        if kind == 2:
            scores[rng.random((n, m)) < 0.4] = -np.inf
    positives, candidates = [], []
    for r in range(n):
        pos = rng.choice(np.arange(1, m), size=int(rng.integers(1, 4)),
                         replace=False)
        neg = rng.choice(m, size=int(rng.integers(0, m // 2)), replace=False)
        cands = np.union1d(pos, neg)
        if r % 7 == 3:
            cands = np.union1d(cands, [0])
        positives.append(np.sort(pos))
        candidates.append(None if r % 11 == 5 else
                          cands[:0] if r % 11 == 6 else cands)
    return scores, positives, candidates


class TestCompactSampledPath:
    METRICS = ["recall", "precision", "ndcg", "mrr"]

    def test_matches_naive_oracle_on_random_unin(self, rng):
        for trial in range(150):
            scores, positives, cands = _sampled_instance(rng)
            n, m = scores.shape
            ks = sorted(rng.choice(np.arange(1, m), size=int(rng.integers(1, 4)),
                                   replace=False).tolist())
            ev = Evaluator(m, np.arange(n), positives, self.METRICS, ks,
                           candidates=cands,
                           batch_size=int(rng.integers(1, n + 1)))
            model = FixedScores(scores)
            fast, slow = ev.evaluate(model), ev.evaluate_naive(model)
            assert fast.to_text() == slow.to_text(), f"trial {trial}"
            assert fast.to_json() == slow.to_json(), f"trial {trial}"

    def test_top_items_match_full_width_ranking(self, rng):
        for trial in range(300):
            scores, _, cands = _sampled_instance(rng)
            n, m = scores.shape
            k = int(rng.integers(1, m))
            rows, items = row_cells(cands)
            full = reshape_scores(scores[rows, items], m, candidates=cands)
            full[:, 0] = -np.inf
            values, ids = compact_scores(scores[rows, items], cands, m, k)
            got = compact_top_items(topk_find(values, k), values, ids)
            np.testing.assert_array_equal(got, topk_find(full, k),
                                          err_msg=f"trial {trial}")

    def test_unsorted_and_repeated_candidates(self, rng):
        # a caller's candidate lists need not be sorted or distinct
        for trial in range(30):
            scores, positives, cands = _sampled_instance(rng)
            n, m = scores.shape
            noisy = [c if c is None else rng.permutation(np.concatenate([c, c[:2]]))
                     for c in cands]
            ev = Evaluator(m, np.arange(n), positives, self.METRICS, [1, 3, 5],
                           candidates=noisy, batch_size=int(rng.integers(1, n + 1)))
            model = FixedScores(scores)
            assert ev.evaluate(model).to_json() == \
                ev.evaluate_naive(model).to_json(), f"trial {trial}"

    def test_short_row_takes_the_full_width_filler(self):
        # one score above -inf at k=4: full width ranks item 3, then the
        # lowest-ID -inf items 0, 1, 2 -- above the -inf-scored positive 5
        scores = np.full((1, 8), -np.inf)
        scores[0, 3] = 1.0
        cands = [np.array([3, 5])]
        values, ids = compact_scores(scores[0, cands[0]], cands, 8, 4)
        np.testing.assert_array_equal(
            compact_top_items(topk_find(values, 4), values, ids), [[3, 0, 1, 2]])
        ev = Evaluator(8, np.array([0]), [np.array([5])], ["recall"], [4],
                       candidates=cands)
        assert ev.evaluate(FixedScores(scores)).values["recall@4"] == 0.0

    def test_out_of_range_candidate_is_rejected(self, rng):
        scores = rng.standard_normal((3, 9))
        cands = [np.array([1, 2]), np.array([3, 9]), np.array([4])]
        ev = Evaluator(9, np.arange(3), [np.array([1])] * 3, ["recall"], [2],
                       candidates=cands)
        model = FixedScores(np.hstack([scores, scores]))
        with pytest.raises(EvalError, match="candidate index 9 >= n_items=9"):
            ev.evaluate(model)

    def test_nan_score_names_the_user(self, rng):
        scores = rng.standard_normal((6, 9))
        scores[4, 2] = np.nan
        scores[1, 0] = np.nan  # item 0 scores -inf, as at full width
        cands = [np.array([0, 1, 2, 5])] * 6
        ev = Evaluator(9, np.array([10, 11, 12, 13, 14, 15]),
                       [np.array([1])] * 6, ["recall"], [3],
                       candidates=cands, batch_size=3)
        with pytest.raises(EvalError, match="NaN for user ID 14"):
            ev.evaluate(FixedScores(np.vstack([np.zeros((10, 9)), scores])))

    def test_mask_items_with_candidates_is_rejected(self):
        with pytest.raises(EvalError, match="full ranking only"):
            Evaluator(5, np.array([0]), [np.array([1])], ["recall"], [1],
                      mask_items=[np.array([2])], candidates=[np.array([1, 3])])


class TestHandComputed:
    def test_popularity_on_three_user_instance(self):
        # counts: i1 x3, i2 x2, i3 x1 in train; per-user sort oracle by hand
        ds = build_dataset(
            ["a", "a", "b", "b", "c", "c"],
            ["i1", "i2", "i1", "i2", "i1", "i3"])
        train_rows = np.arange(6)
        model = PopularityModel(ds, train_rows, TrainConfig())
        model.calculate_loss(model.train_batch())
        # catalog: pad,i1,i2,i3 -> counts [0,3,2,1]
        # users a,b,c rank [i1,i2,i3]; test positives chosen by hand:
        positives = [np.array([1]), np.array([2]), np.array([3])]
        ev = Evaluator(ds.n_items, np.array([1, 2, 3]), positives,
                       ["recall", "mrr"], [1, 2])
        report = ev.evaluate(model)
        # recall@1: a hits (i1 top), b misses, c misses -> 1/3
        assert report.values["recall@1"] == pytest.approx(1 / 3)
        # mrr@2: a=1, b=1/2 (i2 second), c=0 -> mean 0.5
        assert report.values["mrr@2"] == pytest.approx(0.5)

    def test_unknown_metric_is_rejected(self):
        with pytest.raises(EvalError, match="unknown metric"):
            Evaluator(5, np.array([0]), [np.array([1])], ["coverage"], [1])

    def test_nan_score_names_the_user(self, rng):
        scores = rng.standard_normal((6, 9))
        scores[4, 2] = np.nan
        ev = Evaluator(9, np.array([10, 11, 12, 13, 14, 15]),
                       [np.array([1])] * 6, ["recall"], [3], batch_size=3)
        with pytest.raises(EvalError, match="NaN for user ID 14"):
            ev.evaluate(FixedScores(np.vstack([np.zeros((10, 9)), scores])))

    def test_k_must_fit_catalog(self):
        with pytest.raises(EvalError, match="catalog"):
            Evaluator(3, np.array([0]), [np.array([1])], ["recall"], [3])

    @pytest.mark.parametrize("ks", [[0], [0, 2], [-1, 3]])
    def test_k_below_one_is_rejected(self, ks):
        with pytest.raises(EvalError, match=f"K={min(ks)} must be >= 1"):
            Evaluator(5, np.array([0]), [np.array([1])], ["recall"], ks)

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_is_rejected(self, batch_size):
        with pytest.raises(EvalError, match="batch_size must be >= 1"):
            Evaluator(5, np.array([0]), [np.array([1])], ["recall"], [1],
                      batch_size=batch_size)


class TestConvenienceEvaluate:
    def test_full_flow_with_plan(self, rng):
        users = [f"u{v}" for v in rng.integers(0, 6, size=40)]
        items = [f"i{v}" for v in rng.integers(0, 10, size=40)]
        ds = build_dataset(users, items)
        plan = parse_eval_setting("RO_RS,full", seed=3)
        train_rows = np.arange(len(ds.inter))
        model = PopularityModel(ds, train_rows, TrainConfig())
        model.calculate_loss(model.train_batch())
        report = evaluate(model, ds, plan, ["recall", "ndcg"], [5])
        assert 0 <= report.values["recall@5"] <= 1
        assert report.masked == "train+valid"
        assert report.candidates == "full"

    def test_k_below_one_is_rejected_before_scoring(self, rng):
        class Unscored:
            def full_sort_predict(self, users):
                raise AssertionError("scored before K was checked")

        users = [f"u{v}" for v in rng.integers(0, 6, size=40)]
        items = [f"i{v}" for v in rng.integers(0, 10, size=40)]
        ds = build_dataset(users, items)
        plan = parse_eval_setting("RO_RS,full", seed=3)
        with pytest.raises(EvalError, match="K=0 must be >= 1"):
            evaluate(Unscored(), ds, plan, ["recall"], [0])

    def test_report_formats(self, rng):
        scores = rng.standard_normal((3, 6))
        ev = Evaluator(6, np.arange(3), [np.array([1])] * 3, ["recall"], [2],
                       config_hash="cafe0123")
        report = ev.evaluate(FixedScores(scores))
        text = report.to_text()
        assert text.startswith("# users=3")
        assert "cafe0123" in text
        assert "recall@2\t" in text
        import json

        payload = json.loads(report.to_json())
        assert payload["n_users"] == 3.0
        assert "recall@2" in payload


class TestEvaluateStages:
    def test_ranking_and_value_metrics_together(self, rng):
        from recbench.batch import Batch
        from recbench.dataset import set_label_by_threshold
        from recbench.protocol import make_split

        n = 80
        ds = set_label_by_threshold(build_dataset(
            [f"u{v}" for v in rng.integers(0, 8, size=n)],
            [f"i{v}" for v in rng.integers(0, 12, size=n)],
            ratings=rng.integers(1, 6, size=n).astype(float)), "rating", 4.0)
        plan = parse_eval_setting("RO_RS,full", seed=3)
        split = make_split(ds, plan)
        model = PopularityModel(ds, split.train, TrainConfig())
        model.calculate_loss(model.train_batch())
        report = evaluate(model, ds, plan, ["recall", "rmse"], [5])
        rows = split.test
        preds = model.predict(Batch({"user_id": ds.user_ids()[rows],
                                     "item_id": ds.item_ids()[rows]}))
        truths = ds.inter.columns["label"][rows]
        assert report.values["rmse"] == np.sqrt(np.mean((preds - truths) ** 2))
        assert 0 <= report.values["recall@5"] <= 1

    def test_empty_test_stage_is_an_error(self):
        from recbench.errors import RecbenchError

        ds = build_dataset(["a", "b"], ["i1", "i2"])  # one row each: train only
        model = PopularityModel(ds, np.arange(2), TrainConfig())
        model.calculate_loss(model.train_batch())
        with pytest.raises(RecbenchError, match="test split is empty"):
            evaluate(model, ds, parse_eval_setting("RO_LS,full"), ["recall"], [1])
