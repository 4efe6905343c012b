"""Reshaping, filling, top-k selection, and hit indexing."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from recbench import _topk_np
from recbench.errors import EvalError, NaNScoreError
from recbench.ranking import (NEG_INF, index_hits, positive_hits,
                              relevance_matrix, reshape_scores, topk_find)


def _sort_oracle(row, k):
    return sorted(range(len(row)), key=lambda i: (-row[i], i))[:k]


class TestTopkFind:
    def test_simple_row(self):
        out = topk_find(np.array([[0.9, 0.1, 0.5, 0.3]]), 2)
        np.testing.assert_array_equal(out, [[0, 2]])

    def test_all_equal_tie_rule(self):
        out = topk_find(np.ones((1, 5)), 3)
        np.testing.assert_array_equal(out, [[0, 1, 2]])

    def test_k_equals_m(self):
        out = topk_find(np.array([[0.1, 0.9, 0.5]]), 3)
        np.testing.assert_array_equal(out, [[1, 2, 0]])

    def test_k_out_of_range(self):
        with pytest.raises(EvalError):
            topk_find(np.zeros((2, 3)), 4)
        with pytest.raises(EvalError):
            topk_find(np.zeros((2, 3)), 0)

    def test_matches_full_sort_oracle(self, rng):
        for trial in range(300):
            n = int(rng.integers(1, 20))
            m = int(rng.integers(2, 120))
            k = int(rng.integers(1, m + 1))
            scores = rng.standard_normal((n, m))
            if trial % 3 == 0:
                scores = np.round(scores, 1)  # force duplicates
            if trial % 4 == 0:
                scores[rng.random((n, m)) < 0.4] = NEG_INF
            got = topk_find(scores, k)
            for r in range(n):
                assert list(got[r]) == _sort_oracle(scores[r], k), \
                    f"trial {trial} row {r}"


# few distinct values, so rows are full of ties, and -inf sentinels
_TIED_SCORES = st.sampled_from([NEG_INF, -1.5, 0.0, 0.25, 1.0, 2.0])


@st.composite
def _score_matrix_and_k(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 300))
    scores = draw(arrays(np.float64, (n, m),
                         elements=_TIED_SCORES | st.floats(-3, 3)))
    return scores, draw(st.integers(1, m))


class TestTopkProperties:
    @settings(max_examples=300, deadline=None)
    @given(_score_matrix_and_k())
    def test_equals_stable_argsort(self, case):
        scores, k = case
        expected = np.argsort(-scores, axis=1, kind="stable")[:, :k]
        np.testing.assert_array_equal(topk_find(scores, k), expected)


class TestNaNScores:
    def test_nan_row_raises(self):
        row = np.array([[np.nan, .5, np.nan, np.nan, .1, np.nan, np.nan]])
        with pytest.raises(EvalError, match="NaN score in row 0"):
            topk_find(row, 4)

    def test_error_names_first_nan_row_past_first_block(self, rng):
        scores = rng.standard_normal((300, 50))
        scores[[201, 260], [7, 3]] = np.nan
        with pytest.raises(NaNScoreError) as info:
            topk_find(scores, 5)
        assert info.value.row == 201


class TestNumpyTieRepair:
    """The numpy kernel on rows whose k-th value also occurs outside its
    partition winners, checked against the stable full-sort oracle."""

    @staticmethod
    def _assert_oracle(scores, k):
        got = _topk_np.topk_indices(scores, k)
        for r in range(scores.shape[0]):
            np.testing.assert_array_equal(
                got[r], np.argsort(-scores[r], kind="stable")[:k],
                err_msg=f"row {r} k {k}")

    def test_integer_scores_on_neg_inf_rows(self, rng):
        # popularity-like sampled rows: small integer counts at candidate
        # positions, -inf elsewhere; nearly every row spills
        for _ in range(40):
            n, m = int(rng.integers(1, 40)), int(rng.integers(30, 700))
            scores = np.full((n, m), NEG_INF)
            for r in range(n):
                cand = rng.choice(m, size=int(rng.integers(21, 30)), replace=False)
                scores[r, cand] = rng.integers(0, 6, size=len(cand))
            for k in (1, 5, 10, 20):
                self._assert_oracle(scores, k)

    def test_fewer_finite_entries_than_k(self, rng):
        # the k-th value is -inf: the sentinel itself ties across the row
        for _ in range(40):
            n, m = int(rng.integers(1, 30)), int(rng.integers(25, 600))
            k = int(rng.integers(2, 21))
            scores = np.full((n, m), NEG_INF)
            for r in range(n):
                cand = rng.choice(m, size=int(rng.integers(0, k)), replace=False)
                scores[r, cand] = np.round(rng.standard_normal(len(cand)), 1)
            self._assert_oracle(scores, k)

    def test_whole_row_ties(self):
        self._assert_oracle(np.zeros((3, 700)), 20)
        self._assert_oracle(np.full((2, 300), NEG_INF), 7)

    def test_k_equals_m(self, rng):
        for _ in range(20):
            n, m = int(rng.integers(1, 10)), int(rng.integers(1, 40))
            scores = rng.integers(0, 3, size=(n, m)).astype(np.float64)
            scores[rng.random((n, m)) < 0.3] = NEG_INF
            self._assert_oracle(scores, m)


class TestScreenedRows:
    """Rows of at least 4k chunks go through the chunk-max screen; checked
    against the stable full sort, across 128-row blocks."""

    @staticmethod
    def _wide(rng, k):
        chunk = _topk_np._CHUNK
        m = 4 * k * chunk + int(rng.integers(0, 3 * chunk))  # and a tail
        assert m // chunk >= 4 * k
        return int(rng.integers(1, 300)), m

    def test_matches_stable_argsort(self, rng):
        for trial in range(80):
            k = int(rng.integers(1, 21))
            n, m = self._wide(rng, k)
            scores = rng.standard_normal((n, m))
            if trial % 4 == 1:
                scores = np.round(scores, 1)  # chunk maxima tie
            elif trial % 4 == 2:
                scores = rng.integers(0, 4, size=(n, m)) * 1.0
                scores[rng.random((n, m)) < 0.5] = -0.0
            if trial % 3 == 0:  # some rows hold fewer than k + 1 finite chunks
                scores[rng.random((n, m)) < rng.choice([0.5, 0.99, 0.999])] = NEG_INF
            np.testing.assert_array_equal(
                topk_find(scores, k),
                np.argsort(-scores, axis=1, kind="stable")[:, :k],
                err_msg=f"trial {trial}")

    def test_nan_names_first_row(self, rng):
        k = 5
        _, m = self._wide(rng, k)
        tail, chunked = m - 1, 3
        for rows, cols, first in (([201, 260], [tail, chunked], 201),
                                  ([150, 200], [tail, chunked], 150),
                                  ([150, 200], [chunked, tail], 150),
                                  ([299], [tail], 299)):
            scores = rng.standard_normal((300, m))
            scores[rows, cols] = np.nan
            with pytest.raises(NaNScoreError) as info:
                topk_find(scores, k)
            assert info.value.row == first


class TestReshapeScores:
    def test_full_mode_verbatim(self):
        row = np.array([[0.9, 0.1, 0.5, 0.3]])
        np.testing.assert_array_equal(reshape_scores(row, 4), row)

    def test_full_mode_shape_check(self):
        with pytest.raises(EvalError):
            reshape_scores(np.zeros((1, 3)), 4)

    def test_sampled_mode_fills_candidates(self):
        out = reshape_scores(np.array([1.0, 2.0, 3.0]), 6,
                             candidates=[np.array([0, 3, 4])])
        expected = [[1.0, NEG_INF, NEG_INF, 2.0, 3.0, NEG_INF]]
        np.testing.assert_array_equal(out, expected)

    def test_sampled_mode_non_candidates_are_neg_inf(self, rng):
        for _ in range(50):
            m = int(rng.integers(3, 30))
            n = int(rng.integers(1, 6))
            cands = [np.sort(rng.choice(m, size=rng.integers(1, m), replace=False))
                     for _ in range(n)]
            scores = rng.standard_normal(sum(map(len, cands)))
            mat = reshape_scores(scores, m, candidates=cands)
            for r in range(n):
                member = np.zeros(m, dtype=bool)
                member[cands[r]] = True         # membership oracle
                assert np.all(np.isneginf(mat[r, ~member]))
                assert not np.any(np.isneginf(mat[r, member]))

    def test_candidate_index_out_of_range(self):
        with pytest.raises(EvalError, match="n_items"):
            reshape_scores(np.array([1.0]), 3, candidates=[np.array([3])])

    def test_out_of_range_in_a_later_row(self):
        cands = [np.array([], dtype=np.int64), np.array([0, 2]), np.array([1, 5])]
        scores = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(EvalError, match="candidate index 5 >= n_items=5"):
            reshape_scores(scores, 5, candidates=cands)

    def test_sampled_fill_matches_per_row_loop(self, rng):
        for _ in range(50):
            m = int(rng.integers(2, 40))
            n = int(rng.integers(1, 8))
            cands = [np.sort(rng.choice(m, size=rng.integers(0, m + 1),
                                        replace=False)) for _ in range(n)]
            per_row = [rng.standard_normal(len(c)) for c in cands]
            want = np.full((n, m), NEG_INF)
            for row, (cand, vals) in enumerate(zip(cands, per_row)):
                want[row, cand] = vals
            got = reshape_scores(np.concatenate(per_row), m, candidates=cands)
            assert got.dtype == np.float64
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_scores", [2, 4])
    def test_score_count_must_match_candidates(self, n_scores):
        cands = [np.array([1, 2]), None, np.array([0])]
        with pytest.raises(EvalError, match=f"{n_scores} scores for 3 candidates"):
            reshape_scores(np.ones(n_scores), 4, candidates=cands)


class TestIndexHits:
    def test_gather(self):
        hm = index_hits(np.array([[0, 2]]), np.array([[1, 0, 0, 1]], dtype=np.int8))
        np.testing.assert_array_equal(hm.hits, [[1, 0]])
        np.testing.assert_array_equal(hm.pos_counts, [2])

    def test_all_zero_relevance(self):
        hm = index_hits(np.array([[1, 2]]), np.zeros((1, 4), dtype=np.int8))
        np.testing.assert_array_equal(hm.hits, [[0, 0]])

    def test_matches_lookup_oracle(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 8)), int(rng.integers(3, 30))
            k = int(rng.integers(1, m + 1))
            rel = (rng.random((n, m)) < 0.3).astype(np.int8)
            top = np.stack([rng.choice(m, size=k, replace=False)
                            for _ in range(n)])
            hm = index_hits(top, rel)
            for r in range(n):
                for c in range(k):
                    assert hm.hits[r, c] == rel[r, top[r, c]]
            np.testing.assert_array_equal(hm.pos_counts, rel.sum(axis=1))

    def test_positive_hits_match_dense_relevance(self, rng):
        for _ in range(50):
            n, m = int(rng.integers(1, 8)), int(rng.integers(3, 30))
            k = int(rng.integers(1, m + 1))
            # duplicated, unsorted IDs; some users have no positives
            positives = [rng.integers(0, m, size=int(rng.integers(0, 6)))
                         for _ in range(n)]
            top = np.stack([rng.choice(m, size=k, replace=False)
                            for _ in range(n)])
            got = positive_hits(top, positives, m)
            want = index_hits(top, relevance_matrix(positives, m))
            np.testing.assert_array_equal(got.hits, want.hits)
            assert got.hits.dtype == want.hits.dtype
            np.testing.assert_array_equal(got.pos_counts, want.pos_counts)
            assert got.pos_counts.dtype == want.pos_counts.dtype

    def test_positive_hits_rejects_out_of_range(self):
        with pytest.raises(EvalError, match="out of range"):
            positive_hits(np.array([[0, 1]]), [np.array([5])], 5)
        with pytest.raises(EvalError, match="disagree"):
            positive_hits(np.array([[0, 1]]), [], 5)

    def test_relevance_matrix_row_sums(self):
        rel = relevance_matrix([np.array([1, 3]), np.array([2])], 5)
        np.testing.assert_array_equal(rel.sum(axis=1), [2, 1])
