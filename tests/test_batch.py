"""Batch container semantics."""

import numpy as np
import pytest

from recbench.batch import Batch, batch_from_table
from recbench.errors import DataError
from tests.conftest import build_dataset


class TestRepeat:
    def test_whole_batch_tiling(self):
        b = Batch({"user_id": np.array([1, 2])}).repeat(2)
        np.testing.assert_array_equal(b["user_id"], [1, 2, 1, 2])

    def test_identity(self):
        b = Batch({"x": np.array([3.0, 4.0])})
        np.testing.assert_array_equal(b.repeat(1)["x"], b["x"])

    def test_matches_concatenation_oracle(self, rng):
        for _ in range(50):
            n, times = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            col = rng.integers(0, 100, size=n)
            seq = rng.integers(0, 9, size=(n, 3))
            b = Batch({"a": col, "s": seq}).repeat(times)
            np.testing.assert_array_equal(
                b["a"], np.concatenate([col] * times))
            np.testing.assert_array_equal(
                b["s"], np.concatenate([seq] * times, axis=0))
            assert len(b) == n * times

    def test_rejects_zero(self):
        with pytest.raises(DataError):
            Batch({"a": np.array([1])}).repeat(0)


class TestRepeatInterleave:
    def test_consecutive_rows(self):
        b = Batch({"user_id": np.array([1, 2])}).repeat_interleave(2)
        np.testing.assert_array_equal(b["user_id"], [1, 1, 2, 2])

    def test_identity(self):
        b = Batch({"x": np.array([5, 6, 7])})
        np.testing.assert_array_equal(b.repeat_interleave(1)["x"], [5, 6, 7])

    def test_matches_index_expansion_oracle(self, rng):
        for _ in range(50):
            n, times = int(rng.integers(1, 6)), int(rng.integers(1, 5))
            col = rng.standard_normal(n)
            b = Batch({"a": col}).repeat_interleave(times)
            expanded = col[np.repeat(np.arange(n), times)]
            np.testing.assert_array_equal(b["a"], expanded)


class TestUpdate:
    def test_merges_new_columns(self):
        merged = Batch({"user_id": np.array([1, 2])}).update(
            Batch({"item_id": np.array([7, 8])}))
        assert sorted(merged.fields) == ["item_id", "user_id"]

    def test_overlapping_columns_other_wins(self):
        merged = Batch({"x": np.array([1, 2])}).update(
            Batch({"x": np.array([9, 9])}))
        np.testing.assert_array_equal(merged["x"], [9, 9])

    def test_mismatched_lengths(self):
        with pytest.raises(DataError):
            Batch({"a": np.arange(3)}).update(Batch({"b": np.arange(2)}))

    def test_length_one_broadcast(self):
        merged = Batch({"a": np.arange(4)}).update(Batch({"b": np.array([5])}))
        np.testing.assert_array_equal(merged["b"], [5, 5, 5, 5])


class TestFromTable:
    def test_builds_padded_batches(self, tmp_path):
        ds = build_dataset(["u1", "u2"], ["i1", "i2"], ratings=[1.0, 2.0])
        batch = batch_from_table(ds.inter, [0, 1])
        np.testing.assert_array_equal(batch["user_id"], [1, 2])
        np.testing.assert_array_equal(batch["rating"], [1.0, 2.0])

    def test_rejects_unencoded(self):
        from tests.conftest import make_inter

        table = make_inter(["u1"], ["i1"])
        with pytest.raises(DataError, match="remap_ids"):
            batch_from_table(table, [0])

    def test_sequences_padded_to_shared_length(self):
        from recbench.dataset import Dataset, remap_ids
        from recbench.tables import (DataTable, FieldSpec, FieldType,
                                     TableKind)

        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN),
                           FieldSpec("words", FieldType.TOKEN_SEQ)],
                          {"user_id": ["a", "b"], "item_id": ["x", "y"],
                           "words": [("p", "q", "r"), ("p",)]})
        ds = remap_ids(Dataset.build(table))
        batch = batch_from_table(ds.inter, [0, 1])
        assert batch["words"].shape == (2, 3)
        np.testing.assert_array_equal(batch["words"][1], [1, 0, 0])  # padded
