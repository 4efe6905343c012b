"""Batch container semantics."""

import numpy as np
import pytest

from recbench.batch import Batch
from recbench.errors import DataError


class TestConstructor:
    def test_rejects_columns_of_different_lengths(self):
        with pytest.raises(DataError, match=r"disagree on length: \[2, 3\]"):
            Batch({"user_id": np.arange(3), "item_id": np.arange(2)})
