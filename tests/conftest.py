import hashlib

import numpy as np
import pytest

from recbench.dataset import Dataset, remap_ids
from recbench.tables import DataTable, FieldSpec, FieldType, TableKind


def make_inter(users, items, ratings=None, timestamps=None, kind=TableKind.INTER):
    """Interaction table from parallel python lists; the token lists are its cells."""
    fields = [FieldSpec("user_id", FieldType.TOKEN),
              FieldSpec("item_id", FieldType.TOKEN)]
    columns = {"user_id": list(users), "item_id": list(items)}
    if ratings is not None:
        fields.append(FieldSpec("rating", FieldType.FLOAT))
        columns["rating"] = np.array(ratings, dtype=np.float64)
    if timestamps is not None:
        fields.append(FieldSpec("timestamp", FieldType.FLOAT))
        columns["timestamp"] = np.array(timestamps, dtype=np.float64)
    return DataTable(kind, fields, columns)


def build_dataset(users, items, ratings=None, timestamps=None, **tables):
    """Encoded dataset from parallel lists (remap included)."""
    ds = Dataset.build(make_inter(users, items, ratings, timestamps), **tables)
    return remap_ids(ds)


def table_digest(table):
    """Content hash used by immutability checks."""
    h = hashlib.sha256()
    for spec in table.fields:
        h.update(spec.name.encode())
        h.update(spec.ftype.value.encode())
        if spec.ftype == FieldType.TOKEN:  # decoded cells: codes and token list
            for cell in table.decode(spec.name):
                h.update(repr(cell).encode())
        else:
            h.update(np.ascontiguousarray(table.columns[spec.name]).tobytes())
    return h.hexdigest()


def dataset_digest(ds):
    return "|".join(f"{name}:{table_digest(t)}" for name, t in ds.tables)


def planted_interactions(n_users=500, n_items=300, rank=4, top_frac=0.05, seed=7):
    """Implicit feedback sampled from a planted low-rank score model.

    Returns (user_tokens, item_tokens) for the top ``top_frac`` of all
    user-item scores under a random rank-``rank`` factor model.
    """
    rng = np.random.default_rng(seed)
    u = rng.standard_normal((n_users, rank))
    v = rng.standard_normal((n_items, rank))
    scores = u @ v.T
    count = int(round(top_frac * n_users * n_items))
    flat = np.argpartition(scores.ravel(), -count)[-count:]
    flat = flat[np.argsort(-scores.ravel()[flat], kind="stable")]
    users, items = np.unravel_index(flat, scores.shape)
    user_tokens = [f"u{i}" for i in users]
    item_tokens = [f"i{j}" for j in items]
    return user_tokens, item_tokens


def write_inter_file(path, rows, header="user_id:token,item_id:token"):
    lines = [header] + rows
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
