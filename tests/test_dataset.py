"""Dataset preprocessing operations."""

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recbench.dataset import (PAD_TOKEN, Dataset, fill_nan,
                              filter_by_field_value, filter_by_inter_num,
                              normalize, remap_ids, set_label_by_threshold)
from recbench.errors import DataError
from recbench.tables import DataTable, FieldSpec, FieldType, TableKind
from tests.conftest import build_dataset, dataset_digest, make_inter


def _brute_force_kcore(pairs, min_user, min_item):
    """Independent fixpoint oracle: alternately delete until stable."""
    rows = list(range(len(pairs)))
    while True:
        users = {}
        items = {}
        for r in rows:
            u, i = pairs[r]
            users[u] = users.get(u, 0) + 1
            items[i] = items.get(i, 0) + 1
        kept = [r for r in rows if users[pairs[r][0]] >= min_user]
        users2 = {}
        items2 = {}
        for r in kept:
            u, i = pairs[r]
            items2[i] = items2.get(i, 0) + 1
        kept = [r for r in kept if items2[pairs[r][1]] >= min_item]
        if kept == rows:
            return rows
        rows = kept


class TestBuild:
    def test_missing_user_id_is_an_error(self):
        inter = make_inter(["a", None, "b", None, None], ["x", "y", "x", "z", "x"])
        with pytest.raises(DataError, match="field 'user_id' is missing in 3 "
                                            "interaction rows"):
            Dataset.build(inter)

    def test_missing_item_id_is_kept(self):
        ds = remap_ids(Dataset.build(make_inter(["a", "b"], ["x", None])))
        assert ds.item_ids().tolist() == [1, 0]


class TestFilterByInterNum:
    def test_fixpoint_already(self):
        ds = build_dataset(["a", "b"], ["x", "y"])
        out = filter_by_inter_num(ds, 1, 1)
        assert out.inter == ds.inter

    def test_spec_example(self):
        # u1 has 3 rows, u2 has 1; min_user=2 removes u2, i1 keeps u1
        ds = build_dataset(["u1", "u1", "u1", "u2"],
                           ["i1", "i2", "i3", "i1"])
        out = filter_by_inter_num(ds, 2, 1)
        assert len(out.inter) == 3
        assert set(np.unique(out.user_ids())) == {1}

    def test_emptied_error(self):
        ds = build_dataset(["a", "a", "b", "b"], ["x", "y", "x", "y"])
        with pytest.raises(DataError, match="emptied"):
            filter_by_inter_num(ds, 5, 0)

    def test_matches_brute_force_on_random_instances(self, rng):
        for trial in range(200):
            n = int(rng.integers(1, 50))
            users = [f"u{v}" for v in rng.integers(0, 8, size=n)]
            items = [f"i{v}" for v in rng.integers(0, 8, size=n)]
            min_u, min_i = int(rng.integers(0, 4)), int(rng.integers(0, 4))
            ds = build_dataset(users, items)
            expected = _brute_force_kcore(list(zip(users, items)), min_u, min_i)
            if not expected:
                with pytest.raises(DataError):
                    filter_by_inter_num(ds, min_u, min_i)
                continue
            out = filter_by_inter_num(ds, min_u, min_i)
            got_pairs = list(zip(out.user_ids().tolist(), out.item_ids().tolist()))
            exp_pairs = [(int(ds.user_ids()[r]), int(ds.item_ids()[r]))
                         for r in expected]
            assert got_pairs == exp_pairs, f"trial {trial}"

    def test_idempotent(self, rng):
        users = [f"u{v}" for v in rng.integers(0, 6, size=40)]
        items = [f"i{v}" for v in rng.integers(0, 6, size=40)]
        ds = build_dataset(users, items)
        once = filter_by_inter_num(ds, 3, 2)
        twice = filter_by_inter_num(once, 3, 2)
        assert once.inter == twice.inter

    def test_does_not_mutate_input(self):
        ds = build_dataset(["u1", "u1", "u2"], ["i1", "i2", "i1"])
        digest = dataset_digest(ds)
        filter_by_inter_num(ds, 2, 1)
        assert dataset_digest(ds) == digest


class TestFilterByFieldValue:
    OPS = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater,
           "<": np.less, "==": np.equal, "!=": np.not_equal}

    def test_interval_keeps_matching_rows(self):
        ds = build_dataset(["a", "b", "c"], ["x", "y", "z"],
                           ratings=[1.0, 3.0, 5.0])
        out = filter_by_field_value(ds, "rating", ">=", 3.0)
        np.testing.assert_array_equal(out.inter.columns["rating"], [3.0, 5.0])

    def test_matches_linear_scan_oracle(self, rng):
        n = 1000
        ts = rng.uniform(0, 100, size=n)
        ds = build_dataset([f"u{i%7}" for i in range(n)],
                           [f"i{i%11}" for i in range(n)], timestamps=ts)
        t0, t1 = 25.0, 75.0
        out = filter_by_field_value(ds, "timestamp", ">=", t0)
        out = filter_by_field_value(out, "timestamp", "<", t1)
        expected = [i for i in range(n) if t0 <= ts[i] < t1]
        np.testing.assert_array_equal(out.inter.columns["timestamp"],
                                      ts[expected])

    @pytest.mark.parametrize("op", [">=", "<=", ">", "<", "==", "!="])
    def test_missing_values_satisfy_no_comparison(self, op, rng):
        ratings = rng.integers(1, 6, size=200).astype(np.float64)
        ratings[rng.random(200) < 0.25] = np.nan
        ds = build_dataset([f"u{i % 9}" for i in range(200)],
                           [f"i{i % 13}" for i in range(200)], ratings=ratings)
        out = filter_by_field_value(ds, "rating", op, 3.0)
        rows = [i for i, v in enumerate(ratings.tolist())
                if not np.isnan(v) and self.OPS[op](v, 3.0)]
        np.testing.assert_array_equal(out.inter.columns["rating"], ratings[rows])
        np.testing.assert_array_equal(out.user_ids(), ds.user_ids()[rows])

    def test_empty_result_errors(self):
        ds = build_dataset(["a"], ["x"], ratings=[1.0])
        with pytest.raises(DataError, match="emptied"):
            filter_by_field_value(ds, "rating", ">=", 10.0)

    def test_unknown_field(self):
        ds = build_dataset(["a"], ["x"])
        with pytest.raises(DataError, match="unknown field"):
            filter_by_field_value(ds, "nope", ">=", 0.0)

    def test_unknown_comparison(self):
        ds = build_dataset(["a"], ["x"], ratings=[1.0])
        with pytest.raises(DataError, match="unknown comparison '=>'"):
            filter_by_field_value(ds, "rating", "=>", 0.0)

    @pytest.mark.parametrize("encode", [False, True], ids=["raw", "remapped"])
    def test_token_field_names_the_field(self, encode):
        ds = Dataset.build(make_inter(["a", "b"], ["x", "y"]))
        if encode:  # remapped IDs are numbers, but still not comparable
            ds = remap_ids(ds)
        with pytest.raises(DataError, match="field 'user_id' is a token field; "
                                            "comparisons need a float field"):
            filter_by_field_value(ds, "user_id", ">=", 1.0)


class TestRemapIds:
    def test_first_occurrence_order(self):
        ds = Dataset.build(make_inter(["b", "a", "b", "c"],
                                      ["x", "x", "y", "z"]))
        out = remap_ids(ds)
        np.testing.assert_array_equal(out.user_ids(), [1, 2, 1, 3])

    def test_item_only_in_feature_table_gets_id(self):
        item_feat = DataTable(
            TableKind.ITEM,
            [FieldSpec("item_id", FieldType.TOKEN),
             FieldSpec("genre", FieldType.TOKEN)],
            {"item_id": ["x", "ghost"], "genre": ["g1", "g2"]})
        ds = remap_ids(Dataset.build(make_inter(["a"], ["x"]),
                                     item_feat=item_feat))
        vocab = ds.vocabs["item_id"]
        # union oracle: every token of either table is encoded
        tokens = {"x", "ghost"}
        assert {vocab.decode(vocab.encode(t)) for t in tokens} == tokens
        assert ds.n_items == 3  # pad + 2 items

    def test_decode_encode_round_trip(self, rng):
        users = [f"u{v}" for v in rng.integers(0, 30, size=120)]
        items = [f"i{v}" for v in rng.integers(0, 30, size=120)]
        ds = build_dataset(users, items)
        for field in ("user_id", "item_id"):
            vocab = ds.vocabs[field]
            for tok in set(users if field == "user_id" else items):
                assert vocab.decode(vocab.encode(tok)) == tok

    def test_ids_contiguous_from_one(self):
        ds = build_dataset(["a", "b", "c"], ["x", "y", "x"])
        assert sorted(set(ds.user_ids())) == [1, 2, 3]
        assert ds.n_users == 4 and ds.n_items == 3

    def test_missing_token_encodes_to_pad(self):
        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN),
                           FieldSpec("tag", FieldType.TOKEN)],
                          {"user_id": ["a"], "item_id": ["x"], "tag": [None]})
        ds = remap_ids(Dataset.build(table))
        assert ds.inter.columns["tag"][0] == 0

    def test_idempotent(self):
        ds = build_dataset(["a"], ["x"])
        assert remap_ids(ds) is ds

    def test_one_vocabulary_per_field_name_in_table_order(self):
        token = FieldType.TOKEN
        inter = DataTable(
            TableKind.INTER,
            [FieldSpec("user_id", token), FieldSpec("item_id", token),
             FieldSpec("genre", token)],
            {"user_id": ["a", "b", "a"], "item_id": ["x", "y", "x"],
             "genre": ["g3", None, "g1"]})
        # a favourite-item column: z is in no other table
        user_feat = DataTable(
            TableKind.USER, [FieldSpec("user_id", token), FieldSpec("item_id", token)],
            {"user_id": ["b", "c"], "item_id": ["z", "x"]})
        # w is an item that only the item table holds
        item_feat = DataTable(
            TableKind.ITEM, [FieldSpec("item_id", token), FieldSpec("genre", token)],
            {"item_id": ["y", "w", "x"], "genre": ["g1", "g2", "g3"]})
        ds = remap_ids(Dataset.build(inter, user_feat=user_feat,
                                     item_feat=item_feat))
        tables = [inter, user_feat, item_feat]
        # reference: each name's tokens concatenated in table order
        for name in ("user_id", "item_id", "genre"):
            tokens = [t for table in tables if table.has_field(name)
                      for t in table.decode(name) if t is not None]
            assert ds.vocabs[name].token_of == [PAD_TOKEN, *dict.fromkeys(tokens)]
        for attr, raw in zip(("inter", "user_feat", "item_feat"), tables):
            for name in raw.field_names:
                vocab = ds.vocabs[name]
                np.testing.assert_array_equal(
                    getattr(ds, attr).columns[name],
                    [vocab.encode(t) for t in raw.decode(name)])
        # a .user column named like the item field counts before .item:
        # z precedes w
        assert ds.vocabs["item_id"].token_of == [PAD_TOKEN, "x", "y", "z", "w"]
        assert ds.vocabs["genre"].token_of == [PAD_TOKEN, "g3", "g1", "g2"]


_TOKEN, _FLOAT = FieldType.TOKEN, FieldType.FLOAT
# field layout per table; the .user table's item_id is a favourite item,
# and tag is shared by .inter and .item
_LAYOUT = {
    "inter": (TableKind.INTER, [("user_id", _TOKEN), ("item_id", _TOKEN),
                                ("tag", _TOKEN), ("rating", _FLOAT)]),
    "user_feat": (TableKind.USER, [("user_id", _TOKEN), ("item_id", _TOKEN),
                                   ("age", _FLOAT)]),
    "item_feat": (TableKind.ITEM, [("item_id", _TOKEN), ("tag", _TOKEN)]),
}
_POOLS = {"user_id": [f"u{v}" for v in range(6)], "item_id": [f"i{v}" for v in range(7)],
          "tag": [f"g{v}" for v in range(3)]}


@st.composite
def _raw_tables(draw):
    """Cells of an .inter table plus optional .user and .item tables, and filters."""
    tables = {}
    for attr, (_, fields) in _LAYOUT.items():
        if attr != "inter" and not draw(st.booleans()):
            continue
        n = draw(st.integers(1 if attr == "inter" else 0, 25))
        cells = {}
        for name, ftype in fields:
            if ftype == _FLOAT:
                value = st.one_of(st.just(math.nan), st.integers(1, 5).map(float))
            elif attr == "inter" and name == "user_id":  # no missing user IDs
                value = st.sampled_from(_POOLS[name])
            else:
                value = st.sampled_from([None, *_POOLS[name]])
            cells[name] = draw(st.lists(value, min_size=n, max_size=n))
        tables[attr] = cells
    filters = draw(st.lists(st.one_of(
        st.tuples(st.just("value"), st.integers(1, 5).map(float)),
        st.tuples(st.just("inter_num"), st.integers(0, 3), st.integers(0, 3))), max_size=3))
    return tables, filters


def _list_remap_oracle(tables, filters):
    """The list-and-dict filters and remap that code columns replaced.

    Returns ``(ids, token_of)``: each table's token columns as ID lists
    and each field name's ``Vocabulary.token_of``; ``None`` when the
    filters empty the interactions.
    """
    inter = tables["inter"]
    rows = list(range(len(inter["user_id"])))
    for form, *args in filters:
        if form == "value":  # rating >= value; NaN satisfies no comparison
            rows = [r for r in rows if inter["rating"][r] >= args[0]]
        else:  # k-core fixpoint; a missing item is a group of its own
            while True:
                users = Counter(inter["user_id"][r] for r in rows)
                kept = [r for r in rows if users[inter["user_id"][r]] >= args[0]]
                items = Counter(inter["item_id"][r] for r in kept)
                kept = [r for r in kept if items[inter["item_id"][r]] >= args[1]]
                if kept == rows:
                    break
                rows = kept
        if not rows:
            return None
    tables = {**tables, "inter": {name: [col[r] for r in rows]
                                  for name, col in inter.items()}}
    id_of = {}
    for attr, cells in tables.items():  # .inter, .user, .item
        for name, ftype in _LAYOUT[attr][1]:
            if ftype == _TOKEN:
                vocab = id_of.setdefault(name, {})
                for token in cells[name]:
                    if token is not None:
                        vocab.setdefault(token, len(vocab) + 1)
    ids = {(attr, name): [0 if t is None else id_of[name][t] for t in cells[name]]
           for attr, cells in tables.items()
           for name, ftype in _LAYOUT[attr][1] if ftype == _TOKEN}
    return ids, {name: [PAD_TOKEN, *vocab] for name, vocab in id_of.items()}


class TestRemapAgainstListOracle:
    @settings(max_examples=300, deadline=None)
    @given(_raw_tables())
    def test_filters_then_remap(self, case):
        tables, filters = case
        built = {}
        for attr, cells in tables.items():
            kind, fields = _LAYOUT[attr]
            columns = {name: np.array(cells[name]) if ftype == _FLOAT else cells[name]
                       for name, ftype in fields}
            built[attr] = DataTable(kind, [FieldSpec(n, t) for n, t in fields], columns)
        ds = Dataset.build(built["inter"], built.get("user_feat"), built.get("item_feat"))
        expected = _list_remap_oracle(tables, filters)
        try:
            for form, *args in filters:
                if form == "value":
                    ds = filter_by_field_value(ds, "rating", ">=", args[0])
                else:
                    ds = filter_by_inter_num(ds, *args)
        except DataError as exc:
            assert expected is None and "emptied" in str(exc)
            return
        ds = remap_ids(ds)
        ids, token_of = expected
        for (attr, name), column in ids.items():
            got = getattr(ds, attr).columns[name]
            assert got.dtype == np.int64 and got.tolist() == column, (attr, name)
        assert {name: v.token_of for name, v in ds.vocabs.items()} == token_of
        for attr, table in ds.tables:  # codes decode to the kept cells
            for name in table.tokens:
                assert table.decode(name) == [token_of[name][i] if i else None
                                              for i in ids[attr, name]]


class TestFillNan:
    def test_mean_imputation(self):
        ds = build_dataset(["a", "b", "c"], ["x", "y", "z"],
                           ratings=[1.0, np.nan, 3.0])
        out = fill_nan(ds)
        np.testing.assert_allclose(out.inter.columns["rating"], [1.0, 2.0, 3.0])

    def test_identity_without_missing(self):
        ds = build_dataset(["a"], ["x"], ratings=[2.0])
        assert fill_nan(ds) is ds

    def test_matches_two_pass_mean_oracle(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 30))
            values = rng.standard_normal(n) * rng.uniform(0.1, 100)
            miss = rng.random(n) < 0.3
            if miss.all():
                miss[0] = False
            col = values.copy()
            col[miss] = np.nan
            ds = build_dataset([f"u{i}" for i in range(n)],
                               [f"i{i}" for i in range(n)], ratings=col)
            out = fill_nan(ds)
            # two-pass reference: sum then divide, over observed only
            total = 0.0
            count = 0
            for v, m in zip(values, miss):
                if not m:
                    total += v
                    count += 1
            mean = total / count
            got = out.inter.columns["rating"][miss]
            assert np.all(np.abs(got - mean) < 1e-12)

    def test_all_missing_column_errors(self):
        ds = build_dataset(["a", "b"], ["x", "y"], ratings=[np.nan, np.nan])
        with pytest.raises(DataError, match="rating"):
            fill_nan(ds)


class TestSetLabelByThreshold:
    def test_threshold(self):
        ds = build_dataset(["a", "b", "c"], ["x", "y", "z"],
                           ratings=[5.0, 3.0, 1.0])
        out = set_label_by_threshold(ds, "rating", 4.0)
        np.testing.assert_array_equal(out.inter.columns["label"], [1.0, 0.0, 0.0])

    def test_minus_infinity_threshold(self):
        ds = build_dataset(["a", "b"], ["x", "y"], ratings=[0.0, -5.0])
        out = set_label_by_threshold(ds, "rating", -np.inf)
        np.testing.assert_array_equal(out.inter.columns["label"], [1.0, 1.0])

    def test_boundary_is_inclusive(self):
        ds = build_dataset(["a", "b"], ["x", "y"], ratings=[4.0, 3.999])
        out = set_label_by_threshold(ds, "rating", 4.0)
        np.testing.assert_array_equal(out.inter.columns["label"], [1.0, 0.0])

    def test_non_float_field_errors(self):
        ds = build_dataset(["a"], ["x"])
        with pytest.raises(DataError):
            set_label_by_threshold(ds, "user_id", 1.0)


class TestNormalize:
    def test_min_max(self):
        ds = build_dataset(["a", "b", "c"], ["x", "y", "z"],
                           ratings=[2.0, 4.0, 6.0])
        out = normalize(ds, ["rating"])
        np.testing.assert_allclose(out.inter.columns["rating"], [0.0, 0.5, 1.0])

    def test_constant_column(self):
        ds = build_dataset(["a", "b"], ["x", "y"], ratings=[7.0, 7.0])
        out = normalize(ds, ["rating"])
        np.testing.assert_array_equal(out.inter.columns["rating"], [0.0, 0.0])

    def test_bounds_and_order_preserved(self, rng):
        for _ in range(500):
            n = int(rng.integers(2, 20))
            col = rng.standard_normal(n) * rng.uniform(0.5, 50)
            ds = build_dataset([f"u{i}" for i in range(n)],
                               [f"i{i}" for i in range(n)], ratings=col)
            out = normalize(ds, ["rating"])
            scaled = out.inter.columns["rating"]
            assert scaled.min() >= 0.0 and scaled.max() <= 1.0
            # order oracle: pairwise comparisons keep their direction
            order_before = np.argsort(col, kind="stable")
            order_after = np.argsort(scaled, kind="stable")
            np.testing.assert_array_equal(order_before, order_after)

    def test_unknown_field(self):
        ds = build_dataset(["a"], ["x"])
        with pytest.raises(DataError, match="nope"):
            normalize(ds, ["nope"])


class TestImmutability:
    def test_no_operation_mutates_input(self, rng):
        ds = build_dataset([f"u{v}" for v in rng.integers(0, 5, size=30)],
                           [f"i{v}" for v in rng.integers(0, 5, size=30)],
                           ratings=rng.uniform(1, 5, size=30))
        digest = dataset_digest(ds)
        filter_by_inter_num(ds, 2, 2)
        filter_by_field_value(ds, "rating", ">=", 2.0)
        fill_nan(ds)
        set_label_by_threshold(ds, "rating", 3.0)
        normalize(ds, ["rating"])
        assert dataset_digest(ds) == digest
