"""Table file parsing, writing, and CSV conversion."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recbench.errors import TableFileError
from recbench.tables import (DataTable, FieldSpec, FieldType, TableKind,
                             _check_separator, _parse_cell, _parse_header,
                             convert_csv, read_table, write_table)


def _write(tmp_path, text, name="data.inter"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParsing:
    def test_inter_header_and_rows(self, tmp_path):
        path = _write(tmp_path,
                      "user_id:token,item_id:token,rating:float,timestamp:float\n"
                      "u1,i1,5.0,100.0\n"
                      "u2,i2,3.0,101.0\n"
                      "u3,i1,1.5,102.0\n")
        table = read_table(path, TableKind.INTER)
        assert table.row_count == 3
        assert table.field_names == ["user_id", "item_id", "rating", "timestamp"]
        assert [f.ftype for f in table.fields] == [
            FieldType.TOKEN, FieldType.TOKEN, FieldType.FLOAT, FieldType.FLOAT]
        assert table.decode("user_id") == ["u1", "u2", "u3"]
        assert table.columns["item_id"].tolist() == [1, 2, 1]
        assert table.tokens["item_id"] == ["i1", "i2"]
        np.testing.assert_allclose(table.columns["rating"], [5.0, 3.0, 1.5])

    def test_empty_body(self, tmp_path):
        path = _write(tmp_path, "user_id:token,item_id:token\n")
        table = read_table(path, TableKind.INTER)
        assert table.row_count == 0

    def test_sequence_columns_are_read_past(self, tmp_path):
        path = _write(tmp_path,
                      "movie_id:token\tmovie_title:token_seq\tgenre:token_seq\t"
                      "vec:float_seq\tyear:float\n"
                      "1\tToy Story\tAnimation Comedy\t0.5 x\t1995\n"
                      "2\t\t\t1 inf\t\n", name="ml.item")
        table = read_table(path, TableKind.ITEM, sep="\t")
        assert table.fields == (FieldSpec("movie_id", FieldType.TOKEN),
                                FieldSpec("year", FieldType.FLOAT))
        assert table.decode("movie_id") == ["1", "2"]
        np.testing.assert_array_equal(table.columns["year"], [1995.0, np.nan])

    def test_missing_values(self, tmp_path):
        path = _write(tmp_path,
                      "user_id:token,item_id:token,rating:float,tag:token\n"
                      "u1,i1,,red\n"
                      "u2,i2,4.0,\n")
        table = read_table(path, TableKind.INTER)
        assert math.isnan(table.columns["rating"][0])
        assert table.columns["rating"][1] == 4.0
        assert table.decode("tag") == ["red", None]
        assert table.columns["tag"].dtype == np.int64
        assert table.columns["tag"].tolist() == [1, 0]
        assert table.tokens["tag"] == ["red"]


class TestParsingErrors:
    def test_malformed_header(self, tmp_path):
        path = _write(tmp_path, "user_id,item_id:token\nu,i\n")
        with pytest.raises(TableFileError, match="name:type"):
            read_table(path, TableKind.INTER)

    def test_unknown_type_tag(self, tmp_path):
        path = _write(tmp_path, "user_id:token,item_id:str\n")
        with pytest.raises(TableFileError, match="unknown type tag"):
            read_table(path, TableKind.INTER)

    def test_wrong_field_count_names_line(self, tmp_path):
        path = _write(tmp_path,
                      "user_id:token,item_id:token\nu1,i1\nu2\nu3,i3\n")
        with pytest.raises(TableFileError, match=":3"):
            read_table(path, TableKind.INTER)

    def test_non_numeric_float(self, tmp_path):
        path = _write(tmp_path,
                      "user_id:token,item_id:token,rating:float\nu1,i1,abc\n")
        with pytest.raises(TableFileError, match="non-numeric"):
            read_table(path, TableKind.INTER)

    def test_infinite_float_rejected(self, tmp_path):
        path = _write(tmp_path,
                      "user_id:token,item_id:token,rating:float\nu1,i1,inf\n")
        with pytest.raises(TableFileError, match="non-finite"):
            read_table(path, TableKind.INTER)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "x.inter"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TableFileError, match="header"):
            read_table(path, TableKind.INTER)

    def test_kind_shape_validation(self, tmp_path):
        path = _write(tmp_path, "age:float,user_id:token\n31.0,u1\n", name="bad.user")
        with pytest.raises(TableFileError, match="must start with a token ID field"):
            read_table(path, TableKind.USER)

    def test_inter_needs_two_token_fields(self, tmp_path):
        path = _write(tmp_path, "user_id:token,rating:float\nu,1.0\n")
        with pytest.raises(TableFileError, match="two token fields"):
            read_table(path, TableKind.INTER)

    def test_bad_separator(self, tmp_path):
        path = _write(tmp_path, "a:token,b:token\n")
        with pytest.raises(TableFileError, match="separator"):
            read_table(path, TableKind.INTER, sep="::")
        with pytest.raises(TableFileError, match="separator"):
            read_table(path, TableKind.INTER, sep=" ")


def _reference_read_table(path, kind, sep=","):
    """The per-cell parser ``read_table`` replaced, kept as its oracle.

    It checks a skipped sequence column's cell count and nothing else.
    """
    _check_separator(sep)
    kind = TableKind(kind)
    try:
        with open(path, encoding="utf-8", newline="") as handle:
            raw = handle.read()
    except OSError as exc:
        raise TableFileError(f"cannot read {path}: {exc}") from None
    lines = raw.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TableFileError(f"{path}: empty file, missing header")
    fields = _parse_header(lines[0].rstrip("\r"), sep, f"{path}:1")
    data: dict[str, list] = {f.name: [] for f in fields if f is not None}
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.rstrip("\r").split(sep)
        if len(cells) != len(fields):
            raise TableFileError(
                f"{path}:{lineno}: expected {len(fields)} fields, got {len(cells)}")
        for f, cell in zip(fields, cells):
            if f is not None:
                data[f.name].append(
                    _parse_cell(cell, f.ftype, f"{path}:{lineno} field {f.name!r}"))
    fields = [f for f in fields if f is not None]
    columns = {}
    for f in fields:
        if f.ftype == FieldType.FLOAT:
            columns[f.name] = np.array(data[f.name], dtype=np.float64)
        else:
            columns[f.name] = data[f.name]
    return DataTable(kind, fields, columns)


def _assert_identical(a, b):
    """Same fields; float bits and decoded token cells, type by type, equal."""
    assert (a.kind, a.fields) == (b.kind, b.fields)
    for f in a.fields:
        x, y = a.columns[f.name], b.columns[f.name]
        assert x.dtype == y.dtype
        if f.ftype == FieldType.FLOAT:
            assert x.tobytes() == y.tobytes()
            continue
        x, y = a.decode(f.name), b.decode(f.name)
        assert len(x) == len(y)
        for p, q in zip(x, y):
            assert type(p) is type(q) and p == q


def _outcome(parse, path, sep):
    try:
        return parse(path, TableKind.USER, sep)
    except TableFileError as exc:
        return str(exc)


# header tag -> cells; the sequence tags' columns are read past, bad cells too
_CELLS = {
    "token": ["", "a", "b7", "nan", " x", "1.5"],
    "token_seq": ["", "a", "a b", " c  d ", "nan"],
    "float": ["", "1.5", "-0", "nan", "NaN", " 2 ", "1e3", "7", "1_0",
              "abc", "inf", "-Infinity"],
    "float_seq": ["", "1", "0.5 -2", " nan 3 ", "x 1", "1 inf"],
}
_BAD = {"abc", "inf", "-Infinity", "x 1", "1 inf"}


@st.composite
def _table_file(draw):
    """(text, separator) of a table file, mostly well formed."""
    sep = draw(st.sampled_from([",", "\t", ";"]))
    types = ["token"]
    types += draw(st.lists(st.sampled_from(list(_CELLS)), max_size=4))
    bad_ok = draw(st.booleans())
    lines = [sep.join(f"f{j}:{t}" for j, t in enumerate(types))]
    for _ in range(draw(st.integers(0, 8))):
        cells = [draw(st.sampled_from([c for c in _CELLS[t] if bad_ok or c not in _BAD]))
                 for t in types]
        if bad_ok and draw(st.integers(0, 9)) == 0:
            if len(cells) > 1 and draw(st.booleans()):
                cells.pop()
            else:
                cells.append("extra")
        lines.append(sep.join(cells))
    ends = [draw(st.sampled_from(["\n", "\r\n", "\r\r\n"])) for _ in lines]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")  # no final newline
    return text, sep


class TestColumnParser:
    @settings(max_examples=400, deadline=None)
    @given(_table_file())
    def test_matches_per_cell_reference(self, tmp_path_factory, case):
        text, sep = case
        path = tmp_path_factory.mktemp("prop") / "t.user"
        path.write_bytes(text.encode("utf-8"))
        new = _outcome(read_table, path, sep)
        ref = _outcome(_reference_read_table, path, sep)
        if isinstance(ref, str):
            assert new == ref
        else:
            assert isinstance(new, DataTable)
            _assert_identical(new, ref)

    @pytest.mark.parametrize("text", [
        "f0:token,f1:float\n",
        "f0:token,f1:float",
        "f0:token\r\n\r\n\r\n",
        "f0:token,f1:float\na,\nb,nan\n\n",
        "f0:token,f1:float,f2:float_seq,f3:token_seq\r\na,1,,\r\n,,2 3,x y",
    ])
    def test_edge_files(self, tmp_path, text):
        path = _write(tmp_path, text, name="t.user")
        new = _outcome(read_table, path, ",")
        ref = _outcome(_reference_read_table, path, ",")
        if isinstance(ref, str):
            assert new == ref
        else:
            _assert_identical(new, ref)

    @pytest.mark.parametrize("body, line", [
        ("u1,i1,abc\nu2,i2\n", 2),     # bad float before a short line
        ("u1,i1,1\nu2,i2\nu3,i3,x\n", 3),
        ("u1,i1,1\nu2,i2,inf\nu3,i3\n", 3),
        ("u1,i1,1,2\nu2,i2,abc\n", 2),
    ])
    def test_first_fault_in_row_order(self, tmp_path, body, line):
        path = _write(tmp_path, "user_id:token,item_id:token,rating:float\n" + body)
        with pytest.raises(TableFileError) as info:
            read_table(path, TableKind.INTER)
        assert str(info.value).startswith(f"{path}:{line}")
        with pytest.raises(TableFileError) as ref:
            _reference_read_table(path, TableKind.INTER)
        assert str(info.value) == str(ref.value)


class TestSelectRows:
    @pytest.mark.parametrize("indices", [[], [2], [2, 0], [1, 1, 3]])
    def test_list_columns(self, indices):
        cells = {"user_id": list("abcd"), "item_id": ["w", None, "y", "z"],
                 "tag": ["p", None, "q", "r"]}
        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN),
                           FieldSpec("tag", FieldType.TOKEN)], cells)
        picked = table.select_rows(np.array(indices, dtype=np.int64))
        for name, col in table.columns.items():
            # the token list is shared; the codes are the picked rows' codes
            assert picked.tokens[name] is table.tokens[name]
            assert picked.columns[name].dtype == np.int64
            assert picked.columns[name].tolist() == [col[i] for i in indices]
            assert picked.decode(name) == [cells[name][i] for i in indices]


class TestTokenColumnForms:
    FIELDS = [FieldSpec("user_id", FieldType.TOKEN),
              FieldSpec("item_id", FieldType.TOKEN),
              FieldSpec("label", FieldType.TOKEN)]

    def test_codes_without_token_list_rejected(self):
        # an int64 array is a column of codes, meaningless without its tokens
        cells = {"user_id": ["a", "b"], "item_id": ["x", "y"],
                 "label": np.array([1, 2], dtype=np.int64)}
        with pytest.raises(TableFileError, match="'label'"):
            DataTable(TableKind.INTER, self.FIELDS, cells)

    def test_append_field_replaces_the_spec(self):
        table = DataTable(TableKind.INTER, self.FIELDS,
                          {"user_id": ["a", "b"], "item_id": ["x", "y"],
                           "label": ["yes", None]})
        out = table.append_field(FieldSpec("label", FieldType.FLOAT), [0.0, 1.0])
        assert out.field_names == table.field_names
        assert out.field("label").ftype == FieldType.FLOAT
        assert "label" not in out.tokens
        assert out.columns["label"].tolist() == [0.0, 1.0]


def _random_table(rng, kind=TableKind.INTER):
    n = int(rng.integers(0, 12))
    fields = [FieldSpec("user_id", FieldType.TOKEN),
              FieldSpec("item_id", FieldType.TOKEN),
              FieldSpec("rating", FieldType.FLOAT),
              FieldSpec("tag", FieldType.TOKEN)]
    alphabet = list("xyz01")

    def token():
        return "".join(rng.choice(alphabet, size=rng.integers(1, 4)))

    columns = {
        "user_id": [token() for _ in range(n)],
        "item_id": [token() for _ in range(n)],
        "rating": np.where(rng.random(n) < 0.2, np.nan,
                           np.round(rng.standard_normal(n) * 10, 6)),
        "tag": [None if rng.random() < 0.2 else token() for _ in range(n)],
    }
    return DataTable(kind, fields, columns)


class TestRoundTrip:
    def test_simple_round_trip(self, tmp_path):
        table = _random_table(np.random.default_rng(0))
        path = tmp_path / "t.inter"
        write_table(table, path)
        assert read_table(path, TableKind.INTER) == table

    def test_round_trip_property(self, tmp_path, rng):
        for i in range(200):
            table = _random_table(rng)
            path = tmp_path / f"t{i}.inter"
            write_table(table, path)
            back = read_table(path, TableKind.INTER)
            assert back == table, f"round trip failed on instance {i}"

    def test_zero_rows_writes_header_only(self, tmp_path):
        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN)],
                          {"user_id": [], "item_id": []})
        path = tmp_path / "empty.inter"
        write_table(table, path)
        assert path.read_text() == "user_id:token,item_id:token\n"
        assert read_table(path, TableKind.INTER) == table

    def test_missing_written_as_empty_cells(self, tmp_path):
        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN),
                           FieldSpec("rating", FieldType.FLOAT)],
                          {"user_id": ["a"], "item_id": [None],
                           "rating": np.array([np.nan])})
        path = tmp_path / "m.inter"
        write_table(table, path)
        assert path.read_text().splitlines()[1] == "a,,"
        assert read_table(path, TableKind.INTER) == table

    def test_token_with_separator_rejected(self, tmp_path):
        table = DataTable(TableKind.INTER,
                          [FieldSpec("user_id", FieldType.TOKEN),
                           FieldSpec("item_id", FieldType.TOKEN)],
                          {"user_id": ["a,b"], "item_id": ["i"]})
        with pytest.raises(TableFileError, match="separator"):
            write_table(table, tmp_path / "x.inter")

    def test_unwritable_path(self):
        table = _random_table(np.random.default_rng(1))
        with pytest.raises(TableFileError, match="cannot write"):
            write_table(table, "/nonexistent-dir/x.inter")


class TestConvertCsv:
    MAPPING = {
        "userId": ("user_id", FieldType.TOKEN),
        "movieId": ("item_id", FieldType.TOKEN),
        "rating": ("rating", FieldType.FLOAT),
        "timestamp": ("timestamp", FieldType.FLOAT),
    }

    def test_movielens_style(self, tmp_path):
        src = tmp_path / "ratings.csv"
        src.write_text("userId,movieId,rating,timestamp\n"
                       "1,31,2.5,1260759144\n"
                       "1,1029,3.0,1260759179\n", encoding="utf-8")
        table = convert_csv(src, self.MAPPING, TableKind.INTER)
        assert table.field_names == ["user_id", "item_id", "rating", "timestamp"]
        assert table.row_count == 2
        assert table.decode("user_id") == ["1", "1"]
        np.testing.assert_allclose(table.columns["rating"], [2.5, 3.0])

    def test_dropped_columns(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("userId,movieId,junk\n1,2,zzz\n", encoding="utf-8")
        mapping = {"userId": ("user_id", FieldType.TOKEN),
                   "movieId": ("item_id", FieldType.TOKEN)}
        table = convert_csv(src, mapping, TableKind.INTER)
        assert table.field_names == ["user_id", "item_id"]

    def test_absent_source_column(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("a,b\n1,2\n", encoding="utf-8")
        with pytest.raises(TableFileError, match="userId"):
            convert_csv(src, self.MAPPING, TableKind.INTER)

    def test_coercion_error_names_row_and_field(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("userId,movieId,rating,timestamp\n"
                       "1,2,ok?,3\n", encoding="utf-8")
        with pytest.raises(TableFileError, match=r":2.*rating"):
            convert_csv(src, self.MAPPING, TableKind.INTER)

    def test_round_trip_through_write(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("userId,movieId,rating,timestamp\n"
                       "7,9,4.0,10\n", encoding="utf-8")
        table = convert_csv(src, self.MAPPING, TableKind.INTER)
        out = tmp_path / "out.inter"
        write_table(table, out)
        assert read_table(out, TableKind.INTER) == table
