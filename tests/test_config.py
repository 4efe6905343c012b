"""Configuration resolution, precedence, and validation."""

import hashlib
import math
import re
import sys
from pathlib import Path
from unittest import mock

import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from recbench import config, search
from recbench.config import (config_from_dict, load_config, parse_override,
                             parse_filter_spec, split_metric_key)
from recbench.errors import ConfigError, RecbenchError
from recbench.search import _apply_assignment, parse_range_file

ROOT = Path(__file__).resolve().parent.parent


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.yaml"
    path.write_text(text, encoding="utf-8")
    return path


class TestPrecedence:
    def test_cli_overrides_file(self, tmp_path):
        path = _write_cfg(tmp_path,
                          "inter_path: data.inter\ntrain.learning_rate: 0.01\n")
        cfg = load_config(path, ["train.learning_rate=0.1"])
        assert cfg.train.learning_rate == 0.1

    def test_file_overrides_defaults(self, tmp_path):
        path = _write_cfg(tmp_path, "inter_path: data.inter\nmodel: ease\n")
        cfg = load_config(path)
        assert cfg.model == "ease"
        assert cfg.eval_setting == "RO_RS,full"  # untouched default

    def test_defaults_plus_path_is_valid(self):
        cfg = load_config(None, ["inter_path=data.inter"])
        assert cfg.model == "bpr"
        assert cfg.topk == (10,)
        assert cfg.train.epochs == 50


class TestValidation:
    def test_unknown_key_named(self, tmp_path):
        path = _write_cfg(tmp_path, "inter_path: d.inter\nfoo: 1\n")
        with pytest.raises(ConfigError, match="foo"):
            load_config(path)

    def test_unknown_dotted_key(self):
        with pytest.raises(ConfigError, match="train.momentum"):
            load_config(None, ["inter_path=d", "train.momentum=0.9"])

    def test_unknown_model_param(self):
        with pytest.raises(ConfigError, match="itemknn.alpha"):
            load_config(None, ["inter_path=d", "itemknn.alpha=2"])

    def test_type_mismatch(self):
        with pytest.raises(ConfigError, match="train.learning_rate"):
            load_config(None, ["inter_path=d", "train.learning_rate=fast"])
        with pytest.raises(ConfigError, match="train.epochs"):
            load_config(None, ["inter_path=d", "train.epochs=2.5"])

    def test_missing_inter_path(self):
        with pytest.raises(ConfigError, match="inter_path"):
            load_config(None)

    def test_unknown_model(self):
        with pytest.raises(ConfigError, match="unknown model"):
            load_config(None, ["inter_path=d", "model=mlp"])

    @pytest.mark.parametrize("key", ["seed", "train.seed"])
    def test_negative_seed(self, key):
        with pytest.raises(ConfigError, match=f"{key} must be non-negative"):
            load_config(None, ["inter_path=d", f"{key}=-1"])

    def test_filter_grammar(self):
        assert parse_filter_spec("rating>=3.0") == ("value", "rating", ">=", 3.0)
        assert parse_filter_spec("inter_num(5,2)") == ("inter_num", 5, 2)
        with pytest.raises(ConfigError):
            parse_filter_spec("rating ~ 3")
        for text in ("rating==nan", "rating!=nan", "rating>=inf", "rating<-inf",
                     "rating>1e400", "rating<=NaN"):
            with pytest.raises(ConfigError, match="finite"):
                parse_filter_spec(text)

    def test_nested_mapping_rejected(self, tmp_path):
        path = _write_cfg(tmp_path, "inter_path: d\ntrain:\n  epochs: 3\n")
        with pytest.raises(ConfigError, match="dotted"):
            load_config(path)


class TestHashAndRoundTrip:
    def test_hash_stable_and_sensitive(self):
        a = load_config(None, ["inter_path=d", "seed=1"])
        b = load_config(None, ["inter_path=d", "seed=1"])
        c = load_config(None, ["inter_path=d", "seed=2"])
        assert a.hash == b.hash
        assert a.hash != c.hash
        assert len(a.hash) == 16

    def test_dict_round_trip(self):
        cfg = load_config(None, [
            "inter_path=d.inter", "model=itemknn", "itemknn.k=7",
            "metrics=[recall, mrr]", "topk=[5, 10]",
            "filters=['rating>=3.0', 'inter_num(2,2)']",
            "train.epochs=3",
        ])
        back = config_from_dict(cfg.to_dict())
        assert back == cfg
        assert back.hash == cfg.hash

    def test_model_params_collected(self):
        cfg = load_config(None, ["inter_path=d", "model=ease", "ease.l2=55.5"])
        assert cfg.model_params["ease"]["l2"] == 55.5


class TestMetricKeys:
    def test_split(self):
        assert split_metric_key("ndcg@10") == ("ndcg", 10)
        assert split_metric_key("rmse") == ("rmse", None)
        with pytest.raises(ConfigError):
            split_metric_key("ndcg@ten")


_EVERY_KIND = """\
inter_path: d.inter
user_path: d.user
separator: ";"
time_field: ts
filters: ["rating>=3.0", "inter_num(2,2)"]
label_source: rating
label_threshold: 3
normalize_fields: [rating]
eval_setting: TO_LS,uni20
split_ratios: [0.7, 0.2, 0.1]
model: itemknn
metrics: [recall, ndcg, mrr, 7]
topk: [5, 10]
valid_metric: mrr@5
eval_batch_size: 64
mask_train: false
truth_field: click
seed: 7
out_dir: runs/pin
train.learning_rate: 1e-2
train.embedding_dim: 16
train.l2: 0
train.batch_size: 128
train.epochs: 3
train.patience: 2
train.seed: 9
train.loss: margin
itemknn.k: 7
itemknn.shrink: 2
ease.l2: 55
fm.fields: [user_id, item_id]
"""


def _repr_digest(cfg):
    return hashlib.sha256(repr(cfg).encode("utf-8")).hexdigest()[:16]


class TestSchemaPin:
    """Hashes and reprs of three resolved configs.

    ``Config.hash`` pins every value as JSON sees it (so ``3`` vs ``3.0``);
    the repr digest also pins the Python types, tuples included.  Adding
    or removing a key moves every pin.
    """

    @pytest.fixture
    def configs(self, tmp_path):
        every = load_config(_write_cfg(tmp_path, _EVERY_KIND))
        trial = _apply_assignment(
            every, {"seed": 5, "train.seed": 5, "train.learning_rate": 0.1,
                    "itemknn.k": 3, "topk": [3]}, 2)
        return {"default": load_config(None, ["inter_path=d.inter"]),
                "every": every, "trial": trial}

    @pytest.mark.parametrize("name, config_hash, repr_digest", [
        ("default", "55b7918942599eb3", "d4558b88fa6cef77"),
        ("every", "f7f6a6b7bfe36270", "227690fe144ebb24"),
        ("trial", "f5e138d2cbfd30ec", "3436e4545991c606"),
    ])
    def test_hash_and_types_pinned(self, configs, name, config_hash, repr_digest):
        cfg = configs[name]
        assert cfg.hash == config_hash
        assert _repr_digest(cfg) == repr_digest
        back = config_from_dict(cfg.to_dict())
        assert back == cfg
        assert _repr_digest(back) == repr_digest

    def test_every_kind_coerced(self, configs):
        cfg = configs["every"]
        assert cfg.label_threshold == 3.0 and type(cfg.label_threshold) is float
        assert cfg.metrics == ("recall", "ndcg", "mrr", "7")
        assert cfg.topk == (5, 10) and cfg.split_ratios == (0.7, 0.2, 0.1)
        assert cfg.mask_train is False and cfg.eval_batch_size == 64
        assert cfg.train.learning_rate == 0.01 and type(cfg.train.l2) is float
        assert cfg.model_params == {"itemknn": {"k": 7, "shrink": 2.0},
                                    "ease": {"l2": 55.0},
                                    "fm": {"fields": ["user_id", "item_id"]}}
        trial = configs["trial"]
        assert (trial.seed, trial.train.seed, trial.topk) == (5, 5, (3,))
        assert trial.out_dir == "runs/pin/trial_0002"

    @pytest.mark.parametrize("key, value", [
        ("mask_train", 1), ("eval_batch_size", 2.5), ("label_threshold", "x"),
        ("valid_metric", 3), ("topk", [2.5]), ("split_ratios", ["x", 1, 1]),
        ("metrics", "recall"), ("train.epochs", True), ("train.loss", 1),
        ("itemknn.k", 1.0), ("fm.fields", "user_id"),
        ("train.learning_rate", math.nan), ("ease.l2", math.nan),
        ("itemknn.shrink", math.inf), ("split_ratios", [math.nan, 0.5, 0.5]),
        ("label_threshold", "1e400"), ("label_threshold", -math.inf),
        ("train.l2", 10**400),
    ])
    def test_wrong_type_names_the_key(self, key, value):
        with pytest.raises(ConfigError, match=key.replace(".", r"\.")):
            load_config(None, [("inter_path", "d"), (key, value)])


def _yaml_load_flat_file(path):
    """The PyYAML reader that the flat-subset reader replaced: the oracle."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = yaml.safe_load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse config {path}: {exc}") from None
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"config {path} must be flat key: value lines")
    for key, value in data.items():
        if isinstance(value, dict):
            raise ConfigError(f"config key {key!r} nests a mapping; "
                              "use dotted keys instead")
    return data


def _yaml_parse_override(text):
    key, eq, raw = text.partition("=")
    if not eq or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    try:
        value = yaml.safe_load(raw) if raw != "" else ""
    except yaml.YAMLError:
        value = raw
    return key.strip(), value


def _outcome(read, *args, oracle=False):
    """``read(*args)``, or the type of the error it raises; PyYAML's if ``oracle``."""
    with mock.patch.object(config, "_load_flat_file",
                           _yaml_load_flat_file if oracle else config._load_flat_file), \
            mock.patch.object(config, "parse_override",
                              _yaml_parse_override if oracle else parse_override), \
            mock.patch.object(search, "parse_override",
                              _yaml_parse_override if oracle else parse_override):
        try:
            return read(*args)
        except RecbenchError as exc:
            return type(exc)


def _same(new, old):
    # a Config that holds a NaN (fm.fields=[.nan]) is unequal to an equal copy
    return repr(new) == repr(old) and (new == old or "nan" in repr(new))


def _space_params(path):
    return parse_range_file(path).params


def _readme_examples():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (cfg,) = re.findall(r"```yaml\n(.*?)```", readme, re.S)
    (space,) = re.findall(r"cat > hyper.test <<EOF\n(.*?)EOF", readme, re.S)
    return cfg, space


def _workload_configs():
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    return [workloads.config_text(w, "d.inter", "runs/w") for w in workloads.WORKLOADS.values()]


_CLI_CONFIG = ("inter_path: tests/data/toy.inter\nmodel: popularity\n"
               "eval_setting: TO_LS,full\nmetrics: [recall]\ntopk: [1]\n"
               "valid_metric: recall@1\nout_dir: runs/filecfg\n")
_SPANS_CONFIG = ("inter_path: d.inter\nmetrics: [recall, ndcg]\ntopk: [5]\n"
                 "valid_metric: ndcg@5\nout_dir: x/bpr\nmodel: bpr\n"
                 "eval_setting: RO_RS,full\n"
                 'filters: ["rating>=2.0", "inter_num(5,5)"]\n'
                 "train.embedding_dim: 8\ntrain.epochs: 2\n")
_SPACES = ["train.learning_rate=[0.01,0.1]\ntrain.embedding_dim=[8, 16]\n",
           "ease.l2=[1.0,10.0]\n", "train.learning_rate=[0.05, 0.2]\n"]


# Values from the subset (plain words, numbers, YAML 1.1 keywords, quoted
# strings, flow lists, comments) mixed with text outside it.
_KEYS = ["out_dir", "user_path", "eval_setting", "valid_metric", "seed", "eval_batch_size",
         "label_threshold", "mask_train", "metrics", "topk", "split_ratios",
         "normalize_fields", "train.learning_rate", "train.epochs", "itemknn.k",
         "ease.l2", "fm.fields"]
_SCALARS = st.one_of(
    st.from_regex(r"[A-Za-z0-9_~.+/@<>=()!&*%-][A-Za-z0-9_.+/@<>=()!&*%?|,`: -]{0,8}",
                  fullmatch=True),
    st.integers(-10**6, 10**6).map(str), st.integers(0, 10**6).map(lambda n: f"{n:_}"),
    st.floats(allow_nan=False, width=32).map(repr),
    st.floats(-1e3, 1e3).map(lambda x: f"{x:.3f}"),
    st.sampled_from(["yes", "No", "ON", "off", "True", "FALSE", "y", "n", "yES", "~",
                     "null", "NULL", "nULL", "0", "00", "012", "0x1F", "0b11", "1:30",
                     "2024-01-01", "1e-3", "1.5E+3", "1.5e3", ".5", "-.5", "1.", "._5",
                     ".inf", "-.inf", ".nan", ".NaN", "-", "...", "=", "<<", "1_0.5",
                     "runs/a:b", "C:/data", "x:", "12:30", "1:30.5", "0:5"]),
    st.text(" ab,#:[]{}'-?\t\\", max_size=6).map(lambda t: "'" + t.replace("'", "''") + "'"),
    st.text(" ab,#:[]{}'-?\t\\", max_size=6).map(lambda t: f'"{t}"'))
_LISTS = st.tuples(st.lists(_SCALARS, max_size=4), st.sampled_from([", ", ",", " , "]),
                   st.sampled_from(["", ","])).map(lambda t: f"[{t[1].join(t[0])}{t[2]}]")
_JUNK = st.text(" ab1:#,[]{}'\"-?&*!|>%@`\t\\.~", max_size=8)
_VALUES = st.tuples(st.one_of(_SCALARS, _LISTS, _JUNK, st.just("")),
                    st.sampled_from(["", "", " # c", "  #x: y", " #", "#c"])).map("".join)
_LINES = st.one_of(
    st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda t: f"{t[0]}: {t[1]}"),
    st.sampled_from(["", "# comment", "  # indented comment", "   ", "model bpr",
                     "  epochs: 3", "- a", "---", "seed:", "seed:3", "seed : 3"]))
_FLAT_FILES = st.lists(_LINES, max_size=3).map(
    lambda ls: "".join(f"{line}\n" for line in ["inter_path: d.inter", *ls]))
_OVERRIDES = st.tuples(st.sampled_from(_KEYS), _VALUES).map(lambda t: f"{t[0]}={t[1]}")


class TestFlatReader:
    """The flat-subset reader against PyYAML, kept here as a test-only oracle.

    Where PyYAML resolves a file or an override to a Config, the reader
    resolves it to the same Config (``==`` and ``repr``) or rejects it.
    """

    def _file_outcomes(self, tmp_path, text, overrides=()):
        path = tmp_path / "run.yaml"
        path.write_text(text, encoding="utf-8")
        return [_outcome(load_config, path, list(overrides), oracle=oracle)
                for oracle in (False, True)]

    @pytest.mark.parametrize("text", [
        _EVERY_KIND, _CLI_CONFIG, _SPANS_CONFIG, _readme_examples()[0],
        *_workload_configs()])
    def test_every_known_config_file_resolves_alike(self, tmp_path, text):
        new, old = self._file_outcomes(tmp_path, text, ["inter_path=d.inter"])
        assert new is not ConfigError and _same(new, old)

    @pytest.mark.parametrize("text", [*_SPACES, _readme_examples()[1]])
    def test_every_known_space_file_resolves_alike(self, tmp_path, text):
        path = tmp_path / "hyper.test"
        path.write_text(text, encoding="utf-8")
        new, old = (_outcome(_space_params, path, oracle=o) for o in (False, True))
        assert new is not ConfigError and _same(new, old)

    @pytest.mark.parametrize("raw, value", [
        ("1e-3", "1e-3"), ("yes", True), ("No", False), ("~", None),
        ("null", None), ("0", 0), ("-3", -3), ("1_000", 1000),
        ('"quoted, with comma"', "quoted, with comma"), ("TO_LS,uni20", "TO_LS,uni20"),
        ("[a, 'b''c', \"d,e\", 1.5, .inf]", ["a", "b'c", "d,e", 1.5, math.inf]),
        ("", ""), ("\t", "\t"), ("x  # comment", "x"),
    ])
    def test_readings(self, raw, value):
        assert parse_override(f"k={raw}") == ("k", value)
        assert _yaml_parse_override(f"k={raw}") == ("k", value)

    @pytest.mark.parametrize("key", ["out_dir", "metrics", "fm.fields", "seed",
                                     "label_threshold", "mask_train"])
    @pytest.mark.parametrize("raw", ["1e-3", "yes", "No", "~", "null", "0", "-3",
                                     "1_000", '"quoted, with comma"', "TO_LS,uni20"])
    def test_fixed_scalars_resolve_alike(self, tmp_path, key, raw):
        value = f"[{raw}]" if key in ("metrics", "fm.fields") else raw
        new, old = self._file_outcomes(tmp_path, f"inter_path: d\n{key}: {value}\n")
        assert _same(new, old)
        new, old = (_outcome(load_config, None, ["inter_path=d", f"{key}={value}"],
                             oracle=o) for o in (False, True))
        assert _same(new, old)

    @pytest.mark.parametrize("text", [
        "seed: 1\nseed: 2\n", "train:\n  epochs: 3\n", "model bpr\n",
        "metrics: [recall, ndcg\n", 'out_dir: "a\\tb"\n', "topk: [1, [2]]\n",
        "out_dir: &a x\n", "seed: 010\n", "out_dir: 2024-01-01\n",
        "out_dir: a: b\n", "# c\x85seed: 3\n",
    ])
    def test_outside_the_subset_is_rejected(self, tmp_path, text):
        path = tmp_path / "run.yaml"
        path.write_text("inter_path: d\n" + text, encoding="utf-8")
        with pytest.raises(ConfigError, match=re.escape(f"config {path}:")):
            load_config(path)

    @settings(max_examples=400, deadline=None)
    @given(text=_FLAT_FILES, overrides=st.lists(_OVERRIDES, max_size=2))
    def test_file_and_overrides_resolve_alike_or_are_rejected(self, tmp_path_factory,
                                                              text, overrides):
        new, old = self._file_outcomes(tmp_path_factory.getbasetemp(), text, overrides)
        assert new is ConfigError or _same(new, old)

    @settings(max_examples=400, deadline=None)
    @given(overrides=st.lists(_OVERRIDES, min_size=1, max_size=3))
    def test_overrides_resolve_alike_or_are_rejected(self, overrides):
        new, old = (_outcome(load_config, None, ["inter_path=d", *overrides], oracle=o)
                    for o in (False, True))
        assert new is ConfigError or _same(new, old)
