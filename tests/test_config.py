"""Configuration resolution, precedence, and validation."""

import hashlib
import math

import pytest

from recbench.config import (config_from_dict, load_config,
                             parse_filter_spec, split_metric_key)
from recbench.errors import ConfigError
from recbench.search import _apply_assignment


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
