"""Configuration resolution, precedence, and validation."""

import pytest

from recbench.config import (config_from_dict, load_config,
                             parse_filter_spec, split_metric_key)
from recbench.errors import ConfigError


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
