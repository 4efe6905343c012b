"""Experiment configuration.

Config files are flat ``key: value`` lines (a YAML subset) with dotted
keys for nesting, e.g.::

    inter_path: data/ml.inter
    model: bpr
    train.learning_rate: 0.05
    train.epochs: 30
    metrics: [recall, ndcg]
    topk: [5, 10]
    filters: ["rating>=3.0", "inter_num(5,5)"]

Precedence is built-in defaults < config file < command-line overrides.
Every effective value is echoed into the run log; the SHA-256 hash of the
fully resolved config (16 hex chars) is embedded in checkpoints and
report headers.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field, fields as dc_fields, replace

import yaml

from .errors import ConfigError
from .models import MODEL_PARAM_SCHEMA, MODEL_REGISTRY
from .models.base import TrainConfig


@dataclass(frozen=True)
class Config:
    inter_path: str = ""
    user_path: str = ""
    item_path: str = ""
    kg_path: str = ""
    link_path: str = ""
    net_path: str = ""
    separator: str = ","
    user_field: str = "user_id"
    item_field: str = "item_id"
    time_field: str = "timestamp"
    filters: tuple = ()
    label_source: str = ""
    label_threshold: float = 0.0
    normalize_fields: tuple = ()
    eval_setting: str = "RO_RS,full"
    split_ratios: tuple = (0.8, 0.1, 0.1)
    model: str = "bpr"
    model_params: dict = field(default_factory=dict)
    train: TrainConfig = field(default_factory=TrainConfig)
    metrics: tuple = ("recall", "ndcg")
    topk: tuple = (10,)
    valid_metric: str = "ndcg@10"
    eval_batch_size: int = 512
    mask_train: bool = True
    truth_field: str = "label"
    seed: int = 42
    out_dir: str = "runs"

    def to_dict(self):
        out = {}
        for f in dc_fields(self):
            value = getattr(self, f.name)
            if f.name == "train":
                out[f.name] = value.to_dict()
            elif isinstance(value, tuple):
                out[f.name] = list(value)
            else:
                out[f.name] = value
        return out

    @property
    def hash(self):
        """16 hex chars identifying the experiment.

        ``out_dir`` is excluded: it determines where results are stored,
        not what they are, so a relocated rerun still matches its
        checkpoints.
        """
        payload = {k: v for k, v in self.to_dict().items() if k != "out_dir"}
        blob = json.dumps(payload, sort_keys=True).encode("utf-8")
        return hashlib.sha256(blob).hexdigest()[:16]


_TUPLE_KEYS = {"filters", "normalize_fields", "metrics"}
_INT_TUPLE_KEYS = {"topk"}
_FLOAT_TUPLE_KEYS = {"split_ratios"}

_BOOL_KEYS = {"mask_train"}
_INT_KEYS = {"eval_batch_size", "seed"}
_FLOAT_KEYS = {"label_threshold"}

_TRAIN_TYPES = {
    "learning_rate": float, "embedding_dim": int, "l2": float,
    "batch_size": int, "epochs": int, "patience": int, "seed": int,
    "loss": str,
}


def _coerce(key, value, target):
    if target is float:
        if isinstance(value, str):
            # YAML 1.1 keeps "1e-6" a string; accept numeric text
            try:
                return float(value)
            except ValueError:
                raise ConfigError(f"key {key!r} expects a number, "
                                  f"got {value!r}") from None
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"key {key!r} expects a number, got {value!r}")
        return float(value)
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"key {key!r} expects an integer, got {value!r}")
        return int(value)
    if target is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"key {key!r} expects a boolean, got {value!r}")
        return value
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"key {key!r} expects a string, got {value!r}")
        return value
    if target is list:
        if not isinstance(value, (list, tuple)):
            raise ConfigError(f"key {key!r} expects a list, got {value!r}")
        return list(value)
    return value


def _apply_key(cfg: Config, key, value) -> Config:
    if key.startswith("train."):
        sub = key[len("train."):]
        if sub not in _TRAIN_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        coerced = _coerce(key, value, _TRAIN_TYPES[sub])
        return replace(cfg, train=replace(cfg.train, **{sub: coerced}))
    head, dot, sub = key.partition(".")
    if dot and head in MODEL_PARAM_SCHEMA:
        schema = MODEL_PARAM_SCHEMA[head]
        if sub not in schema:
            raise ConfigError(f"unknown config key {key!r} "
                              f"(model {head!r} accepts {sorted(schema)})")
        params = dict(cfg.model_params)
        params.setdefault(head, {})
        params[head] = dict(params[head])
        params[head][sub] = _coerce(key, value, schema[sub])
        return replace(cfg, model_params=params)
    if dot:
        raise ConfigError(f"unknown config key {key!r}")
    names = {f.name for f in dc_fields(Config)}
    if key not in names or key in ("model_params", "train"):
        raise ConfigError(f"unknown config key {key!r}")
    if key in _TUPLE_KEYS:
        value = tuple(str(v) for v in _coerce(key, value, list))
    elif key in _INT_TUPLE_KEYS:
        value = tuple(_coerce(key, v, int) for v in _coerce(key, value, list))
    elif key in _FLOAT_TUPLE_KEYS:
        value = tuple(_coerce(key, v, float) for v in _coerce(key, value, list))
    elif key in _BOOL_KEYS:
        value = _coerce(key, value, bool)
    elif key in _INT_KEYS:
        value = _coerce(key, value, int)
    elif key in _FLOAT_KEYS:
        value = _coerce(key, value, float)
    else:
        value = _coerce(key, value, str)
    return replace(cfg, **{key: value})


def _load_flat_file(path):
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


def parse_override(text):
    """Parse one ``key=value`` command-line override."""
    key, eq, raw = text.partition("=")
    if not eq or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    try:
        value = yaml.safe_load(raw) if raw != "" else ""
    except yaml.YAMLError:
        value = raw
    return key.strip(), value


def load_config(path=None, overrides=()) -> Config:
    """Resolve defaults, then the config file, then CLI overrides.

    ``overrides`` is a list of (key, value) pairs or ``key=value`` strings.
    Raises :class:`ConfigError` for unknown keys, type mismatches, or a
    missing interaction-table path.
    """
    cfg = Config()
    if path is not None:
        for key, value in _load_flat_file(path).items():
            cfg = _apply_key(cfg, str(key), value)
    for item in overrides:
        key, value = item if isinstance(item, tuple) else parse_override(item)
        cfg = _apply_key(cfg, key, value)
    validate_config(cfg)
    return cfg


_FILTER_VALUE_RE = re.compile(r"(?P<field>[A-Za-z_][A-Za-z0-9_]*)\s*"
                              r"(?P<op>>=|<=|==|!=|>|<)\s*(?P<value>[^\s]+)\Z")
_FILTER_CORE_RE = re.compile(r"inter_num\(\s*(\d+)\s*,\s*(\d+)\s*\)\Z")


def parse_filter_spec(text):
    """Parse one filter directive.

    Returns ``("inter_num", min_user, min_item)`` or
    ``("value", field, op, value)``.
    """
    text = text.strip()
    m = _FILTER_CORE_RE.match(text)
    if m:
        return ("inter_num", int(m.group(1)), int(m.group(2)))
    m = _FILTER_VALUE_RE.match(text)
    if m:
        try:
            value = float(m.group("value"))
        except ValueError:
            raise ConfigError(f"filter {text!r}: value must be numeric") from None
        return ("value", m.group("field"), m.group("op"), value)
    raise ConfigError(f"cannot parse filter {text!r} "
                      "(expected field<op>value or inter_num(u,i))")


def validate_config(cfg: Config):
    if not cfg.inter_path:
        raise ConfigError("missing mandatory dataset path 'inter_path'")
    if cfg.model not in MODEL_REGISTRY:
        raise ConfigError(f"unknown model {cfg.model!r} "
                          f"(available: {sorted(MODEL_REGISTRY)})")
    for spec in cfg.filters:
        parse_filter_spec(spec)
    base, at, k = cfg.valid_metric.partition("@")
    if at and not k.isdigit():
        raise ConfigError(f"valid_metric {cfg.valid_metric!r} has a non-integer K")
    for key, seed in (("seed", cfg.seed), ("train.seed", cfg.train.seed)):
        if seed < 0:
            raise ConfigError(f"{key} must be non-negative, got {seed}")
    return cfg


def split_metric_key(name):
    """Split ``"ndcg@10"`` into ("ndcg", 10); plain names get K=None."""
    base, at, k = name.partition("@")
    if not at:
        return base, None
    if not k.isdigit():
        raise ConfigError(f"metric key {name!r} has a non-integer K")
    return base, int(k)


def config_from_dict(data) -> Config:
    """Rebuild a Config from ``Config.to_dict()`` output (checkpoints)."""
    data = dict(data)
    try:
        train = TrainConfig(**data.pop("train"))
        model_params = {k: dict(v) for k, v in data.pop("model_params").items()}
        kwargs = {}
        for f in dc_fields(Config):
            if f.name in ("train", "model_params") or f.name not in data:
                continue
            value = data.pop(f.name)
            if f.name in _TUPLE_KEYS | _INT_TUPLE_KEYS | _FLOAT_TUPLE_KEYS:
                value = tuple(value)
            kwargs[f.name] = value
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed stored config: {exc}") from None
    if data:
        raise ConfigError(f"stored config has unknown keys {sorted(data)}")
    return validate_config(Config(train=train, model_params=model_params, **kwargs))
