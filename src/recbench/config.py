"""Experiment configuration.

Config files are flat ``key: value`` lines with dotted keys for nesting,
e.g.::

    inter_path: data/ml.inter
    model: bpr
    train.learning_rate: 0.05
    train.epochs: 30
    metrics: [recall, ndcg]
    topk: [5, 10]
    filters: ["rating>=3.0", "inter_num(5,5)"]

Values are a YAML subset, read without a YAML library: plain scalars,
``'...'``/``"..."`` strings without escapes and one-line ``[...]`` lists, with
``#`` comments.  Plain scalars read as in YAML 1.1 (``1e-3`` a string, ``yes``
True, ``~`` None); the rest, a repeated key too, is an error naming the line.

Precedence is built-in defaults < config file < command-line overrides.
The dataclass defaults are the schema: a key's value must have the type
of its default, and a list key takes its default items' type.  Model
keys (``itemknn.k``) are typed by ``MODEL_PARAM_SCHEMA``.  Files,
overrides, checkpoint configs (:func:`config_from_dict`) and search
trials all resolve through the same per-key path.

Every effective value is echoed into the run log; the SHA-256 hash of the
fully resolved config (16 hex chars) is embedded in checkpoints and
report headers.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass, field, fields as dc_fields, replace

from .errors import ConfigError
from .models import MODEL_PARAM_SCHEMA, MODEL_REGISTRY
from .models.base import TrainConfig


@dataclass(frozen=True)
class Config:
    inter_path: str = ""
    user_path: str = ""
    item_path: str = ""
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


# Defaults carry each key's type: a value is coerced to the type of its
# field's default in Config() or TrainConfig().  A tuple default gives a tuple
# of its first item's type; an empty or string tuple takes str(v) items.
_DEFAULTS = {f.name: f.default for f in dc_fields(Config)
             if f.name not in ("model_params", "train")}
_TRAIN_DEFAULTS = {f.name: f.default for f in dc_fields(TrainConfig)}
# the other targets: what an error calls them, and the types they take
_TARGETS = {int: ("an integer", int), bool: ("a boolean", bool),
            str: ("a string", str), list: ("a list", (list, tuple))}


def _finite(value):
    """``value`` (a number or numeric text) as a finite float, else None.

    NaN, the infinities and text that overflows to one (``1e400``) are not
    finite, nor is an integer too large for a float.
    """
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        return None
    return number if math.isfinite(number) else None


def _coerce(key, value, target):
    if target is float:
        # a plain 1e-6 (no dot) reads as a string; numeric text is accepted
        number = None if isinstance(value, bool) else _finite(value)
        if number is None:
            raise ConfigError(f"key {key!r} expects a finite number, got {value!r}")
        return number
    name, types = _TARGETS[target]
    if not isinstance(value, types) or (target is int and isinstance(value, bool)):
        raise ConfigError(f"key {key!r} expects {name}, got {value!r}")
    return list(value) if target is list else value


def _coerce_like(key, value, default):
    if not isinstance(default, tuple):
        return _coerce(key, value, type(default))
    items = _coerce(key, value, list)
    if not default or isinstance(default[0], str):
        return tuple(str(v) for v in items)
    return tuple(_coerce(key, v, type(default[0])) for v in items)


def _apply_key(cfg: Config, key, value) -> Config:
    head, dot, sub = key.partition(".")
    if not dot:
        if key not in _DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        return replace(cfg, **{key: _coerce_like(key, value, _DEFAULTS[key])})
    if head == "train":
        if sub not in _TRAIN_DEFAULTS:
            raise ConfigError(f"unknown config key {key!r}")
        coerced = _coerce_like(key, value, _TRAIN_DEFAULTS[sub])
        return replace(cfg, train=replace(cfg.train, **{sub: coerced}))
    if head not in MODEL_PARAM_SCHEMA:
        raise ConfigError(f"unknown config key {key!r}")
    schema = MODEL_PARAM_SCHEMA[head]
    if sub not in schema:
        raise ConfigError(f"unknown config key {key!r} "
                          f"(model {head!r} accepts {sorted(schema)})")
    params = dict(cfg.model_params)
    params[head] = {**params.get(head, {}), sub: _coerce(key, value, schema[sub])}
    return replace(cfg, model_params=params)


# A value: empty, a scalar or a one-line [a, "b", 3] list, then a comment.  A
# quoted scalar takes no backslash.  A plain one takes no quote, bracket, brace
# or '#', a colon only before another of its characters, and in a list no ','
# or '?'; nor does it start as a YAML 1.1 octal, binary, hex or base-60 number,
# a date, '=', '<<' or '...' would, which YAML reads otherwise.
_QUOTED = r"""'(?:[^']|'')*'|"[^"\\]*\""""
_FIRST = r"(?![-+]?0[\dbx_]|[-+]?\d[\d_]*:|\d{4}-|=|<<|\.\.\.)-?[^-\s'\"#:\[\]{},&*!|>%@`?]"
_CHAR, _ITEM_CHAR = (rf"(?:{c}|:(?={c}))" for c in (r"[^\s'\"#:\[\]{}]", r"[^\s'\"#:\[\]{},?]"))
_ITEM = rf"{_QUOTED}|{_FIRST}{_ITEM_CHAR}*(?: +{_ITEM_CHAR}+)*"
_VALUE_RE = re.compile(rf" *(?:(?P<scalar>{_QUOTED}|{_FIRST}{_CHAR}*(?: +{_CHAR}+)*)|\[(?P<items>"
                       rf" *(?:(?:{_ITEM}) *, *)*(?:(?:{_ITEM}) *)?)\])? *(?:(?<![^ ])#.*)?")
_ITEM_RE, _LINE_RE = re.compile(_ITEM), re.compile(r"(?P<key>[A-Za-z_][\w.]*):(?: (?P<raw>.*))?")
_INT_RE = re.compile(r"[-+]?(?:0|[1-9][\d_]*)")
_FLOAT_RE = re.compile(r"[-+]?\d[\d_]*\.[\d_]*(?:[eE][-+]\d+)?|\.\d[\d_]*(?:[eE][-+]\d+)?"
                       r"|[-+]?\.(?:inf|Inf|INF)|\.(?:nan|NaN|NAN)")
_WORDS = dict.fromkeys(("", "~", "null", "Null", "NULL")) | {
    form: word in ("yes", "true", "on") for word in ("yes", "no", "true", "false", "on", "off")
    for form in (word, word.title(), word.upper())}


def _scalar(text):
    """A scalar of the subset, as YAML 1.1 reads it."""
    if text[:1] in ("'", '"'):
        return text[1:-1].replace("''", "'") if text[0] == "'" else text[1:-1]
    if text in _WORDS:
        return _WORDS[text]
    if _INT_RE.fullmatch(text):
        return int(text.replace("_", ""))
    if _FLOAT_RE.fullmatch(text):  # .inf and .nan lose their dot
        return float(re.sub(r"\.(?=[iInN])", "", text.replace("_", "")))
    return text


def _read_value(raw, where):
    match = _VALUE_RE.fullmatch(raw) if raw.replace("\t", " ").isprintable() else None
    if match is None:
        raise ConfigError(f"{where}: cannot read {raw!r} (outside the flat config subset)")
    if match["items"] is None:
        return _scalar(match["scalar"] or "")
    return [_scalar(item) for item in _ITEM_RE.findall(match["items"])]


def _load_flat_file(path):
    try:
        with open(path, encoding="utf-8-sig") as handle:
            lines = handle.read().split("\n")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    data, seen = {}, {}
    for lineno, line in enumerate(lines, start=1):
        where, match = f"config {path}:{lineno}", _LINE_RE.fullmatch(line)
        if line.lstrip(" ")[:1] in ("", "#") and line.replace("\t", " ").isprintable():
            continue  # blank or a comment (YAML would end one at a '\x85' and read on)
        if match is None:
            raise ConfigError(f"{where}: an indented line nests a mapping or a list; use "
                              "dotted keys and [a, b] lists" if line[:1] == " " else
                              f"{where}: expected 'key: value', got {line!r}")
        if (key := match["key"]) in data:
            raise ConfigError(f"{where}: duplicate key {key!r} (first set on line {seen[key]})")
        data[key], seen[key] = _read_value(match["raw"] or "", where), lineno
    return data


def parse_override(text):
    """Parse one ``key=value`` command-line override."""
    key, eq, raw = text.partition("=")
    if not eq or not key:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    if not raw.strip("\t"):  # "" and a tab separator (no YAML either) stay verbatim
        return key.strip(), raw
    return key.strip(), _read_value(raw, f"override {text!r}")


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
        value = _finite(m.group("value"))
        if value is None:
            raise ConfigError(f"filter {text!r}: value must be a finite number")
        return ("value", m.group("field"), m.group("op"), value)
    if text.count("(") > text.count(")"):
        # a YAML flow list splits an unquoted inter_num(u,i) at its comma
        raise ConfigError(f"cannot parse filter {text!r}: unclosed '('; quote "
                          'each directive, as in filters=["inter_num(5,5)"]')
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
    _, valid_k = split_metric_key(cfg.valid_metric)
    for key, seed in (("seed", cfg.seed), ("train.seed", cfg.train.seed)):
        if seed < 0:
            raise ConfigError(f"{key} must be non-negative, got {seed}")
    for key, size in (("eval_batch_size", cfg.eval_batch_size),
                      ("topk", min(cfg.topk, default=1)),
                      ("valid_metric K", 1 if valid_k is None else valid_k)):
        if size < 1:
            raise ConfigError(f"{key} must be >= 1, got {size}")
    return cfg


def split_metric_key(name):
    """Split ``"ndcg@10"`` into ("ndcg", 10); plain names get K=None."""
    base, at, k = name.partition("@")
    if not at:
        return base, None
    if not k.isdigit():
        raise ConfigError(f"metric key {name!r} has a non-integer K")
    return base, int(k)


def config_pairs(data):
    """Flatten ``Config.to_dict()`` output into ``(dotted key, value)`` pairs."""
    pairs = []
    for key, value in data.items():
        if key == "train":
            pairs.extend((f"train.{k}", v) for k, v in value.items())
        elif key == "model_params":
            pairs.extend((f"{m}.{k}", v) for m, sub in value.items()
                         for k, v in sub.items())
        else:
            pairs.append((key, value))
    return pairs


def config_from_dict(data) -> Config:
    """Rebuild a Config from ``Config.to_dict()`` output (checkpoints)."""
    try:
        pairs = config_pairs(data)
    except (AttributeError, TypeError) as exc:
        raise ConfigError(f"malformed stored config: {exc}") from None
    return load_config(None, pairs)
