"""End-to-end experiment execution.

``run_experiment`` drives the whole flow: read the table files, apply the
configured preprocessing (filters in config order, then ID remapping,
imputation, labeling, normalization), build the split per the evaluation
setting, train the model with per-epoch validation, early stopping and
checkpointing, evaluate the best checkpoint on the test split, and write
``report.txt`` / ``report.json`` / ``run.log`` plus the ``model_last`` /
``model_best`` checkpoints into the output directory.  A run that ends
writes one ``env`` line: the last one after its report, or the one
before the resume hint if interrupted.  Every model goes through the
same epoch loop; a closed-form model fits in its one epoch.

``_make_evaluator`` is the one place that wires a stage (split, plan,
candidates, history mask, value targets) into an ``Evaluator``; the run's
valid and test stages and the library's :func:`evaluate` all use it.

Given identical table files, config, and seed, the report files are
byte-identical across runs; wall-clock timestamps live only in the log.
Training can be interrupted after any epoch (``stop_after_epoch`` or the
CLI ``--stop-after-epoch`` flag) and resumed from the last checkpoint
with bitwise-identical final parameters.
"""

from __future__ import annotations

import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import dataset as ds_mod
from .config import (Config, config_from_dict, config_pairs, load_config,
                     parse_filter_spec, split_metric_key)
from .errors import (CheckpointError, ConfigError, DataError, ModelError,
                     RecbenchError)
from .evaluator import Evaluator, MetricReport
from .metrics import metric_direction, metric_kind
from .models import build_model, load_state, save_state
from .protocol import (build_candidates, history_by_user, make_split,
                       parse_eval_setting)
from .ranking import TOPK_BACKEND
from .tables import TableKind, read_table


class RunLog:
    """Append-only run log; timestamps stay out of the report files.

    A fresh run starts an empty file; ``append`` keeps what is there, so
    a resumed run's lines follow the interrupted run's.
    """

    def __init__(self, path=None, echo=False, append=False):
        self.path = Path(path) if path else None
        self.echo = echo
        if self.path:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            if not append:
                self.path.write_text("", encoding="utf-8")

    def write(self, message):
        line = f"{time.strftime('%Y-%m-%d %H:%M:%S')} | {message}"
        if self.path:
            with self.path.open("a", encoding="utf-8") as handle:
                handle.write(line + "\n")
        if self.echo:
            print(line)


def _environment_line():
    """The ``env`` record a run ends its log with.

    It names the top-k backend, numpy, the BLAS build, the BLAS thread
    count asked for through ``OPENBLAS_NUM_THREADS``/``OMP_NUM_THREADS``
    (``default`` if neither is set) and scipy's version, or ``unloaded``
    if the process has not imported scipy; reading it imports nothing.
    """
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = (os.environ.get("OPENBLAS_NUM_THREADS")
               or os.environ.get("OMP_NUM_THREADS") or "default")
    scipy = sys.modules.get("scipy")
    return (f"env topk_backend={TOPK_BACKEND} numpy={np.__version__} "
            f"blas={blas.get('name')} blas_version={blas.get('version')} "
            f"blas_threads={threads} "
            f"scipy={scipy.__version__ if scipy else 'unloaded'}")


def load_dataset(cfg: Config, log=None) -> ds_mod.Dataset:
    """Read the configured tables and run the preprocessing chain."""
    log = log or RunLog()
    tables = {}
    for attr, key, kind in (("inter", "inter_path", TableKind.INTER),
                            ("user_feat", "user_path", TableKind.USER),
                            ("item_feat", "item_path", TableKind.ITEM)):
        path = getattr(cfg, key)
        if path:
            tables[attr] = read_table(path, kind, cfg.separator)
    ds = ds_mod.Dataset.build(user_field=cfg.user_field,
                              item_field=cfg.item_field, **tables)
    log.write(f"loaded {len(ds.inter)} interaction rows from {cfg.inter_path}")
    for spec in cfg.filters:
        form, *args = parse_filter_spec(spec)
        try:
            if form == "inter_num":
                ds = ds_mod.filter_by_inter_num(ds, *args)
            else:
                ds = ds_mod.filter_by_field_value(ds, *args)
        except DataError as exc:
            raise DataError(f"filter {spec!r}: {exc}") from None
        log.write(f"filter {spec!r} -> {len(ds.inter)} rows")
    ds = ds_mod.remap_ids(ds)
    log.write(f"remapped IDs: {ds.n_users - 1} users, {ds.n_items - 1} items")
    ds = ds_mod.fill_nan(ds)
    if cfg.label_source:
        ds = ds_mod.set_label_by_threshold(ds, cfg.label_source,
                                           cfg.label_threshold, cfg.truth_field)
        log.write(f"labels: {cfg.label_source} >= {cfg.label_threshold}")
    if cfg.normalize_fields:
        ds = ds_mod.normalize(ds, list(cfg.normalize_fields))
        log.write(f"normalized {list(cfg.normalize_fields)}")
    return ds


def _value_pairs(ds, rows, truth_field):
    rows = np.asarray(rows, dtype=np.int64)
    users = ds.user_ids()[rows]
    items = ds.item_ids()[rows]
    truths = ds.inter.columns[truth_field][rows]
    return (users, items), truths


def _make_evaluator(ds, split, plan, metric_names, ks, target, mask_train,
                    truth_field, batch_size, config_hash, log=None):
    """Wire an Evaluator for the valid or test stage (None if no targets).

    A sampled stage writes its candidate counts to ``log``.
    """
    ranking = [m for m in metric_names if metric_kind(m) == "ranking"]
    value = [m for m in metric_names if metric_kind(m) == "value"]
    target_rows = split.test if target == "test" else split.valid
    if len(target_rows) == 0:
        return None
    users, positives, candidates, mask_items = (), (), None, None
    mask_label, cand_label = "none", "full"
    if ranking:
        cand = build_candidates(ds, split, plan.candidates, plan.seed,
                                plan.n_negatives, target=target,
                                label_field=truth_field)
        if len(cand.users) == 0:
            return None
        if cand.mode == "uni" and log is not None:
            log.write(f"candidates {target} {cand.describe()}: users={len(cand.users)} "
                      f"candidates={sum(map(len, cand.candidates))} "
                      f"per_user_draws={cand.per_user_draws}")
        users, positives, candidates = cand.users, cand.positives, cand.candidates
        cand_label = cand.describe()
        if plan.candidates == "full" and mask_train:
            history_rows = (split.train if target == "valid"
                            else np.concatenate([split.train, split.valid]))
            hist = history_by_user(ds, history_rows)
            mask_items = [hist.get(int(u), np.empty(0, np.int64)) for u in users]
            mask_label = "train" if target == "valid" else "train+valid"
    value_pairs = None
    if value:
        if not ds.inter.has_field(truth_field):
            raise ConfigError(f"value metrics need the {truth_field!r} column; "
                              "set label_source/label_threshold")
        value_pairs = _value_pairs(ds, target_rows, truth_field)
    return Evaluator(ds.n_items, users, positives, metric_names, ks,
                     mask_items=mask_items, candidates=candidates,
                     batch_size=batch_size, mask_label=mask_label,
                     candidate_label=cand_label, value_pairs=value_pairs,
                     config_hash=config_hash, user_field=ds.user_field,
                     item_field=ds.item_field)


def evaluate(model, ds, plan, metric_names, ks, batch_size=512,
             mask_train=True, time_field="timestamp") -> MetricReport:
    """Split the dataset per ``plan`` and evaluate ``model`` on its test stage.

    The split, candidates and history mask are wired exactly as in a run;
    value metrics (rmse, mae) read the ``label`` column.
    """
    split = make_split(ds, plan, time_field=time_field)
    ev = _make_evaluator(ds, split, plan, metric_names, ks, "test", mask_train,
                         "label", batch_size, "")
    if ev is None:
        raise RecbenchError("test split is empty; nothing to evaluate")
    return ev.evaluate(model)


@dataclass
class TrainState:
    epoch: int = 0
    best_score: float = math.nan
    best_epoch: int = 0
    stale: int = 0
    finished: bool = False


@dataclass
class RunResult:
    report: MetricReport | None
    config_hash: str
    epoch_losses: list = field(default_factory=list)
    valid_scores: list = field(default_factory=list)
    best_epoch: int = 0
    interrupted: bool = False
    out_dir: Path | None = None
    report_text_path: Path | None = None
    report_json_path: Path | None = None
    checkpoint_best: Path | None = None
    checkpoint_last: Path | None = None


def _manifest(cfg, state: TrainState, rng):
    record = asdict(state)
    if math.isnan(state.best_score):
        record["best_score"] = None
    return {"model": cfg.model, "config": cfg.to_dict(), "config_hash": cfg.hash,
            **record,
            "rng_state": rng.bit_generator.state if rng is not None else None}


def _last_epoch(model, cfg: Config):
    """Iterative models run up to ``cfg.train.epochs`` epochs; closed-form
    models run one, over the single batch their ``epoch_batches`` yields."""
    return cfg.train.epochs if model.iterative else 1


def _fit(model, cfg: Config, rng, valid_scorer, state: TrainState,
         ckpt_best, ckpt_last, log, stop_after_epoch=None):
    """Train to completion, early stop, or interruption; returns history."""
    direction = metric_direction(cfg.valid_metric)
    losses, scores = [], []
    interrupted = False

    def improved(score):
        return math.isnan(state.best_score) or direction * (score - state.best_score) > 0

    def checkpoint(path):
        save_state(path, _manifest(cfg, state, rng), model.state_arrays())

    last = _last_epoch(model, cfg)
    for epoch in range(state.epoch + 1, last + 1):
        # a diverging step overflows before its loss is checked; the check
        # reports that as one error rather than as numpy warnings
        with np.errstate(over="ignore", invalid="ignore"):
            epoch_loss = float(np.mean([model.calculate_loss(b)
                                        for b in model.epoch_batches(rng)]))
        if not math.isfinite(epoch_loss):
            raise ModelError(f"training diverged: epoch {epoch} loss is "
                             f"{epoch_loss} (try a smaller learning rate)")
        losses.append(epoch_loss)
        state.epoch = epoch
        score = valid_scorer(model) if valid_scorer else None
        if score is not None:
            scores.append(score)
            if improved(score):
                state.best_score = score
                state.best_epoch = epoch
                state.stale = 0
                checkpoint(ckpt_best)
            else:
                state.stale += 1
        else:
            state.best_epoch = epoch
            checkpoint(ckpt_best)
        stopping = score is not None and state.stale >= cfg.train.patience
        if stopping or epoch == last:
            state.finished = True
        checkpoint(ckpt_last)
        log.write(f"epoch {epoch}: loss={epoch_loss:.6f}"
                  + (f" valid[{cfg.valid_metric}]={score:.6f}" if score is not None else "")
                  + (f" (best epoch {state.best_epoch})"))
        if state.finished:
            if stopping:
                log.write(f"early stop: no improvement for {state.stale} epochs")
            break
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            interrupted = True
            log.write(_environment_line())
            log.write(f"interrupted after epoch {epoch}; resume from {ckpt_last}")
            break
    return losses, scores, interrupted


def _prepare(cfg: Config, log):
    for key, value in sorted(cfg.to_dict().items()):
        log.write(f"config.{key} = {value!r}")
    log.write(f"config hash {cfg.hash}")
    ds = load_dataset(cfg, log)
    plan = parse_eval_setting(cfg.eval_setting, seed=cfg.seed,
                              ratios=cfg.split_ratios)
    split = make_split(ds, plan, time_field=cfg.time_field)
    log.write(f"split {plan.describe()}: train={len(split.train)} "
              f"valid={len(split.valid)} test={len(split.test)}")
    return ds, plan, split


def _valid_scorer(ds, split, plan, cfg, log):
    base, k = split_metric_key(cfg.valid_metric)
    kind = metric_kind(base)
    if kind == "ranking" and k is None:
        raise ConfigError(f"ranking valid_metric needs a K, e.g. {base}@10")
    ks = [k] if k is not None else []
    ev = _make_evaluator(ds, split, plan, [base], ks, "valid", cfg.mask_train,
                         cfg.truth_field, cfg.eval_batch_size, cfg.hash, log)
    if ev is None:
        return None
    key = f"{base}@{k}" if k is not None else base

    def scorer(model):
        return ev.evaluate(model).values[key]

    return scorer


def _train_and_report(cfg: Config, log, stop_after_epoch=None,
                      resume=None) -> RunResult:
    """The flow shared by a new and a resumed run: data, training, report.

    ``resume`` is a checkpoint's ``(manifest, arrays)``; the model, RNG and
    training state continue from it, and a finished run is only
    re-evaluated.  The test stage scores the best checkpoint.
    """
    ds, plan, split = _prepare(cfg, log)
    if len(split.train) == 0:
        raise RecbenchError("train split is empty")
    rng = np.random.default_rng(cfg.train.seed)
    # FM trains on the labels that label_source/label_threshold wrote
    params = {"label_field": cfg.truth_field, **cfg.model_params.get(cfg.model, {})}
    model = build_model(cfg.model, ds, split.train, cfg.train, params=params,
                        rng=rng)
    state = TrainState()
    if resume is not None:
        manifest, arrays = resume
        model.load_state_arrays(arrays)
        if manifest["rng_state"] is not None:
            rng.bit_generator.state = manifest["rng_state"]
        state = TrainState(**{f.name: manifest[f.name] for f in fields(TrainState)})
        if state.best_score is None:
            state.best_score = math.nan
    out_dir = Path(cfg.out_dir)
    result = RunResult(report=None, config_hash=cfg.hash, out_dir=out_dir,
                       checkpoint_best=out_dir / "model_best.ckpt",
                       checkpoint_last=out_dir / "model_last.ckpt")
    if state.finished:
        log.write("checkpoint already finished; re-emitting the report")
    elif state.epoch >= _last_epoch(model, cfg):
        log.write(f"no epoch left after epoch {state.epoch}; re-emitting the report")
    else:
        scorer = _valid_scorer(ds, split, plan, cfg, log)
        if scorer is None:
            log.write("no validation targets; training runs all epochs")
        result.epoch_losses, result.valid_scores, result.interrupted = _fit(
            model, cfg, rng, scorer, state, result.checkpoint_best,
            result.checkpoint_last, log, stop_after_epoch=stop_after_epoch)
    result.best_epoch = state.best_epoch
    if result.interrupted:
        return result
    model.load_state_arrays(load_state(result.checkpoint_best)[1])
    test_eval = _make_evaluator(ds, split, plan, list(cfg.metrics),
                                list(cfg.topk), "test", cfg.mask_train,
                                cfg.truth_field, cfg.eval_batch_size, cfg.hash, log)
    if test_eval is None:
        raise RecbenchError("test split is empty; nothing to evaluate")
    result.report = test_eval.evaluate(model)
    result.report_text_path = out_dir / "report.txt"
    result.report_json_path = out_dir / "report.json"
    result.report_text_path.write_text(result.report.to_text(), encoding="utf-8")
    result.report_json_path.write_text(result.report.to_json(), encoding="utf-8")
    for key, value in result.report.values.items():
        log.write(f"test {key} = {value!r}")
    log.write(_environment_line())
    return result


def _check_stop_after(stop_after_epoch):
    if stop_after_epoch is not None and stop_after_epoch < 1:
        raise ConfigError(f"stop_after_epoch must be >= 1, got {stop_after_epoch}")


def run_experiment(cfg: Config, stop_after_epoch=None, echo=False) -> RunResult:
    """Execute the full flow; see the module docstring."""
    _check_stop_after(stop_after_epoch)
    log = RunLog(Path(cfg.out_dir) / "run.log", echo=echo)
    return _train_and_report(cfg, log, stop_after_epoch)


def resume_experiment(checkpoint_path, config_path=None, overrides=(),
                      force=False, stop_after_epoch=None, echo=False) -> RunResult:
    """Continue (or re-emit) a run from its last checkpoint.

    The checkpoint carries the fully resolved config.  Passing a config
    file or overrides recomputes the hash; a mismatch is an error unless
    ``force`` is set.  Overrides without a config file apply on top of the
    checkpoint's config.  Resuming an already-finished run re-emits the
    report without training.
    """
    _check_stop_after(stop_after_epoch)
    manifest, arrays = load_state(checkpoint_path)
    stored_cfg = config_from_dict(manifest["config"])
    if config_path is not None or overrides:
        base = config_pairs(manifest["config"]) if config_path is None else []
        cfg = load_config(config_path, [*base, *overrides])
        if cfg.hash != manifest["config_hash"]:
            if not force:
                raise CheckpointError(
                    f"config hash mismatch: checkpoint has "
                    f"{manifest['config_hash']}, supplied config hashes to "
                    f"{cfg.hash} (pass force to override)")
            print(f"warning: resuming {checkpoint_path} under a different "
                  f"config ({manifest['config_hash']} -> {cfg.hash})",
                  file=sys.stderr)
    else:
        cfg = stored_cfg
    log = RunLog(Path(cfg.out_dir) / "run.log", echo=echo, append=True)
    log.write(f"resuming from {checkpoint_path} at epoch {manifest['epoch']}")
    return _train_and_report(cfg, log, stop_after_epoch, (manifest, arrays))
