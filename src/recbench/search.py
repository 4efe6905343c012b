"""Hyperparameter search over independent experiment trials.

A search space is a per-parameter list of candidate values, read from a
range file of lines ``name=[v1,v2,...]`` whose lists parse like a
``--set`` value.  Grid search runs the whole Cartesian product; random
search draws seeded assignments uniformly and without repetition.  Every
value in the space is checked against the config before the first trial
runs.  Trials are ranked by their validation score (direction-aware),
ties keeping trial order.

A trial is exactly ``run_experiment`` of its config: the base config,
plus its assignment, plus its own ``out_dir`` (``trial_NNNN``).  So a
single-point space reproduces a run of the base config, and a space that
lists ``seed`` or ``train.seed`` runs each trial at its searched seed.
``parallel=True`` runs the trials in a thread pool instead of one after
another; it changes only the wall time, not the results.

Other samplers (Bayesian and friends) can slot in behind the same
``TrialResult`` contract: produce assignments, run them through
``_execute``, rank with ``_rank``.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import Config, config_pairs, load_config, parse_override
from .errors import ConfigError
from .metrics import metric_direction
from .runner import run_experiment


@dataclass(frozen=True)
class SearchSpace:
    """Ordered candidate lists per parameter name."""

    params: dict

    def __post_init__(self):
        if not self.params:
            raise ConfigError("empty search space")
        for name, values in self.params.items():
            if not isinstance(values, (list, tuple)) or len(values) == 0:
                raise ConfigError(f"parameter {name!r} needs a nonempty value list")

    @property
    def size(self):
        n = 1
        for values in self.params.values():
            n *= len(values)
        return n

    def assignment(self, index) -> dict:
        """Mixed-radix decode of ``index`` into one assignment."""
        out = {}
        for name in reversed(list(self.params)):
            values = self.params[name]
            index, pos = divmod(index, len(values))
            out[name] = values[pos]
        return {name: out[name] for name in self.params}

    def all_assignments(self):
        """Every assignment in index order: the last parameter varies fastest."""
        for index in range(self.size):
            yield self.assignment(index)


def parse_range_file(path) -> SearchSpace:
    """Parse a range file: one ``name=[v1,v2,...]`` line per parameter."""
    try:
        with open(path, encoding="utf-8") as handle:
            lines = handle.read().splitlines()
    except OSError as exc:
        raise ConfigError(f"cannot read range file {path}: {exc}") from None
    params = {}
    for lineno, line in enumerate(lines, start=1):
        text = line.strip()
        if not text or text.startswith("#"):
            continue
        try:
            name, values = parse_override(text)
        except ConfigError:
            raise ConfigError(f"{path}:{lineno}: expected name=[v1,v2,...]") from None
        if not isinstance(values, list) or not values:
            raise ConfigError(f"{path}:{lineno}: expected a nonempty [v1,v2,...] list")
        if name in params:
            raise ConfigError(f"{path}:{lineno}: duplicate parameter {name!r}")
        params[name] = values
    if not params:
        raise ConfigError(f"{path}: no parameters found")
    return SearchSpace(params)


@dataclass
class TrialResult:
    assignment: dict
    seed: int
    valid_score: float
    test_metrics: dict
    wall_time: float
    out_dir: str = ""


def _apply_assignment(cfg: Config, assignment, trial_index) -> Config:
    overrides = list(assignment.items())
    overrides.append(("out_dir", str(Path(cfg.out_dir) / f"trial_{trial_index:04d}")))
    return load_config(None, config_pairs(cfg.to_dict()) + overrides)


def _run_trial(cfg, assignment, index):
    start = time.perf_counter()
    trial_cfg = _apply_assignment(cfg, assignment, index)
    result = run_experiment(trial_cfg)
    # the score of the epoch whose checkpoint the test stage evaluated
    valid_score = (result.valid_scores[result.best_epoch - 1]
                   if result.valid_scores else float("nan"))
    return TrialResult(assignment=dict(assignment), seed=trial_cfg.seed,
                       valid_score=valid_score,
                       test_metrics=dict(result.report.values),
                       wall_time=time.perf_counter() - start,
                       out_dir=str(trial_cfg.out_dir))


def _execute(cfg, assignments, parallel):
    if not parallel:
        return [_run_trial(cfg, a, i) for i, a in enumerate(assignments)]
    with ThreadPoolExecutor() as pool:
        futures = [pool.submit(_run_trial, cfg, a, i)
                   for i, a in enumerate(assignments)]
        return [f.result() for f in futures]


def _rank(trials, valid_metric):
    direction = metric_direction(valid_metric)

    def key(pair):
        index, trial = pair
        score = trial.valid_score
        ranked = -direction * score if not math.isnan(score) else math.inf
        return (ranked, index)

    return [t for _, t in sorted(enumerate(trials), key=key)]


def grid_search(cfg: Config, space: SearchSpace, parallel=False) -> list:
    """Run every combination in the space; best trial first."""
    _check_space(cfg, space)
    assignments = list(space.all_assignments())
    return _rank(_execute(cfg, assignments, parallel), cfg.valid_metric)


def draw_assignments(space: SearchSpace, n_trials, seed) -> list:
    """Seeded uniform draws from the space, without repetition.

    Assignment indices are sampled without replacement, so
    ``n_trials >= space.size`` covers the whole space.
    """
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 7]))
    count = min(int(n_trials), space.size)
    picks = rng.choice(space.size, size=count, replace=False)
    return [space.assignment(int(p)) for p in picks]


def random_search(cfg: Config, space: SearchSpace, n_trials, seed=None,
                  parallel=False) -> list:
    """Run seeded uniform draws from the space; best trial first."""
    if n_trials < 1:
        raise ConfigError("random search needs n_trials >= 1")
    _check_space(cfg, space)
    seed = cfg.seed if seed is None else seed
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    assignments = draw_assignments(space, n_trials, seed)
    return _rank(_execute(cfg, assignments, parallel), cfg.valid_metric)


def _check_space(cfg, space):
    """Reject any value in the space that the config would not accept."""
    pairs = config_pairs(cfg.to_dict())
    for name, values in space.params.items():
        for value in values:
            load_config(None, pairs + [(name, value)])


def search_summary(trials) -> dict:
    best = trials[0]
    return {
        "best_assignment": best.assignment,
        "best_valid_score": best.valid_score,
        "best_test_metrics": best.test_metrics,
        "trials": [
            {"assignment": t.assignment, "seed": t.seed,
             "valid_score": t.valid_score, "test_metrics": t.test_metrics,
             "wall_time": t.wall_time, "out_dir": t.out_dir}
            for t in trials
        ],
    }
