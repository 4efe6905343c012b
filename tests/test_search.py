"""Hyperparameter search: spaces, range files, grid and random modes."""

from pathlib import Path

import numpy as np
import pytest

from recbench.config import load_config
from recbench.errors import ConfigError
from recbench.models import load_state
from recbench.runner import run_experiment
from recbench.search import (SearchSpace, draw_assignments, grid_search,
                             parse_range_file, random_search, search_summary)
from tests.record_golden import write_input

TOY = str(Path(__file__).parent / "data" / "toy.inter")


def _toy_cfg(tmp_path, model="ease", extra=()):
    return load_config(None, [
        f"inter_path={TOY}", f"model={model}", "eval_setting=TO_LS,full",
        "metrics=[recall, ndcg]", "topk=[2]", "valid_metric=ndcg@2",
        f"out_dir={tmp_path / 'search'}",
    ] + list(extra))


class TestRangeFile:
    def test_parses_typed_values(self, tmp_path):
        path = tmp_path / "hyper.test"
        path.write_text("train.learning_rate=[0.01,0.1]\n"
                        "train.embedding_dim=[8, 16]\n", encoding="utf-8")
        space = parse_range_file(path)
        assert space.params["train.learning_rate"] == [0.01, 0.1]
        assert space.params["train.embedding_dim"] == [8, 16]
        assert space.size == 4

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.test"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ConfigError, match="no parameters"):
            parse_range_file(path)

    def test_duplicate_parameter_rejected(self, tmp_path):
        path = tmp_path / "dup.test"
        path.write_text("ease.l2=[1.0]\nease.l2=[2.0]\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="duplicate"):
            parse_range_file(path)

    def test_syntax_error_names_line(self, tmp_path):
        path = tmp_path / "bad.test"
        path.write_text("ease.l2=[1.0]\nnot a range\n", encoding="utf-8")
        with pytest.raises(ConfigError, match=":2"):
            parse_range_file(path)

    def test_unknown_parameter_rejected(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        with pytest.raises(ConfigError, match="unknown config key"):
            grid_search(cfg, SearchSpace({"ease.alpha": [1.0]}))

    def test_every_value_checked_before_the_first_trial(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        with pytest.raises(ConfigError, match=r"ease\.l2"):
            grid_search(cfg, SearchSpace({"ease.l2": [1.0, "heavy"]}))
        assert not list((tmp_path / "search").glob("trial_*"))


class TestGridSearch:
    def test_grid_order_last_parameter_fastest(self):
        # trial i runs assignment i, so this order names the trial_NNNN directories
        space = SearchSpace({"a": [1, 2], "b": ["x", "y", "z"]})
        assert list(space.all_assignments()) == [
            {"a": a, "b": b} for a in (1, 2) for b in ("x", "y", "z")]
        assert list(space.all_assignments()) == [space.assignment(i) for i in range(6)]

    def test_two_by_two_runs_four_trials(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        space = SearchSpace({"ease.l2": [1.0, 10.0], "seed": [1, 2]})
        trials = grid_search(cfg, space)
        assert len(trials) == 4
        assignments = {tuple(sorted(t.assignment.items())) for t in trials}
        assert len(assignments) == 4

    def test_best_trial_ranks_first(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        trials = grid_search(cfg, SearchSpace({"ease.l2": [0.1, 1.0, 50.0]}))
        scores = [t.valid_score for t in trials]
        assert scores[0] == max(scores)

    def test_single_point_space_equals_run_experiment(self, tmp_path):
        cfg = _toy_cfg(tmp_path, extra=("ease.l2=5.0",))
        direct = run_experiment(
            load_config(None, [
                f"inter_path={TOY}", "model=ease", "eval_setting=TO_LS,full",
                "metrics=[recall, ndcg]", "topk=[2]", "valid_metric=ndcg@2",
                "ease.l2=5.0", f"out_dir={tmp_path / 'direct'}",
            ]))
        trials = grid_search(cfg, SearchSpace({"ease.l2": [5.0]}))
        assert len(trials) == 1
        assert trials[0].test_metrics == direct.report.values
        assert trials[0].valid_score == pytest.approx(
            max(direct.valid_scores))

    def test_single_point_grid_writes_what_run_experiment_writes(self, tmp_path):
        # seed and train.seed differ, so a trial that rewrote either one
        # would split, initialise or sample differently
        write_input(tmp_path / "g.inter", n_users=60, n_items=80)
        base = [f"inter_path={tmp_path / 'g.inter'}", "model=bpr",
                "seed=3", "train.seed=11", "train.epochs=3",
                "train.embedding_dim=8", "train.batch_size=128",
                "metrics=[recall, ndcg]", "topk=[5]", "valid_metric=ndcg@5"]
        direct = run_experiment(load_config(
            None, base + [f"out_dir={tmp_path / 'direct'}"]))
        cfg = load_config(None, base + [f"out_dir={tmp_path / 'search'}"])
        (trial,) = grid_search(cfg, SearchSpace({"train.batch_size": [128]}))
        out = Path(trial.out_dir)
        assert out == tmp_path / "search" / "trial_0000"
        for name in ("report.txt", "report.json"):
            assert (out / name).read_bytes() == (direct.out_dir / name).read_bytes()
        for name in ("model_best.ckpt", "model_last.ckpt"):
            (m_trial, a_trial), (m_run, a_run) = (load_state(out / name),
                                                  load_state(direct.out_dir / name))
            assert sorted(a_trial) == sorted(a_run)
            for key in a_run:
                np.testing.assert_array_equal(a_trial[key], a_run[key])
            for manifest in (m_trial, m_run):
                del manifest["config"]["out_dir"]
            assert m_trial == m_run
        assert trial.seed == 3
        assert trial.valid_score == direct.valid_scores[direct.best_epoch - 1]

    def test_summary_shape(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        trials = grid_search(cfg, SearchSpace({"ease.l2": [1.0, 10.0]}))
        summary = search_summary(trials)
        assert summary["best_assignment"] in [t.assignment for t in trials]
        assert len(summary["trials"]) == 2


class TestRandomSearch:
    def test_fixed_seed_reproduces_trials(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        space = SearchSpace({"ease.l2": [0.5, 1.0, 5.0, 20.0], "seed": [1, 2]})
        a = random_search(cfg, space, 3, seed=11)
        b = random_search(cfg, space, 3, seed=11)
        assert [t.assignment for t in a] == [t.assignment for t in b]
        assert [t.valid_score for t in a] == [t.valid_score for t in b]

    def test_covers_space_when_trials_exceed_size(self, tmp_path):
        space = SearchSpace({"ease.l2": [1.0, 2.0], "seed": [1, 2]})
        assignments = draw_assignments(space, 50, seed=0)
        assert len(assignments) == 4
        assert {tuple(sorted(a.items())) for a in assignments} == {
            tuple(sorted(d.items())) for d in space.all_assignments()}

    def test_draw_frequencies_approximately_uniform(self):
        # frequency oracle over the draw mechanism itself
        space = SearchSpace({"p": [0, 1, 2, 3]})
        counts = {v: 0 for v in range(4)}
        n = 10_000
        for seed in range(n):
            (assignment,) = draw_assignments(space, 1, seed)
            counts[assignment["p"]] += 1
        expected = n / 4
        sigma = (n * 0.25 * 0.75) ** 0.5
        for value, count in counts.items():
            assert abs(count - expected) <= 4 * sigma, counts

    def test_parallel_trials_match_own_rerun(self, tmp_path):
        # parallel trials run the same configs as sequential ones
        cfg = _toy_cfg(tmp_path)
        space = SearchSpace({"ease.l2": [1.0, 10.0]})
        a = grid_search(cfg, space, parallel=True)
        b = grid_search(cfg, space)

        def outcome(trials):
            return [(t.assignment, t.seed, t.valid_score, t.test_metrics)
                    for t in trials]

        assert outcome(a) == outcome(b)
        assert all(t.seed == cfg.seed for t in a)


class TestSearchedSeed:
    def test_assignment_seed_reaches_each_trial(self, tmp_path):
        cfg = _toy_cfg(tmp_path)
        trials = grid_search(cfg, SearchSpace({"seed": [1, 2, 3],
                                               "train.seed": [7]}))
        seeds = {}
        for t in trials:
            config = load_state(Path(t.out_dir) / "model_last.ckpt")[0]["config"]
            seeds[t.assignment["seed"]] = (t.seed, config["seed"],
                                           config["train"]["seed"])
        assert seeds == {s: (s, s, 7) for s in (1, 2, 3)}
