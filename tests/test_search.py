"""Hyperparameter search: spaces, range files, grid and random modes."""

from pathlib import Path

import pytest

from recbench.config import load_config
from recbench.errors import ConfigError
from recbench.runner import run_experiment
from recbench.search import (SearchSpace, draw_assignments, grid_search,
                             parse_range_file, random_search, search_summary)

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
        cfg = _toy_cfg(tmp_path)
        space = SearchSpace({"ease.l2": [1.0, 10.0]})
        a = grid_search(cfg, space, parallel=True)
        b = grid_search(cfg, space, parallel=True)
        assert [t.valid_score for t in a] == [t.valid_score for t in b]
        assert all(t.seed != cfg.seed for t in a)  # derived per-trial seeds


class TestSearchedSeed:
    def test_assignment_seed_reaches_each_trial(self, tmp_path):
        from recbench.models import load_state

        cfg = _toy_cfg(tmp_path)
        trials = grid_search(cfg, SearchSpace({"seed": [1, 2, 3],
                                               "train.seed": [7]}))
        seeds = {}
        for t in trials:
            config = load_state(Path(t.out_dir) / "model_last.ckpt")[0]["config"]
            seeds[t.assignment["seed"]] = (t.seed, config["seed"],
                                           config["train"]["seed"])
        assert seeds == {s: (s, s, 7) for s in (1, 2, 3)}
