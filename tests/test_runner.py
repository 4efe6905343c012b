"""Experiment runner: end-to-end flow, early stopping, resume."""

from pathlib import Path

import numpy as np
import pytest

from recbench.config import load_config
from recbench.errors import CheckpointError
from recbench.models import load_state, save_state
from recbench.protocol import build_candidates, make_split, parse_eval_setting
from recbench.runner import (RunLog, TrainState, _fit, load_dataset,
                             resume_experiment, run_experiment)
from recbench.tables import (DataTable, FieldSpec, FieldType, TableKind,
                             write_table)
from tests.conftest import planted_interactions

TOY = str(Path(__file__).parent / "data" / "toy.inter")


def _write_planted(tmp_path, **kwargs):
    users, items = planted_interactions(**kwargs)
    table = DataTable(TableKind.INTER,
                      [FieldSpec("user_id", FieldType.TOKEN),
                       FieldSpec("item_id", FieldType.TOKEN)],
                      {"user_id": users, "item_id": items})
    path = tmp_path / "planted.inter"
    write_table(table, path)
    return str(path)


def _bpr_config(tmp_path, inter, out, epochs=6, **extra):
    overrides = [
        f"inter_path={inter}", "model=bpr", f"out_dir={tmp_path / out}",
        f"train.epochs={epochs}", "train.learning_rate=0.1",
        "train.embedding_dim=8", "train.batch_size=64", "train.patience=20",
        "metrics=[recall, ndcg]", "topk=[5]", "seed=3", "train.seed=3",
    ] + [f"{k}={v}" for k, v in extra.items()]
    return load_config(None, overrides)


class TestLoadDataset:
    def test_filters_apply_in_config_order(self, tmp_path):
        cfg = load_config(None, [
            f"inter_path={TOY}",
            "filters=['timestamp>=2.0', 'inter_num(2,1)']",
            "out_dir=" + str(tmp_path),
        ])
        ds = load_dataset(cfg)
        # timestamp>=2.0 keeps 5 rows (a:i2,i3,i4 b:i1,i5 c:i5);
        # then 2-core on users keeps a and b rows only
        assert len(ds.inter) == 5
        assert ds.encoded

    def test_labeling_and_normalization(self, tmp_path):
        inter = tmp_path / "r.inter"
        inter.write_text(
            "user_id:token,item_id:token,rating:float\n"
            "a,x,1.0\na,y,5.0\nb,x,3.0\n", encoding="utf-8")
        cfg = load_config(None, [
            f"inter_path={inter}", "label_source=rating",
            "label_threshold=3.0", "normalize_fields=[rating]",
            f"out_dir={tmp_path}",
        ])
        ds = load_dataset(cfg)
        np.testing.assert_array_equal(ds.inter.columns["label"], [0, 1, 1])
        np.testing.assert_allclose(ds.inter.columns["rating"], [0, 1, 0.5])


class TestToyEndToEnd:
    def test_popularity_recall_matches_hand_computation(self, tmp_path):
        # TO_LS on the committed toy file; popularity counts on train rows:
        # i1 x2 (a,c), i2 x3 (a,b,d). after masking train+valid:
        #   user a ranks i4 first (tie with i5, lower ID wins) -> hit
        #   user b ranks i3 first (all remaining tie at 0)     -> miss
        #   user c ranks i2 first (count 3)                    -> miss
        # mean recall@1 over 3 evaluated users = 1/3
        cfg = load_config(None, [
            f"inter_path={TOY}", "model=popularity",
            "eval_setting=TO_LS,full", "metrics=[recall]", "topk=[1]",
            "valid_metric=recall@1", f"out_dir={tmp_path / 'toy'}",
        ])
        result = run_experiment(cfg)
        assert result.report.values["recall@1"] == pytest.approx(1 / 3)

    def test_determinism_across_runs(self, tmp_path):
        reports = []
        for name in ("r1", "r2"):
            cfg = load_config(None, [
                f"inter_path={TOY}", "model=popularity",
                "eval_setting=TO_LS,full", "metrics=[recall, ndcg, mrr]",
                "topk=[1, 2]", "valid_metric=recall@1",
                f"out_dir={tmp_path / name}",
            ])
            result = run_experiment(cfg)
            reports.append(result.report_text_path.read_bytes()
                           + result.report_json_path.read_bytes())
        assert reports[0] == reports[1]

    def test_run_writes_all_artifacts(self, tmp_path):
        out = tmp_path / "artifacts"
        cfg = load_config(None, [
            f"inter_path={TOY}", "model=popularity", "eval_setting=TO_LS,full",
            "metrics=[recall]", "topk=[1]", "valid_metric=recall@1",
            f"out_dir={out}",
        ])
        run_experiment(cfg)
        for name in ("report.txt", "report.json", "run.log",
                     "model_best.ckpt", "model_last.ckpt"):
            assert (out / name).exists(), name
        log = (out / "run.log").read_text()
        assert "config.seed = 42" in log          # effective values echoed
        assert "config hash" in log


class TestEarlyStopping:
    def test_patience_halts_training(self, tmp_path):
        from recbench.models import BPRModel
        from tests.conftest import build_dataset

        users, items = planted_interactions(n_users=30, n_items=20,
                                            top_frac=0.1, seed=2)
        ds = build_dataset(users, items)
        cfg = load_config(None, [
            "inter_path=unused.inter", "model=bpr", "train.epochs=10",
            "train.patience=2", f"out_dir={tmp_path}",
        ])
        rng = np.random.default_rng(0)
        model = BPRModel(ds, np.arange(len(ds.inter)), cfg.train, rng=rng)
        # scripted metric: improves until epoch 3, then flat
        script = iter([0.1, 0.2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3])
        state = TrainState()
        losses, scores, interrupted = _fit(
            model, cfg, rng, lambda m: next(script), state,
            tmp_path / "best.ckpt", tmp_path / "last.ckpt", RunLog())
        assert not interrupted
        assert state.best_epoch == 3
        assert state.epoch == 5  # halts by best_epoch + patience
        assert state.finished

    def test_no_validation_runs_all_epochs(self, tmp_path):
        # single-interaction users leave the valid split empty under LS
        inter = tmp_path / "tiny.inter"
        inter.write_text("user_id:token,item_id:token\n"
                         "a,x\na,y\nb,x\nb,z\n", encoding="utf-8")
        cfg = load_config(None, [
            f"inter_path={inter}", "model=bpr", "eval_setting=RO_LS,full",
            "train.epochs=3", "topk=[1]", "metrics=[recall]",
            f"out_dir={tmp_path / 'novalid'}",
        ])
        result = run_experiment(cfg)
        assert len(result.epoch_losses) == 3


class TestResume:
    def test_bitwise_resume(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=50, n_items=30,
                               top_frac=0.1, seed=5)
        straight = run_experiment(_bpr_config(tmp_path, inter, "straight",
                                              epochs=8))
        interrupted = run_experiment(
            _bpr_config(tmp_path, inter, "resumed", epochs=8),
            stop_after_epoch=3)
        assert interrupted.interrupted
        resumed = resume_experiment(interrupted.checkpoint_last)
        for ckpt in ("model_last.ckpt", "model_best.ckpt"):
            _, a = load_state(tmp_path / "straight" / ckpt)
            _, b = load_state(tmp_path / "resumed" / ckpt)
            assert set(a) == set(b)
            for key in a:
                np.testing.assert_array_equal(a[key], b[key])
        assert (tmp_path / "straight" / "report.txt").read_bytes() == \
            (tmp_path / "resumed" / "report.txt").read_bytes()

    def test_interrupted_run_logs_env_before_the_resume_hint(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=30, n_items=20,
                               top_frac=0.1, seed=6)
        run = run_experiment(_bpr_config(tmp_path, inter, "cut", epochs=3),
                             stop_after_epoch=1)
        messages = [line.split(" | ", 1)[1] for line in
                    (run.out_dir / "run.log").read_text().splitlines()]
        assert [m.split(" ")[0] for m in messages[-2:]] == ["env", "interrupted"]
        assert sum(m.startswith("env ") for m in messages) == 1

    def test_failed_save_keeps_previous_checkpoint(self, tmp_path):
        class DiskFull:
            shape = (3,)

            def __array__(self, dtype=None, copy=None):
                raise OSError("No space left on device")

        inter = _write_planted(tmp_path, n_users=40, n_items=25,
                               top_frac=0.1, seed=8)
        straight = run_experiment(_bpr_config(tmp_path, inter, "straight",
                                              epochs=5))
        interrupted = run_experiment(
            _bpr_config(tmp_path, inter, "resumed", epochs=5),
            stop_after_epoch=2)
        last = interrupted.checkpoint_last
        before = last.read_bytes()
        manifest, arrays = load_state(last)
        # the header and the real arrays go out before the write fails
        with pytest.raises(CheckpointError, match="No space left"):
            save_state(last, manifest, dict(arrays, zz_extra=DiskFull()))
        assert last.read_bytes() == before
        assert sorted(p.name for p in last.parent.iterdir()) == [
            "model_best.ckpt", "model_last.ckpt", "run.log"]
        resume_experiment(last)
        assert (tmp_path / "straight" / "report.txt").read_bytes() == \
            (tmp_path / "resumed" / "report.txt").read_bytes()

    def test_resume_finished_run_reemits(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=30, n_items=20,
                               top_frac=0.1, seed=6)
        cfg = _bpr_config(tmp_path, inter, "done", epochs=3)
        first = run_experiment(cfg)
        before = first.report_text_path.read_bytes()
        again = resume_experiment(first.checkpoint_last)
        assert again.epoch_losses == []  # no training happened
        assert first.report_text_path.read_bytes() == before
        assert again.report.to_text().encode() == before

    def test_resume_with_no_epoch_left_builds_only_the_test_stage(self, tmp_path,
                                                                  monkeypatch):
        from recbench import runner

        inter = _write_planted(tmp_path, n_users=30, n_items=40,
                               top_frac=0.1, seed=6)
        cfg = load_config(None, [f"inter_path={inter}", "model=popularity",
                                 "eval_setting=RO_LS,uni5", "metrics=[recall]",
                                 "topk=[5]", "valid_metric=recall@5",
                                 f"out_dir={tmp_path / 'cf'}"])
        first = run_experiment(cfg)
        before = first.report_json_path.read_bytes()
        assert not load_state(first.checkpoint_best)[0]["finished"]
        targets, real = [], runner.build_candidates

        def build_candidates(*args, target="test", **kwargs):
            targets.append(target)
            return real(*args, target=target, **kwargs)

        monkeypatch.setattr(runner, "build_candidates", build_candidates)
        again = resume_experiment(first.checkpoint_best)
        assert targets == ["test"]
        assert again.epoch_losses == []
        assert first.report_json_path.read_bytes() == before

    def test_hash_mismatch_rejected_without_force(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=30, n_items=20,
                               top_frac=0.1, seed=7)
        cfg = _bpr_config(tmp_path, inter, "orig", epochs=4)
        run = run_experiment(cfg, stop_after_epoch=2)
        with pytest.raises(CheckpointError, match="hash mismatch"):
            resume_experiment(run.checkpoint_last,
                              overrides=[f"inter_path={inter}",
                                         "model=bpr", "train.epochs=9"])
        forced = resume_experiment(
            run.checkpoint_last, force=True,
            overrides=[f"inter_path={inter}", "model=bpr",
                       f"out_dir={tmp_path / 'orig'}", "train.epochs=4",
                       "train.learning_rate=0.1", "train.embedding_dim=8",
                       "train.batch_size=64", "train.patience=20",
                       "metrics=[recall, ndcg]", "topk=[5]",
                       "seed=3", "train.seed=3"])
        assert forced.report is not None


def _write_ml1m_layout(directory, with_sequences, seed=11):
    """``ml.inter``/``ml.user``/``ml.item`` in RecBole's ml-1m layout (tabs).

    ``with_sequences`` adds the item table's ``movie_title`` and ``genre``
    sequence columns; every other cell is the same either way.
    """
    rand = np.random.default_rng(seed)
    directory.mkdir()
    inter = ["user_id:token\titem_id:token\trating:float\ttimestamp:float"]
    t = 978300000
    for u in range(1, 41):
        for i in rand.choice(np.arange(1, 61), size=int(rand.integers(6, 15)),
                             replace=False):
            t += int(rand.integers(1, 90))
            inter.append(f"{u}\t{i}\t{rand.integers(1, 6)}\t{t}")
    user = ["user_id:token\tage:token\tgender:token\toccupation:token\tzip_code:token"]
    user += [f"{u}\t{rand.choice([1, 18, 25, 35])}\t{rand.choice(['F', 'M'])}\t"
             f"{rand.integers(0, 21)}\t{rand.integers(10000, 99999)}" for u in range(1, 41)]
    genres = ["Animation", "Children's", "Comedy", "Film-Noir", "Sci-Fi"]
    item = ["item_id:token\tmovie_title:token_seq\trelease_year:token\tgenre:token_seq"]
    for i in range(1, 61):
        title = rand.choice(["Toy Story", "American President, The", "Heat", ""])
        genre = " ".join(rand.choice(genres, size=int(rand.integers(0, 3)), replace=False))
        item.append(f"{i}\t{title}\t{rand.integers(1930, 2001)}\t{genre}")
    if not with_sequences:
        item = ["\t".join(line.split("\t")[::2]) for line in item]
    for suffix, lines in (("inter", inter), ("user", user), ("item", item)):
        (directory / f"ml.{suffix}").write_text("\n".join(lines) + "\n", encoding="utf-8")


class TestRecBoleLayout:
    def test_sequence_columns_leave_the_run_unchanged(self, tmp_path, monkeypatch):
        runs = []
        for name, with_sequences in (("seq", True), ("plain", False)):
            _write_ml1m_layout(tmp_path / name, with_sequences)
            monkeypatch.chdir(tmp_path / name)
            run_experiment(load_config(None, [
                "inter_path=ml.inter", "user_path=ml.user", "item_path=ml.item",
                "separator=\t", "model=fm", "label_source=rating",
                "label_threshold=4", "metrics=[recall, ndcg]", "topk=[5]",
                "valid_metric=ndcg@5", "train.epochs=2", "train.embedding_dim=8",
                "out_dir=run"]))
            runs.append({f: (tmp_path / name / "run" / f).read_bytes()
                         for f in ("report.txt", "report.json",
                                   "model_best.ckpt", "model_last.ckpt")})
        assert "movie_title:token_seq" in (tmp_path / "seq" / "ml.item").read_text()
        assert "token_seq" not in (tmp_path / "plain" / "ml.item").read_text()
        assert runs[0] == runs[1]


class TestOtherModels:
    @pytest.mark.parametrize("model,params", [
        ("itemknn", ["itemknn.k=5"]),
        ("ease", ["ease.l2=10.0"]),
    ])
    def test_closed_form_models_run(self, tmp_path, model, params):
        cfg = load_config(None, [
            f"inter_path={TOY}", f"model={model}", "eval_setting=TO_LS,full",
            "metrics=[recall, ndcg]", "topk=[2]", "valid_metric=ndcg@2",
            f"out_dir={tmp_path / model}",
        ] + params)
        result = run_experiment(cfg)
        assert set(result.report.values) == {"recall@2", "ndcg@2"}

    def test_fm_with_value_metrics(self, tmp_path):
        inter = tmp_path / "ctx.inter"
        rng = np.random.default_rng(0)
        rows = [f"u{rng.integers(0, 8)},i{rng.integers(0, 10)},"
                f"{rng.integers(1, 6)}.0,{t}.0" for t in range(60)]
        inter.write_text("user_id:token,item_id:token,rating:float,"
                         "timestamp:float\n" + "\n".join(rows) + "\n",
                         encoding="utf-8")
        cfg = load_config(None, [
            f"inter_path={inter}", "model=fm", "eval_setting=TO_RS,full",
            "label_source=rating", "label_threshold=4.0",
            "metrics=[rmse, mae, recall]", "topk=[3]",
            "valid_metric=rmse", "train.epochs=3",
            "train.learning_rate=0.01", "train.batch_size=16",
            f"out_dir={tmp_path / 'fm'}",
        ])
        result = run_experiment(cfg)
        assert "rmse" in result.report.values
        assert result.report.values["rmse"] >= result.report.values["mae"]

    def test_uni_candidate_evaluation(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=30, n_items=25,
                               top_frac=0.12, seed=9)
        cfg = load_config(None, [
            f"inter_path={inter}", "model=popularity",
            "eval_setting=RO_LS,uni5", "metrics=[recall, ndcg]", "topk=[3]",
            "valid_metric=ndcg@3", f"out_dir={tmp_path / 'uni'}",
        ])
        result = run_experiment(cfg)
        assert result.report.candidates == "uni5"


    def test_uni_stages_log_counts_and_reports_stay_identical(self, tmp_path):
        inter = _write_planted(tmp_path, n_users=30, n_items=25,
                               top_frac=0.12, seed=9)
        runs = []
        for name in ("a", "b"):
            cfg = load_config(None, [
                f"inter_path={inter}", "model=popularity",
                "eval_setting=RO_RS,uni5", "metrics=[recall]", "topk=[3]",
                "valid_metric=recall@3", f"out_dir={tmp_path / name}",
            ])
            runs.append(run_experiment(cfg))
        ds = load_dataset(cfg)
        plan = parse_eval_setting(cfg.eval_setting, seed=cfg.seed)
        split = make_split(ds, plan)
        want = []
        for target in ("valid", "test"):
            cand = build_candidates(ds, split, "uni", plan.seed, 5, target=target)
            want.append(f"candidates {target} uni5: users={len(cand.users)} "
                        f"candidates={sum(map(len, cand.candidates))} per_user_draws=0")
        for run in runs:
            log = run.out_dir.joinpath("run.log").read_text().splitlines()
            assert [line.split(" | ", 1)[1] for line in log
                    if " | candidates " in line] == want
            for path in (run.report_text_path, run.report_json_path):
                assert b"per_user_draws" not in path.read_bytes()
        a, b = runs
        assert a.report_text_path.read_bytes() == b.report_text_path.read_bytes()
        assert a.report_json_path.read_bytes() == b.report_json_path.read_bytes()


class TestTruthField:
    def test_ranking_positives_follow_truth_field(self, tmp_path):
        rng = np.random.default_rng(5)
        inter = tmp_path / "r.inter"
        rows = [f"u{u},i{rng.integers(0, 40)},{rng.integers(1, 6)}.0,{t}.0"
                for t, u in enumerate(rng.integers(0, 60, size=900))]
        inter.write_text("user_id:token,item_id:token,rating:float,timestamp:float\n"
                         + "\n".join(rows) + "\n", encoding="utf-8")
        reports = {}
        for truth in ("label", "click"):
            cfg = load_config(None, [
                f"inter_path={inter}", "model=popularity", "eval_setting=TO_LS,full",
                "label_source=rating", "label_threshold=4", f"truth_field={truth}",
                "metrics=[recall, ndcg]", "topk=[5]", "valid_metric=ndcg@5",
                f"out_dir={tmp_path / truth}",
            ])
            reports[truth] = run_experiment(cfg).report
        assert reports["click"].n_users == reports["label"].n_users < 60
        assert reports["click"].values == reports["label"].values


    def test_label_source_replaces_a_token_label_column(self, tmp_path):
        # the threshold's float labels replace the file's label:token
        # column, so only labelled rows are positives, as without it
        rng = np.random.default_rng(6)
        rows = [(f"u{u}", f"i{rng.integers(0, 40)}", f"{rng.integers(1, 6)}.0",
                 f"{t}.0") for t, u in enumerate(rng.integers(0, 60, size=900))]
        header = "user_id:token,item_id:token,rating:float,timestamp:float"
        plain, tagged = tmp_path / "plain.inter", tmp_path / "tagged.inter"
        plain.write_text(header + "\n" + "".join(",".join(r) + "\n" for r in rows),
                         encoding="utf-8")
        tagged.write_text(header + ",label:token\n"
                          + "".join(",".join(r) + ",t\n" for r in rows),
                          encoding="utf-8")
        reports = {}
        for inter in (plain, tagged):
            cfg = load_config(None, [
                f"inter_path={inter}", "model=popularity", "eval_setting=TO_LS,full",
                "label_source=rating", "label_threshold=4",
                "metrics=[recall, ndcg]", "topk=[5]", "valid_metric=ndcg@5",
                f"out_dir={tmp_path / inter.stem}",
            ])
            reports[inter.stem] = run_experiment(cfg).report
        assert reports["tagged"].n_users == reports["plain"].n_users < 60
        assert reports["tagged"].values == reports["plain"].values


class TestOneFitLoop:
    # report.json of these runs, recorded before closed-form models moved
    # into the epoch loop; recall and mrr are exact ratios of hit counts
    EXPECTED = {
        "popularity": '{\n  "mrr@3": 0.13675213675213674,\n  "n_users": 39.0,\n'
                      '  "recall@3": 0.2564102564102564\n}\n',
        "itemknn": '{\n  "mrr@3": 0.39316239316239315,\n  "n_users": 39.0,\n'
                   '  "recall@3": 0.5128205128205128\n}\n',
    }

    @pytest.mark.parametrize("model", sorted(EXPECTED))
    def test_closed_form_run_is_one_epoch(self, tmp_path, model):
        import subprocess
        import sys

        inter = _write_planted(tmp_path, n_users=40, n_items=30,
                               top_frac=0.15, seed=4)
        out = tmp_path / model
        proc = subprocess.run(
            [sys.executable, "-m", "recbench.cli", "run", "--quiet",
             "--set", f"inter_path={inter}", "--set", f"model={model}",
             "--set", f"out_dir={out}", "--set", "metrics=[recall, mrr]",
             "--set", "topk=[3]", "--set", "valid_metric=mrr@3"],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        log = (out / "run.log").read_text(encoding="utf-8")
        epochs = [line for line in log.splitlines() if " | epoch " in line]
        assert len(epochs) == 1 and " | epoch 1: " in epochs[0], epochs
        assert (out / "report.json").read_text(encoding="utf-8") == self.EXPECTED[model]
        assert load_state(out / "model_last.ckpt")[0]["finished"]

    def test_fm_trains_on_truth_field(self, tmp_path):
        inter = tmp_path / "r.inter"
        rng = np.random.default_rng(0)
        rows = [f"u{rng.integers(0, 8)},i{rng.integers(0, 10)},"
                f"{rng.integers(1, 6)}.0,{t}.0" for t in range(60)]
        inter.write_text("user_id:token,item_id:token,rating:float,"
                         "timestamp:float\n" + "\n".join(rows) + "\n",
                         encoding="utf-8")
        reports = {}
        for truth in ("label", "click"):
            cfg = load_config(None, [
                f"inter_path={inter}", "model=fm", "eval_setting=TO_RS,full",
                "label_source=rating", "label_threshold=4.0",
                f"truth_field={truth}", "metrics=[rmse, recall]", "topk=[3]",
                "valid_metric=rmse", "train.epochs=2", "train.batch_size=16",
                f"out_dir={tmp_path / truth}",
            ])
            reports[truth] = run_experiment(cfg).report.values
        assert reports["click"] == reports["label"]
