"""Command-line interface, exercised through real subprocesses."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from recbench.models import load_state, save_state
from tests.conftest import planted_interactions, write_inter_file
from tests.record_golden import write_features, write_input

TOY = str(Path(__file__).parent / "data" / "toy.inter")


def run_cli(*args, cwd=None):
    return subprocess.run([sys.executable, "-m", "recbench.cli", *args],
                          capture_output=True, text=True, cwd=cwd)


class TestConvert:
    def test_csv_to_inter(self, tmp_path):
        src = tmp_path / "ratings.csv"
        src.write_text("userId,movieId,rating,timestamp\n"
                       "1,31,2.5,1260759144\n"
                       "2,1029,3.0,1260759179\n", encoding="utf-8")
        out = tmp_path / "out.inter"
        proc = run_cli("convert", "--input", str(src), "--kind", "inter",
                       "--map", "userId=user_id:token,movieId=item_id:token,"
                       "rating=rating:float,timestamp=timestamp:float",
                       "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        lines = out.read_text().splitlines()
        assert lines[0] == ("user_id:token,item_id:token,"
                            "rating:float,timestamp:float")
        assert len(lines) == 3

    def test_bad_map_errors(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("a,b\n1,2\n", encoding="utf-8")
        proc = run_cli("convert", "--input", str(src), "--kind", "inter",
                       "--map", "a=user_id", "--out", str(tmp_path / "x"))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")

    def test_sequence_type_is_one_error_line(self, tmp_path):
        src = tmp_path / "r.csv"
        src.write_text("a,b,x\n1,2,p q\n", encoding="utf-8")
        out = tmp_path / "x.inter"
        proc = run_cli("convert", "--input", str(src), "--kind", "inter",
                       "--map", "a=user_id:token,b=item_id:token,x=y:token_seq",
                       "--out", str(out))
        _assert_one_error_line(proc, "unknown type 'token_seq' (expected token or float)")
        assert not out.exists()


class TestRun:
    def _run_toy(self, out_dir, *extra):
        return run_cli("run", "--set", f"inter_path={TOY}",
                       "--set", "model=popularity",
                       "--set", "metrics=[recall]",
                       "--set", "topk=[1]",
                       "--set", "valid_metric=recall@1",
                       "--set", f"out_dir={out_dir}",
                       "--eval-setting", "TO_LS,full",
                       "--quiet", *extra)

    def test_toy_run_succeeds(self, tmp_path):
        proc = self._run_toy(tmp_path / "out")
        assert proc.returncode == 0, proc.stderr
        assert "recall@1" in proc.stdout
        payload = json.loads((tmp_path / "out" / "report.json").read_text())
        assert payload["recall@1"] == 1 / 3

    def test_two_runs_byte_identical_reports(self, tmp_path):
        self._run_toy(tmp_path / "a")
        self._run_toy(tmp_path / "b")
        for name in ("report.txt", "report.json"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_run_logs_differ_only_in_times_and_paths(self, tmp_path):
        logs = []
        for name in ("a", "b"):
            assert self._run_toy(tmp_path / name).returncode == 0
            text = (tmp_path / name / "run.log").read_text(encoding="utf-8")
            text = text.replace(str(tmp_path / name), "<out>").replace(TOY, "<toy>")
            logs.append([line.split(" | ", 1)[1] for line in text.splitlines()])
        assert logs[0] == logs[1]
        # a popularity run, in a process of its own, never loads scipy
        env = [line for line in logs[0] if line.startswith("env ")]
        assert env == [logs[0][-1]]
        assert "topk_backend=numpy " in env[0] and env[0].endswith(" scipy=unloaded")
        for name in ("report.txt", "report.json"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())

    def test_config_file_plus_overrides(self, tmp_path):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(f"inter_path: {TOY}\n"
                       "model: popularity\n"
                       "eval_setting: TO_LS,full\n"
                       "metrics: [recall]\n"
                       "topk: [1]\n"
                       "valid_metric: recall@1\n"
                       f"out_dir: {tmp_path / 'filecfg'}\n", encoding="utf-8")
        proc = run_cli("run", "--config", str(cfg),
                       "--set", "metrics=[recall, ndcg]", "--quiet")
        assert proc.returncode == 0, proc.stderr
        payload = json.loads((tmp_path / "filecfg" / "report.json").read_text())
        assert "ndcg@1" in payload

    def test_unknown_key_fails_with_error_line(self, tmp_path):
        proc = run_cli("run", "--set", f"inter_path={TOY}",
                       "--set", "bogus=1", "--quiet")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "bogus" in proc.stderr

    def test_missing_user_id_is_one_error_line(self, tmp_path):
        rows = [f"u{u},i{(u * 7 + j) % 9}" for u in range(20) for j in range(4)]
        rows += [f",i{j}" for j in range(4)]  # four rows with no user
        inter = write_inter_file(tmp_path / "gaps.inter", rows)
        out = tmp_path / "out"
        proc = run_cli("run", "--set", f"inter_path={inter}", "--set", "model=popularity",
                       "--set", f"out_dir={out}", "--eval-setting", "RO_LS,full", "--quiet")
        _assert_one_error_line(proc, "field 'user_id' is missing in 4 interaction rows")
        assert not (out / "report.txt").exists()

    def test_negative_seed_is_one_error_line(self, tmp_path):
        for override in ("seed=-1", "train.seed=-1"):
            proc = run_cli("run", "--set", f"inter_path={TOY}", "--set", override,
                           "--set", f"out_dir={tmp_path}", "--quiet")
            assert proc.returncode == 1
            assert "Traceback" not in proc.stderr
            lines = proc.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
            assert "non-negative" in lines[0]

    def test_diverged_training_is_one_error_line(self, tmp_path):
        users, items = planted_interactions(n_users=30, n_items=20,
                                            top_frac=0.1, seed=6)
        inter = write_inter_file(tmp_path / "p.inter",
                                 [f"{u},{i}" for u, i in zip(users, items)])
        out = tmp_path / "out"
        proc = run_cli("run", "--set", f"inter_path={inter}",
                       "--set", "model=bpr", "--set", "train.epochs=3",
                       "--set", "train.learning_rate=1e200",
                       "--set", "train.embedding_dim=8",
                       "--set", "train.batch_size=64", "--set", "topk=[5]",
                       "--set", "valid_metric=recall@5",
                       "--set", f"out_dir={out}", "--quiet")
        assert proc.returncode != 0
        assert "Traceback" not in proc.stderr
        errors = [l for l in proc.stderr.splitlines() if l.startswith("error:")]
        assert len(errors) == 1 and "diverged" in errors[0], proc.stderr
        assert not (out / "report.json").exists()
        for name in ("model_best.ckpt", "model_last.ckpt"):
            if (out / name).exists():
                _, arrays = load_state(out / name)
                assert all(np.isfinite(a).all() for a in arrays.values())

    def test_diverged_training_prints_only_the_error_line(self, tmp_path):
        users, items = planted_interactions(n_users=30, n_items=20,
                                            top_frac=0.1, seed=6)
        inter = write_inter_file(tmp_path / "p.inter",
                                 [f"{u},{i}" for u, i in zip(users, items)])
        proc = run_cli("run", "--set", f"inter_path={inter}",
                       "--set", "model=bpr", "--set", "train.epochs=3",
                       "--set", "train.learning_rate=1e200",
                       "--set", "train.embedding_dim=8",
                       "--set", "train.batch_size=64", "--set", "topk=[5]",
                       "--set", "valid_metric=recall@5",
                       "--set", f"out_dir={tmp_path / 'out'}", "--quiet")
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr  # no numpy RuntimeWarning lines
        assert lines[0].startswith("error: training diverged")

    @pytest.mark.parametrize("override, key", [
        ("eval_batch_size=0", "eval_batch_size"),
        ("eval_batch_size=-5", "eval_batch_size"),
        ("topk=[0]", "topk"),
        ("valid_metric=recall@0", "valid_metric"),
    ])
    def test_bad_eval_size_is_one_error_line_before_training(self, tmp_path,
                                                             override, key):
        proc = self._run_toy(tmp_path / "out", "--set", override)
        _assert_one_error_line(proc, key)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, text", [
        ("train.learning_rate=.nan", "'train.learning_rate' expects a finite number"),
        ("ease.l2=.nan", "'ease.l2' expects a finite number"),
        ("itemknn.shrink=.inf", "'itemknn.shrink' expects a finite number"),
        ("split_ratios=[.nan,0.5,0.5]", "'split_ratios' expects a finite number"),
        ("label_threshold=1e400", "'label_threshold' expects a finite number"),
        ('filters=["rating==nan"]', "value must be a finite number"),
        ('filters=["rating!=nan"]', "value must be a finite number"),
        ('filters=["rating>=1e400"]', "value must be a finite number"),
    ])
    def test_non_finite_number_is_one_error_line(self, tmp_path, override, text):
        proc = self._run_toy(tmp_path / "out", "--set", override)
        _assert_one_error_line(proc, text)
        assert not (tmp_path / "out").exists()

    def test_filter_on_a_token_field_is_one_error_line(self, tmp_path):
        proc = self._run_toy(tmp_path / "out", "--set", 'filters=["user_id>=3"]')
        _assert_one_error_line(proc, "filter 'user_id>=3': field 'user_id' is a "
                                     "token field; comparisons need a float field")

    @pytest.mark.parametrize("op", [">=", "<=", ">", "<", "==", "!="])
    def test_value_filter_matches_numpy_on_missing_values(self, tmp_path, op):
        rng = np.random.default_rng(5)
        n = 400
        users = rng.integers(0, 40, size=n)
        items = rng.integers(0, 25, size=n)
        ratings = rng.integers(1, 6, size=n).astype(np.float64)
        ratings[rng.random(n) < 0.2] = np.nan
        rows = [f"u{u},i{i},{'' if np.isnan(r) else r},{t}.0"
                for t, (u, i, r) in enumerate(zip(users, items, ratings))]
        path = write_inter_file(tmp_path / "nan.inter", rows,
                                "user_id:token,item_id:token,rating:float,"
                                "timestamp:float")
        out = tmp_path / "out"
        proc = run_cli("run", "--set", f"inter_path={path}",
                       "--set", "model=popularity", "--set", "metrics=[recall]",
                       "--set", "topk=[1]", "--set", "valid_metric=recall@1",
                       "--set", f"out_dir={out}", "--set", f'filters=["rating{op}3.0"]',
                       "--eval-setting", "RO_RS,full", "--quiet")
        assert proc.returncode == 0, proc.stderr
        ops = {">=": np.greater_equal, "<=": np.less_equal, ">": np.greater,
               "<": np.less, "==": np.equal, "!=": np.not_equal}
        observed = ~np.isnan(ratings)
        kept = np.flatnonzero(observed)[ops[op](ratings[observed], 3.0)]
        log = (out / "run.log").read_text()
        assert f"filter 'rating{op}3.0' -> {len(kept)} rows\n" in log
        assert (f"remapped IDs: {len(set(users[kept]))} users, "
                f"{len(set(items[kept]))} items\n") in log

    def test_token_time_field_is_one_error_line(self, tmp_path):
        proc = self._run_toy(tmp_path / "out", "--set", "time_field=user_id")
        _assert_one_error_line(proc, "time_field 'user_id' is a token field; "
                                     "temporal ordering needs a float field")

    def test_unquoted_inter_num_filter_says_to_quote_it(self, tmp_path):
        # the YAML flow list splits inter_num(5,5) at its comma
        proc = self._run_toy(tmp_path / "out", "--set", "filters=[inter_num(5,5)]")
        _assert_one_error_line(proc, "cannot parse filter 'inter_num(5': unclosed "
                                     "'('; quote each directive, as in "
                                     'filters=["inter_num(5,5)"]')
        assert not (tmp_path / "out").exists()

    def test_missing_path_fails(self):
        proc = run_cli("run", "--set", "model=popularity", "--quiet")
        assert proc.returncode == 1
        assert "inter_path" in proc.stderr

    def test_seed_flag_feeds_config(self, tmp_path):
        a = self._run_toy(tmp_path / "s7", "--seed", "7")
        b = self._run_toy(tmp_path / "s8", "--seed", "8")
        assert a.returncode == 0 and b.returncode == 0
        head_a = (tmp_path / "s7" / "report.txt").read_text().splitlines()[0]
        head_b = (tmp_path / "s8" / "report.txt").read_text().splitlines()[0]
        assert head_a != head_b  # config hash reflects the seed


class TestConfigFileErrors:
    """A config file outside the flat subset is one ``error:`` line."""

    @pytest.mark.parametrize("body, text", [
        ("seed: 1\nmodel: popularity\nseed: 2\n",
         ":3: duplicate key 'seed' (first set on line 1)"),
        ("train:\n  epochs: 3\n", ":2: an indented line nests a mapping or a list; use dotted"),
        ("metrics:\n  - recall\n", ":2: an indented line nests a mapping or a list; use dotted"),
        ("model bpr\n", ":1: expected 'key: value', got 'model bpr'"),
        ("metrics: [recall, ndcg\n", ":1: cannot read '[recall, ndcg'"),
    ])
    def test_bad_file_is_one_error_line(self, tmp_path, body, text):
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(body, encoding="utf-8")
        proc = run_cli("run", "--config", str(cfg), "--set", f"inter_path={TOY}",
                       "--set", f"out_dir={tmp_path / 'out'}", "--quiet")
        _assert_one_error_line(proc, f"config {cfg}{text}")
        assert not (tmp_path / "out").exists()

    def test_missing_config_is_one_error_line(self, tmp_path):
        cfg = tmp_path / "absent.yaml"
        proc = run_cli("run", "--config", str(cfg), "--set", f"inter_path={TOY}",
                       "--set", f"out_dir={tmp_path / 'out'}", "--quiet")
        _assert_one_error_line(proc, f"cannot read config {cfg}")
        assert not (tmp_path / "out").exists()


class TestResumeCli:
    @staticmethod
    def _run_args(out):
        return ["run", "--set", f"inter_path={TOY}", "--set", "model=bpr",
                "--set", "train.epochs=4", "--set", "train.batch_size=4",
                "--set", "metrics=[recall]", "--set", "topk=[1]",
                "--set", "valid_metric=recall@1",
                "--set", f"out_dir={out}", "--quiet"]

    def test_interrupt_and_resume(self, tmp_path):
        out = tmp_path / "r"
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "2")
        assert proc.returncode == 0, proc.stderr
        assert "resume" in proc.stdout
        proc = run_cli("resume", "--checkpoint", str(out / "model_last.ckpt"),
                       "--quiet")
        assert proc.returncode == 0, proc.stderr
        assert (out / "report.txt").exists()

    def test_set_alone_applies_on_top_of_the_checkpoint_config(self, tmp_path):
        out = tmp_path / "r"
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "2")
        assert proc.returncode == 0, proc.stderr
        resume = ["resume", "--checkpoint", str(out / "model_last.ckpt"),
                  "--set", "train.epochs=6", "--quiet"]
        _assert_one_error_line(run_cli(*resume), "hash mismatch")
        proc = run_cli(*resume, "--force")
        assert proc.returncode == 0, proc.stderr
        manifest, _ = load_state(out / "model_last.ckpt")
        assert manifest["epoch"] == 6
        assert manifest["config"]["train"]["epochs"] == 6
        assert manifest["config"]["model"] == "bpr"

    def test_resume_appends_to_the_run_log(self, tmp_path):
        out = tmp_path / "r"
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "2")
        assert proc.returncode == 0, proc.stderr
        proc = run_cli("resume", "--checkpoint", str(out / "model_last.ckpt"),
                       "--quiet")
        assert proc.returncode == 0, proc.stderr
        messages = [line.split(" | ", 1)[1]
                    for line in (out / "run.log").read_text().splitlines()]
        epochs = [m.split(":")[0] for m in messages if m.startswith("epoch ")]
        assert epochs == ["epoch 1", "epoch 2", "epoch 3", "epoch 4"]
        resumed = next(i for i, m in enumerate(messages)
                       if m.startswith("resuming from"))
        assert messages[resumed - 1].startswith("interrupted after epoch 2")
        # a fresh run into the same directory starts an empty log
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "1")
        assert proc.returncode == 0, proc.stderr
        assert "resuming" not in (out / "run.log").read_text()

    def test_checkpoint_naming_a_removed_key_is_one_error_line(self, tmp_path):
        # a checkpoint written while the config still had kg_path
        out = tmp_path / "r"
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "1")
        assert proc.returncode == 0, proc.stderr
        ckpt = out / "model_last.ckpt"
        manifest, arrays = load_state(ckpt)
        manifest["config"]["kg_path"] = ""
        save_state(ckpt, manifest, arrays)
        proc = run_cli("resume", "--checkpoint", str(ckpt), "--quiet")
        assert proc.returncode == 1
        assert proc.stderr.splitlines() == ["error: unknown config key 'kg_path'"]

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_stop_after_epoch_below_one_is_one_error_line(self, tmp_path, value):
        out = tmp_path / "r"
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", value)
        _assert_one_error_line(proc, "stop_after_epoch")
        assert not out.exists()
        proc = run_cli(*self._run_args(out), "--stop-after-epoch", "1")
        assert proc.returncode == 0, proc.stderr
        log = (out / "run.log").read_text()
        proc = run_cli("resume", "--checkpoint", str(out / "model_last.ckpt"),
                       "--stop-after-epoch", value, "--quiet")
        _assert_one_error_line(proc, "stop_after_epoch")
        assert (out / "run.log").read_text() == log


class TestTune:
    def test_grid_over_ease(self, tmp_path):
        space = tmp_path / "hyper.test"
        space.write_text("ease.l2=[1.0,10.0]\n", encoding="utf-8")
        proc = run_cli("tune", "--set", f"inter_path={TOY}",
                       "--set", "model=ease",
                       "--set", "eval_setting=TO_LS,full",
                       "--set", "metrics=[recall, ndcg]",
                       "--set", "topk=[2]", "--set", "valid_metric=ndcg@2",
                       "--set", f"out_dir={tmp_path / 'tune'}",
                       "--space", str(space), "--method", "grid")
        assert proc.returncode == 0, proc.stderr
        summary = json.loads((tmp_path / "tune" / "search.json").read_text())
        assert len(summary["trials"]) == 2
        assert "best_assignment" in summary

    def test_parallel_writes_what_sequential_writes(self, tmp_path):
        write_input(tmp_path / "g.inter", n_users=60, n_items=80)
        space = tmp_path / "hyper.test"
        space.write_text("train.learning_rate=[0.05, 0.2]\n"
                         "train.embedding_dim=[4, 8]\n", encoding="utf-8")

        def tune(name, *extra):
            proc = run_cli("tune", "--set", f"inter_path={tmp_path / 'g.inter'}",
                           "--set", "model=bpr", "--set", "train.epochs=2",
                           "--set", "metrics=[recall, ndcg]",
                           "--set", "topk=[5]", "--set", "valid_metric=ndcg@5",
                           "--set", f"out_dir={tmp_path / name}",
                           "--space", str(space), *extra)
            assert proc.returncode == 0, proc.stderr
            summary = json.loads((tmp_path / name / "search.json").read_text())
            for trial in summary["trials"]:
                del trial["wall_time"], trial["out_dir"]
            return summary

        assert tune("parallel", "--parallel") == tune("sequential")
        for index in range(4):
            trial = f"trial_{index:04d}"
            for name in ("report.txt", "report.json"):
                assert ((tmp_path / "parallel" / trial / name).read_bytes()
                        == (tmp_path / "sequential" / trial / name).read_bytes())

    def test_negative_random_seed_is_one_error_line(self, tmp_path):
        space = tmp_path / "hyper.test"
        space.write_text("ease.l2=[1.0,10.0]\n", encoding="utf-8")
        proc = run_cli("tune", "--set", f"inter_path={TOY}",
                       "--set", "model=ease", "--set", f"out_dir={tmp_path}",
                       "--space", str(space), "--method", "random",
                       "--seed", "-1")
        _assert_one_error_line(proc, "non-negative")


class TestFmFields:
    @pytest.mark.parametrize("name", ["ocupation", "tags"])
    def test_unknown_or_sequence_field_is_one_error_line(self, tmp_path, name):
        write_input(tmp_path / "g.inter", n_users=40, n_items=50)
        write_features(tmp_path / "g.user", "user_id", 40,
                       {"occupation": "token", "tags": "token_seq", "age": "float"},
                       seed=3)
        out = tmp_path / "r"
        proc = run_cli("run", "--set", f"inter_path={tmp_path / 'g.inter'}",
                       "--set", f"user_path={tmp_path / 'g.user'}",
                       "--set", "model=fm", "--set", "label_source=rating",
                       "--set", "label_threshold=4",
                       "--set", f"fm.fields=[{name}]",
                       "--set", f"out_dir={out}", "--quiet")
        _assert_one_error_line(
            proc, f"'{name}' not found among the ID and scalar feature fields "
                  "of the .user and .item tables: user_id, item_id, occupation, age")
        assert not (out / "model_last.ckpt").exists()


def _assert_one_error_line(proc, text):
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert text in lines[0]


class TestBenchCli:
    def test_small_bench(self):
        proc = run_cli("bench", "--users", "50", "--items", "80",
                       "--k", "5", "--repeats", "1")
        assert proc.returncode == 0, proc.stderr
        assert "speedup" in proc.stdout
        assert "reports identical        : yes" in proc.stdout

    def test_catalog_smaller_than_the_positive_draw(self):
        # up to 5 positives per user, but only 2 real items to draw them from
        proc = run_cli("bench", "--users", "5", "--items", "3",
                       "--k", "1", "--repeats", "1")
        assert proc.returncode == 0, proc.stderr
        assert "reports identical        : yes" in proc.stdout

    @pytest.mark.parametrize("flag, value, text", [
        ("--seed", "-1", "non-negative"), ("--users", "0", "positive"),
        ("--k", "0", "positive"), ("--repeats", "0", "positive"),
    ])
    def test_bad_value_is_one_error_line(self, flag, value, text):
        args = {"--users": "5", "--items": "8", "--k": "2", "--repeats": "1"}
        args[flag] = value
        proc = run_cli("bench", *[t for pair in args.items() for t in pair])
        _assert_one_error_line(proc, text)


_RUN_AND_LIST_SCIPY = """
import json, sys
import recbench.cli, recbench.runner
loaded = {}
for model, out in zip(sys.argv[2::2], sys.argv[3::2]):
    code = recbench.cli.main([
        "run", "--set", f"inter_path={sys.argv[1]}", "--set", f"model={model}",
        "--set", f"out_dir={out}", "--set", "metrics=[recall]", "--set", "topk=[5]",
        "--set", "valid_metric=recall@5", "--set", "train.epochs=2", "--quiet"])
    loaded[model] = [code, "scipy" in sys.modules, "scipy.sparse" in sys.modules,
                     "yaml" in sys.modules, "numpy.ma" in sys.modules]
print(json.dumps(loaded))
"""


class TestLazyScipy:
    def test_popularity_run_never_imports_scipy(self, tmp_path):
        users, items = planted_interactions(n_users=40, n_items=30, top_frac=0.2, seed=4)
        inter = write_inter_file(tmp_path / "p.inter",
                                 [f"{u},{i}" for u, i in zip(users, items)])
        args = [str(inter)]
        for model in ("popularity", "bpr", "itemknn"):
            args += [model, str(tmp_path / model)]
        proc = subprocess.run([sys.executable, "-c", _RUN_AND_LIST_SCIPY, *args],
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        # popularity first, in a fresh process: scipy is still unloaded;
        # BPR's few logistic values take no scipy either, ItemKNN's sparse
        # matrix loads scipy.sparse
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert {model: flags[:3] for model, flags in loaded.items()} == {
            "popularity": [0, False, False], "bpr": [0, False, False],
            "itemknn": [0, True, True]}
        # nor do the config reader and the full-ranking hit lookup
        # (positive_hits) load PyYAML or numpy.ma; scipy.sparse loads numpy.ma
        assert loaded["popularity"][3:] == loaded["bpr"][3:] == [False, False]
