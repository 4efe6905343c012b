"""Golden digests of whole runs: record them, or recompute them for a test.

The scenarios: all five models under every setting in ``SETTINGS``, an FM
run with value metrics, an FM run with user and item feature files, a BPR
run stopped after epoch 1 and resumed, and one ``recbench.evaluate``
report of the value-metric FM run's best checkpoint.

The input is generated in pure Python (``random.Random``), so it does not
depend on the numpy version; the results do, through float sums and
BLAS, so the recorded file names the numpy, scipy and BLAS it was made
with.  Every run uses paths relative to the working directory, so the
configs stored in reports and checkpoints do not name a temporary
folder.

Re-record after a deliberate change to results::

    PYTHONPATH=src python tests/record_golden.py

The recorder prints every digest that changed, appeared or disappeared
before it overwrites the file.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
import tempfile
from pathlib import Path

DIGESTS = Path(__file__).parent / "data" / "golden_digests.json"
MODELS = ("popularity", "itemknn", "bpr", "ease", "fm")
SETTINGS = ("RO_RS,full", "TO_LS,uni20", "RO_LS,uni5")
FILES = ("report.txt", "report.json", "model_best.ckpt", "model_last.ckpt")
VALUE_METRICS = ("recall", "ndcg", "rmse", "mae")


def write_input(path, n_users=300, n_items=400, seed=17):
    """A seeded interaction file: 8-24 distinct items per user, 1-5 ratings."""
    rand = random.Random(seed)
    rows = ["user_id:token,item_id:token,rating:float,timestamp:float"]
    t = 0
    for u in range(n_users):
        for i in rand.sample(range(n_items), rand.randint(8, 24)):
            t += rand.randint(1, 50)
            rows.append(f"u{u},i{i},{rand.randint(1, 5)}.0,{t}.0")
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def write_features(path, key, n_entities, fields, seed):
    """A seeded feature file for about 70% of the entities ``{key[0]}0..``.

    ``fields`` maps a name to ``"token"``, ``"token_seq"`` or ``"float"``.
    Some token cells are empty; some float cells are ``nan`` or empty
    (both missing).
    """
    rand = random.Random(seed)
    rows = [",".join([f"{key}:token", *(f"{n}:{t}" for n, t in fields.items())])]
    for e in range(n_entities):
        if rand.random() < 0.3:
            continue  # this entity has no feature row
        cells = [f"{key[0]}{e}"]
        for name, ftype in fields.items():
            r = rand.random()
            if ftype == "token":
                cells.append("" if r < 0.1 else f"{name[0]}{rand.randint(0, 5)}")
            elif ftype == "token_seq":
                cells.append(" ".join(f"{name[0]}{rand.randint(0, 5)}"
                                      for _ in range(rand.randint(0, 3))))
            else:
                cells.append("nan" if r < 0.1 else "" if r < 0.15
                             else repr(round(rand.uniform(-3, 3), 3)))
        rows.append(",".join(cells))
    Path(path).write_text("\n".join(rows) + "\n", encoding="utf-8")


def _overrides(model, setting, out_dir, metrics="[recall, ndcg, mrr]"):
    return ["inter_path=golden.inter", f"model={model}",
            f"eval_setting={setting}", "label_source=rating",
            "label_threshold=4", f"metrics={metrics}", "topk=[5, 10]",
            "valid_metric=ndcg@10", "train.epochs=3",
            "train.embedding_dim=16", "train.batch_size=512",
            "itemknn.k=20", "ease.l2=50", f"out_dir={out_dir}"]


def _evaluate_checkpoint(checkpoint, setting, out_dir):
    """Write ``recbench.evaluate``'s report of an FM checkpoint under ``setting``."""
    import numpy as np

    from recbench import evaluate, parse_eval_setting
    from recbench.config import load_config
    from recbench.models import build_model, load_state
    from recbench.runner import load_dataset

    cfg = load_config(None, _overrides("fm", setting, out_dir))
    ds = load_dataset(cfg)
    model = build_model("fm", ds, np.arange(len(ds.inter)), cfg.train)
    model.load_state_arrays(load_state(checkpoint)[1])
    report = evaluate(model, ds, parse_eval_setting(setting, seed=cfg.seed),
                      list(VALUE_METRICS), ks=[5, 10])
    Path(out_dir).mkdir(parents=True)
    Path(out_dir, "report.txt").write_text(report.to_text(), encoding="utf-8")
    Path(out_dir, "report.json").write_text(report.to_json(), encoding="utf-8")


def run_scenarios():
    """Run every scenario in the working directory; map output file -> SHA-256."""
    from recbench.config import load_config
    from recbench.runner import resume_experiment, run_experiment

    write_input("golden.inter")
    write_features("golden.user", "user_id", 300,
                   {"occupation": "token", "age": "float"}, seed=18)
    write_features("golden.item", "item_id", 400,
                   {"genre": "token", "tags": "token_seq", "price": "float",
                    "year": "float"}, seed=19)
    runs = {}
    for model in MODELS:
        for setting in SETTINGS:
            out_dir = f"runs/{model}-{setting.replace(',', '-')}"
            runs[out_dir] = _overrides(model, setting, out_dir)
    out_dir = "runs/fm-values"
    runs[out_dir] = _overrides("fm", SETTINGS[0], out_dir,
                               metrics=f"[{', '.join(VALUE_METRICS)}]")
    out_dir = "runs/fm-features"
    runs[out_dir] = [*_overrides("fm", SETTINGS[0], out_dir),
                     "user_path=golden.user", "item_path=golden.item"]
    for overrides in runs.values():
        run_experiment(load_config(None, overrides))
    out_dir = "runs/bpr-resumed"
    run_experiment(load_config(None, _overrides("bpr", SETTINGS[0], out_dir)),
                   stop_after_epoch=1)
    resume_experiment(f"{out_dir}/model_last.ckpt")
    files = [f"{d}/{name}" for d in [*runs, out_dir] for name in FILES]
    _evaluate_checkpoint("runs/fm-values/model_best.ckpt", "TO_LS,full",
                         "runs/evaluate")
    files += ["runs/evaluate/report.txt", "runs/evaluate/report.json"]
    return {f: hashlib.sha256(Path(f).read_bytes()).hexdigest() for f in files}


def environment():
    """The libraries whose arithmetic the digests depend on."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "scipy": scipy.__version__,
            "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        cwd = os.getcwd()
        os.chdir(tmp)
        try:
            files = run_scenarios()
        finally:
            os.chdir(cwd)
    old = (json.loads(DIGESTS.read_text(encoding="utf-8"))
           if DIGESTS.exists() else {"environment": None, "files": {}})
    if old["environment"] != environment():
        print(f"environment: {old['environment']} -> {environment()}")
    for name in sorted(old["files"].keys() | files.keys()):
        if name not in files:
            print(f"disappeared: {name}")
        elif name not in old["files"]:
            print(f"appeared: {name}")
        elif old["files"][name] != files[name]:
            print(f"changed: {name}")
    DIGESTS.write_text(json.dumps({"environment": environment(), "files": files},
                                  indent=2, sort_keys=True) + "\n",
                       encoding="utf-8")
    print(f"wrote {len(files)} digests to {DIGESTS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
