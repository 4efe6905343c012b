"""The benchmark's per-layer spans still see every layer that ``recbench run`` uses.

``perfbench/spans.py`` wraps each layer at the name its caller looks up.
A change that moves or bypasses a call site leaves the wrapper in place
but never entered, and the layer's metric silently reads 0.  These tests
run ``recbench run`` through the benchmark's own traced child process and
check that every declared span is entered.
"""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# layers that ``recbench run`` no longer calls: hits are found without a
# relevance matrix (``ranking.positive_hits``)
NOT_CALLED = {"ranking.relevance_matrix", "ranking.index_hits"}


def _write_inter(path, n_users=40, n_items=30, per_user=12, seed=0):
    rng = np.random.default_rng(seed)
    lines = ["user_id:token,item_id:token,rating:float,timestamp:float"]
    for u in range(n_users):
        for i in rng.choice(n_items, size=per_user, replace=False):
            lines.append(f"u{u},i{i},{rng.integers(1, 6)}.0,{rng.integers(0, 1000)}.0")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _traced_calls(tmp_path, name, config):
    """Run one traced ``recbench run``; returns the call count per span name."""
    cfg = tmp_path / f"{name}.yaml"
    cfg.write_text("".join(f"{k}: {v}\n" for k, v in config.items()), encoding="utf-8")
    result = tmp_path / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "child.py"), str(result), "1", "--",
         "run", "--config", str(cfg), "--quiet"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text(encoding="utf-8"))["spans"]["calls"]


def test_every_span_is_entered(tmp_path):
    sys.path.insert(0, str(PERFBENCH))
    try:
        import spans
    finally:
        sys.path.remove(str(PERFBENCH))
    inter = tmp_path / "data.inter"
    _write_inter(inter)
    common = {"inter_path": str(inter), "metrics": '["recall", "ndcg"]',
              "topk": "[5]", "valid_metric": "ndcg@5", "seed": 3}
    bpr = _traced_calls(tmp_path, "bpr", dict(
        common, out_dir=str(tmp_path / "bpr"), model="bpr",
        eval_setting="RO_RS,full", filters='["rating>=2.0", "inter_num(5,5)"]',
        **{"train.embedding_dim": 8, "train.epochs": 2}))
    pop = _traced_calls(tmp_path, "pop", dict(
        common, out_dir=str(tmp_path / "pop"), model="popularity",
        eval_setting="TO_LS,uni5"))
    missing = [name for name in spans.SPANS
               if name not in NOT_CALLED and bpr.get(name, 0) + pop.get(name, 0) == 0]
    assert missing == []
