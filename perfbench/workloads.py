"""The benchmark workloads: one generated input shape plus one config each.

Sizes are scaled down from the datasets they imitate so that one
``recbench run`` takes a few seconds and a measured window holds several
samples; the shapes (users x items, activity skew, popularity skew) and
the protocols follow the originals.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from gen import Shape

COMMON = {
    "metrics": ["recall", "ndcg", "mrr"],
    "topk": [10, 20],
    "valid_metric": "ndcg@10",
    "seed": 2020,
}


@dataclass(frozen=True)
class Workload:
    name: str
    shape: Shape
    config: dict = field(default_factory=dict)


WORKLOADS = {w.name: w for w in (
    # MovieLens-1M at 35% of its users and items and the same 4.5% density:
    # heavy-tailed activity, Zipf popularity; the only workload with
    # iterative training
    Workload("ml1m-bpr-full",
             Shape(users=2135, items=1310, rows=125_000, min_per_user=20,
                   activity_sigma=1.0, zipf=0.9),
             {"model": "bpr", "eval_setting": "RO_RS,full",
              "filters": ["rating>=2.0", "inter_num(5,5)"],
              "train.embedding_dim": 64, "train.batch_size": 1024,
              "train.epochs": 3, "train.patience": 3}),
    # Amazon-like sparsity, about 8 rows per user; sampled-candidate
    # evaluation dominates, training is close to zero
    Workload("sparse-pop-uni99",
             Shape(users=3000, items=6000, rows=24_000, min_per_user=5,
                   activity_sigma=0.6, zipf=0.8),
             {"model": "popularity", "eval_setting": "TO_LS,uni99"}),
)}


def config_text(workload: Workload, inter_path, out_dir):
    """The flat ``key: value`` config file for one run."""
    cfg = dict(COMMON, inter_path=str(inter_path), out_dir=str(out_dir))
    cfg.update(workload.config)
    lines = []
    for key, value in cfg.items():
        if isinstance(value, list):
            value = "[" + ", ".join(f'"{v}"' if isinstance(v, str) else str(v)
                                    for v in value) + "]"
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"
