"""recbench: a benchmarking engine for classic recommender models.

Typed delimited data files, composable evaluation protocols, a
vectorized top-K evaluation path (numpy partial selection), a small
model zoo behind a two-function interface, and a runner with
deterministic training, checkpoint/resume, and hyperparameter search.
"""

from .batch import Batch
from .config import Config, load_config
from .dataset import (Dataset, Vocabulary, fill_nan, filter_by_field_value,
                      filter_by_inter_num, normalize, remap_ids,
                      set_label_by_threshold)
from .errors import RecbenchError
from .evaluator import Evaluator, MetricReport
from .protocol import (CandidateSet, EvalPlan, SplitResult, build_candidates,
                       make_split, parse_eval_setting)
from .ranking import (TOPK_BACKEND, HitMatrix, index_hits, reshape_scores,
                      topk_find)
from .runner import evaluate
from .tables import (DataTable, FieldSpec, FieldType, TableKind, convert_csv,
                     read_table, write_table)

__version__ = "0.1.0"

__all__ = [
    "__version__", "RecbenchError",
    "DataTable", "FieldSpec", "FieldType", "TableKind",
    "read_table", "write_table", "convert_csv",
    "Dataset", "Vocabulary",
    "filter_by_inter_num", "filter_by_field_value", "remap_ids", "fill_nan",
    "set_label_by_threshold", "normalize",
    "Batch",
    "EvalPlan", "SplitResult", "CandidateSet", "parse_eval_setting",
    "build_candidates", "make_split",
    "TOPK_BACKEND", "topk_find", "reshape_scores", "index_hits", "HitMatrix",
    "Evaluator", "MetricReport", "evaluate",
    "Config", "load_config",
]
