"""In-memory spans around the public functions of each ``recbench`` layer.

``install`` replaces every traced function at the name its caller looks
up (the runner's imported names, ``runner.ds_mod``, the evaluator's
imported ranking steps, ``Evaluator.evaluate``, the model methods and the
ranking-metric lookup), so nothing inside ``src/`` changes.  Spans are
kept in memory as ``(name, start, end, parent)`` and summarised when the
run ends; a layer's self time is its span time minus the time of its
direct child spans.

Every span name in ``SPANS`` is reported, with 0 calls if it was never
entered, so a layer that a later change deletes or bypasses stays
visible.
"""

from __future__ import annotations

import functools
import os
import time
from collections import defaultdict

SPANS = (
    "runner.import",
    "tables.read_table",
    "dataset.filter_by_field_value", "dataset.filter_by_inter_num",
    "dataset.remap_ids", "dataset.fill_nan",
    "protocol.make_split", "protocol.build_candidates",
    "protocol.history_by_user",
    "models.build_model", "models.epoch_batches", "models.calculate_loss",
    "models.full_sort_predict", "models.predict",
    "checkpoint.save_state", "checkpoint.load_state",
    "evaluator.evaluate",
    "ranking.reshape_scores", "ranking.topk_find",
    "ranking.relevance_matrix", "ranking.index_hits",
    "metrics.ranking",
)


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.events = []   # [name, start, end, parent index or -1]
        self.stack = []
        self.counters = defaultdict(float)

    def open(self, name):
        parent = self.stack[-1] if self.stack else -1
        self.events.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.events) - 1)

    def close(self):
        self.events[self.stack.pop()][2] = time.perf_counter()

    def call(self, name, fn, *args, **kwargs):
        self.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self.close()

    def iterate(self, name, iterable):
        """Yield from ``iterable``, timing each step as one span."""
        it = iter(iterable)
        while True:
            self.open(name)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                self.close()
            yield item

    def wrap(self, owner, attr, name, count=None):
        """Replace ``owner.attr`` with a traced wrapper.

        ``count(counters, result, *args, **kwargs)`` runs after the span
        closes and adds to the named counters.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if count is not None:
                count(self.counters, result, *args, **kwargs)
            return result

        setattr(owner, attr, traced)

    def summary(self):
        """Calls, inclusive and self seconds per span name, counters and spans."""
        calls = dict.fromkeys(SPANS, 0)
        total = dict.fromkeys(SPANS, 0.0)
        self_s = dict.fromkeys(SPANS, 0.0)
        top_level = 0.0
        for name, start, end, parent in self.events:
            duration = end - start
            calls[name] = calls.get(name, 0) + 1
            total[name] = total.get(name, 0.0) + duration
            self_s[name] = self_s.get(name, 0.0) + duration
            if parent < 0:
                top_level += duration
            else:
                self_s[self.events[parent][0]] -= duration
        return {"calls": calls, "total_s": total, "self_s": self_s,
                "top_level_s": top_level, "counters": dict(self.counters),
                "events": self.events}


def _model_classes(registry):
    """Every class in the registry's MROs that defines a model method."""
    seen = []
    for cls in registry.values():
        for klass in cls.__mro__:
            if klass is not object and klass not in seen:
                seen.append(klass)
    return seen


def install(tracer: Tracer):
    """Wrap the public functions of each layer at their call sites."""
    import recbench.evaluator as evaluator
    import recbench.metrics as metrics
    import recbench.models as models
    import recbench.runner as runner

    def rows_read(c, table, *a, **k):
        c["tables.read_table.rows"] += len(table)

    def rows_kept(c, ds, *a, **k):
        c["dataset.rows_kept"] = len(ds.inter)

    def eval_users(c, cand, *a, **k):
        c["protocol.eval_users"] += len(cand.users)

    def saved(c, result, path, *a, **k):
        c["checkpoint.save_state.bytes"] += os.path.getsize(path)

    def loaded(c, result, path, *a, **k):
        c["checkpoint.load_state.bytes"] += os.path.getsize(path)

    def candidate_cells(c, mat, scores, n_items, candidates=None):
        c["ranking.candidate_cells"] += (mat.size if candidates is None else
                                         sum(len(x) for x in candidates))

    def topk_cells(c, result, scores, *a, **k):
        c["ranking.topk_find.cells"] += scores.size

    def eval_counted(c, report, ev, *a, **k):
        c["evaluator.users"] += len(ev.users)

    def train_pairs(c, loss, model, batch, *a, **k):
        c["models.train_pairs"] += len(batch)

    def sort_cells(c, scores, *a, **k):
        c["models.full_sort_predict.cells"] += scores.size

    def pairs(c, scores, *a, **k):
        c["models.predict.pairs"] += len(scores)

    tracer.wrap(runner, "read_table", "tables.read_table", rows_read)
    for name in ("filter_by_field_value", "filter_by_inter_num", "remap_ids",
                 "fill_nan"):
        tracer.wrap(runner.ds_mod, name, f"dataset.{name}", rows_kept)
    tracer.wrap(runner, "make_split", "protocol.make_split")
    tracer.wrap(runner, "build_candidates", "protocol.build_candidates", eval_users)
    tracer.wrap(runner, "history_by_user", "protocol.history_by_user")
    tracer.wrap(runner, "build_model", "models.build_model")
    tracer.wrap(runner, "save_state", "checkpoint.save_state", saved)
    tracer.wrap(runner, "load_state", "checkpoint.load_state", loaded)
    tracer.wrap(evaluator, "reshape_scores", "ranking.reshape_scores", candidate_cells)
    tracer.wrap(evaluator, "topk_find", "ranking.topk_find", topk_cells)
    tracer.wrap(evaluator, "relevance_matrix", "ranking.relevance_matrix")
    tracer.wrap(evaluator, "index_hits", "ranking.index_hits")
    tracer.wrap(evaluator.Evaluator, "evaluate", "evaluator.evaluate", eval_counted)

    lookup = metrics.ranking_metric

    @functools.wraps(lookup)
    def ranking_metric(name):
        return functools.partial(tracer.call, "metrics.ranking", lookup(name))

    metrics.ranking_metric = ranking_metric

    methods = {"calculate_loss": train_pairs, "full_sort_predict": sort_cells,
               "predict": pairs}
    for klass in _model_classes(models.MODEL_REGISTRY):
        for attr, count in methods.items():
            if attr in vars(klass):
                tracer.wrap(klass, attr, f"models.{attr}", count)
        if "epoch_batches" in vars(klass):
            produce = vars(klass)["epoch_batches"]

            @functools.wraps(produce)
            def epoch_batches(model, *args, _produce=produce, **kwargs):
                return tracer.iterate("models.epoch_batches",
                                      _produce(model, *args, **kwargs))

            klass.epoch_batches = epoch_batches


def hook_first_step(registry):
    """Record ``time.monotonic()`` at the first ``calculate_loss`` entry of any model.

    Returns a list that holds that time once a step has happened.
    This is the only instrumentation of an untraced run.
    """
    first = []
    for klass in _model_classes(registry):
        if "calculate_loss" in vars(klass):
            step = vars(klass)["calculate_loss"]

            @functools.wraps(step)
            def calculate_loss(*args, _step=step, **kwargs):
                if not first:
                    first.append(time.monotonic())
                return _step(*args, **kwargs)

            klass.calculate_loss = calculate_loss
    return first


# self-time metrics not named "<span>.s"
_SELF_METRIC = {"runner.import": "process.import_s",
                "evaluator.evaluate": "evaluator.evaluate.self_s"}


def _rate(count, seconds):
    return count / seconds if seconds > 0 else 0.0


def layer_metrics(summary, run_s):
    """The per-layer metrics of one traced sample whose wall time is ``run_s``."""
    calls, total, self_s = summary["calls"], summary["total_s"], summary["self_s"]
    counters = defaultdict(float, summary["counters"])
    out = {}

    def put(name, value, unit):
        out[name] = (value, unit)

    for name in SPANS:
        put(_SELF_METRIC.get(name, f"{name}.s"), self_s[name], "s")
    put("tables.read_table.rows", counters["tables.read_table.rows"], "count")
    put("tables.read_table.rows_per_s",
        _rate(counters["tables.read_table.rows"], total["tables.read_table"]), "rows/s")
    put("dataset.rows_kept", counters["dataset.rows_kept"], "count")
    put("protocol.eval_users", counters["protocol.eval_users"], "count")
    put("models.calculate_loss.calls", calls["models.calculate_loss"], "count")
    put("models.train_pairs_per_s",
        _rate(counters["models.train_pairs"], total["models.calculate_loss"]), "pairs/s")
    put("models.full_sort_predict.cells", counters["models.full_sort_predict.cells"], "count")
    put("models.predict.pairs", counters["models.predict.pairs"], "count")
    put("checkpoint.save_state.calls", calls["checkpoint.save_state"], "count")
    put("checkpoint.save_state.bytes", counters["checkpoint.save_state.bytes"], "bytes")
    put("checkpoint.load_state.bytes", counters["checkpoint.load_state.bytes"], "bytes")
    put("ranking.topk_find.cells", counters["ranking.topk_find.cells"], "count")
    put("ranking.topk_find.cells_per_s",
        _rate(counters["ranking.topk_find.cells"], total["ranking.topk_find"]), "cells/s")
    cells = counters["ranking.topk_find.cells"]
    put("ranking.candidate_cell_ratio",
        counters["ranking.candidate_cells"] / cells if cells else 0.0, "ratio")
    put("evaluator.evaluate.calls", calls["evaluator.evaluate"], "count")
    put("evaluator.users_per_s",
        _rate(counters["evaluator.users"], total["evaluator.evaluate"]), "users/s")
    put("runner.self_s", run_s - summary["top_level_s"], "s")
    put("process.outside_s", summary["outside_s"], "s")
    # share of the process's own lifetime (after interpreter start-up,
    # before exit) that top-level spans cover
    put("trace.coverage", summary["top_level_s"] / (run_s - summary["outside_s"]),
        "ratio")
    return out
