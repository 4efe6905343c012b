"""Self-test of the benchmark itself, at tiny sizes.

Usage::

    python3 perfbench/selftest.py

Checks that the generator is deterministic per seed, that a perturbed
reference report makes every sample fail, that on a tiny traced run the
top-level spans cover at least 95% of the process's own lifetime, and
that a run reports exactly the metrics ``BENCHMARK.json`` names.
"""

from __future__ import annotations

import json
import unittest

import gen
import harness
import run
import spans
from workloads import Workload

TINY = Workload("selftest-tiny",
                gen.Shape(users=300, items=400, rows=6_000, min_per_user=5,
                          activity_sigma=0.8, zipf=0.8),
                {"model": "bpr", "eval_setting": "RO_RS,full",
                 "filters": ["rating>=2.0", "inter_num(2,2)"],
                 "train.epochs": 2, "train.patience": 2})


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_bytes(self):
        a = gen.generate(TINY.shape, 5, TINY.name)
        self.assertEqual(a, gen.generate(TINY.shape, 5, TINY.name))
        self.assertNotEqual(a, gen.generate(TINY.shape, 6, TINY.name))
        self.assertNotEqual(a, gen.generate(TINY.shape, 5, "other"))

    def test_shape(self):
        lines = gen.generate(TINY.shape, 1, TINY.name).splitlines()
        self.assertEqual(lines[0], gen.HEADER)
        rows = [tuple(line.split(",")) for line in lines[1:]]
        self.assertEqual(len(rows), TINY.shape.rows)
        pairs = {(u, i) for u, i, _, _ in rows}
        self.assertEqual(len(pairs), len(rows), "a user repeats an item")
        per_user = {}
        for u, _, r, _ in rows:
            per_user[u] = per_user.get(u, 0) + 1
            self.assertIn(r, {"1", "2", "3", "4", "5"})
        self.assertEqual(len(per_user), TINY.shape.users)
        self.assertGreaterEqual(min(per_user.values()), TINY.shape.min_per_user)


class SampleTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        harness.check_checkout()
        cls.path, _ = harness.prepare_input(TINY, 0)

    def test_perturbed_reference_fails_every_sample(self):
        first = harness.run_sample(TINY, self.path, traced=False, timeout=120)
        self.assertTrue(first.ok, first.error)
        samples, failures = run.measure(TINY, self.path, 0, False, first.report)
        self.assertEqual(failures, [])
        perturbed = first.report.replace(b"0.", b"1.", 1)
        self.assertNotEqual(perturbed, first.report)
        samples, failures = run.measure(TINY, self.path, 0, False, perturbed)
        self.assertEqual(len(failures), len(samples["warmup"] + samples[False]))
        self.assertGreaterEqual(len(failures), 1 + run.MIN_SAMPLES)

    def test_spans_cover_traced_run(self):
        sample = harness.run_sample(TINY, self.path, traced=True, timeout=120)
        self.assertTrue(sample.ok, sample.error)
        metrics = spans.layer_metrics(sample.spans, sample.run_s)
        self.assertGreaterEqual(metrics["trace.coverage"][0], 0.95)
        calls = sample.spans["calls"]
        self.assertEqual(set(spans.SPANS) - set(calls), set())
        self.assertEqual(calls["models.predict"], 0)   # reported, never entered
        self.assertGreater(calls["models.epoch_batches"], 0)

    def test_metric_names_match_benchmark_json(self):
        spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
        samples, failures = run.measure(TINY, self.path, 0, True, None)
        self.assertEqual(failures, [])
        self.assertEqual(list(run.end_to_end(samples[False])),
                         [m["name"] for m in spec["end_to_end"]])
        self.assertEqual(sorted(run.per_layer(samples[True], samples[False])),
                         sorted(m["name"] for m in spec["per_layer"]))


if __name__ == "__main__":
    unittest.main()
