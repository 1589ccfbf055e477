#!/usr/bin/env python3
"""Tests of BENCHMARK.json and the comparison command.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import io
import json
import os
import re
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import compare  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9_.-]+$")


def catalog():
    """(name, unit, end_to_end) triples of metricCatalog() in metrics.cc."""
    with open(os.path.join(HERE, "metrics.cc")) as f:
        src = f.read()
    return [(n, u, e == "true") for n, u, e in
            re.findall(r'\{"([^"]+)", "([^"]+)", (true|false)\}', src)]


class BenchmarkSpec(unittest.TestCase):
    def setUp(self):
        self.spec = compare.load_spec()

    def test_metric_names_are_well_formed_and_unique(self):
        names = [m["name"] for m in
                 self.spec["end_to_end"] + self.spec["per_layer"]]
        for n in names:
            self.assertRegex(n, NAME)
        self.assertEqual(len(names), len(set(names)))

    def test_metrics_match_the_driver_catalog(self):
        cat = catalog()
        self.assertTrue(cat)
        for key, e2e in (("end_to_end", True), ("per_layer", False)):
            self.assertEqual(
                [(m["name"], m["unit"]) for m in self.spec[key]],
                [(n, u) for n, u, e in cat if e == e2e])

    def test_setup_has_the_largest_bound(self):
        bounds = {m["name"]: m["bound"] for m in self.spec["end_to_end"]}
        self.assertEqual(bounds["setup_s"], max(bounds.values()))
        self.assertLessEqual(max(bounds.values()), 0.25)


def row(seed, values, attempted=51, failed=2, trace=0):
    metrics = {k: {"value": v, "unit": "s"} for k, v in values.items()}
    return {"seed": seed, "trace": trace,
            "result": {"correct": True, "attempted": attempted,
                       "failed": failed, "metrics": metrics}}


SPEC = {
    "workloads": [{"name": "w", "why": "test"}],
    "end_to_end": [
        {"name": "cpu_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.2},
    ],
}


def steady(n, base=10.0, step=0.01):
    return [row(s, {"cpu_s": base + step * s, "setup_s": 1.0 + s})
            for s in range(n)]


class Report(unittest.TestCase):
    def run_report(self, *sets):
        out = io.StringIO()
        return compare.report([{"w": s} for s in sets], SPEC, out), \
            out.getvalue()

    def test_spread_is_the_quartile_distance_over_the_median(self):
        med, spr = compare.spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10])
        self.assertEqual(med, 5.5)
        self.assertAlmostEqual(spr, (8.25 - 2.75) / 5.5)

    def test_steady_sets_pass(self):
        bad, text = self.run_report(steady(10), steady(10))
        self.assertEqual(bad, 0, text)

    def test_wide_spread_fails_except_on_setup(self):
        wide = [row(s, {"cpu_s": 10.0 + 2 * s, "setup_s": 1.0 + 5 * s})
                for s in range(10)]
        bad, text = self.run_report(wide)
        self.assertEqual(bad, 1, text)
        lines = {l.split()[0]: l for l in text.splitlines()[1:3]}
        self.assertIn("> bound", lines["cpu_s"])
        self.assertNotIn("> bound", lines["setup_s"])

    def test_a_worse_second_median_fails(self):
        bad, text = self.run_report(steady(10), steady(10, base=12.0))
        self.assertEqual(bad, 1, text)
        self.assertIn("worse by +0.19", text)

    def test_a_better_second_median_passes(self):
        bad, text = self.run_report(steady(10), steady(10, base=8.0))
        self.assertEqual(bad, 0, text)

    def test_failed_shares_must_match_exactly(self):
        other = steady(10)
        other[0]["result"]["failed"] = 3
        bad, text = self.run_report(steady(10), other)
        self.assertEqual(bad, 1, text)
        self.assertIn("shares differ", text)

    def test_deterministic_counts_must_match_for_a_seed(self):
        a = steady(10) + [row(1, {"core.pipeline_calls": 5,
                                  "core.pipeline_s": 1.0}, trace=1)]
        b = steady(10) + [row(1, {"core.pipeline_calls": 6,
                                  "core.pipeline_s": 2.0}, trace=1)]
        bad, text = self.run_report(a, a)
        self.assertEqual(bad, 0, text)
        bad, text = self.run_report(a, b)
        self.assertEqual(bad, 1, text)
        self.assertIn("core.pipeline_calls seed 1", text)

    def test_sets_round_trip_through_files(self):
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "w.jsonl"), "w") as f:
                for r in steady(3):
                    f.write(json.dumps(r) + "\n")
            self.assertEqual(compare.read_set(d), {"w": steady(3)})


if __name__ == "__main__":
    unittest.main()
