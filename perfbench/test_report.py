"""Tests of the benchmark's own helpers (report.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import json
import unittest
from pathlib import Path

import report

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def span(name, start, end, parent=-1, request=0, count=0):
    return [name, start, end, parent, request, count]


class PercentileRule(unittest.TestCase):
    def test_p95_needs_ten_samples_beyond_it(self):
        self.assertIsNone(report.percentile(list(range(199)), 95))
        self.assertEqual(report.percentile(list(range(200)), 95), 189)

    def test_p50_needs_ten_samples_beyond_it(self):
        self.assertIsNone(report.percentile(list(range(19)), 50))
        self.assertEqual(report.percentile(list(range(20)), 50), 9)

    def test_nearest_rank_ignores_input_order(self):
        values = [float(v) for v in range(400, 0, -1)]
        self.assertEqual(report.percentile(values, 95), 380.0)
        self.assertEqual(report.percentile(values, 50), 200.0)

    def test_empty_is_withheld(self):
        self.assertIsNone(report.percentile([], 50))
        self.assertIsNone(report.median([]))

    def test_median(self):
        self.assertEqual(report.median([3.0, 1.0, 2.0]), 2.0)
        self.assertEqual(report.median([4.0, 1.0, 2.0, 3.0]), 2.5)


class SelfTime(unittest.TestCase):
    def test_leaf_self_time_is_its_duration(self):
        self.assertEqual(report.self_times([span("a", 1.0, 3.5)]), [2.5])

    def test_nested_children_count_once(self):
        # root [0,10) > child [2,6) > grandchild [3,5): the grandchild
        # lies inside the child, so only the child is subtracted from
        # the root.
        spans = [span("root", 0.0, 10.0),
                 span("child", 2.0, 6.0, parent=0),
                 span("grandchild", 3.0, 5.0, parent=1)]
        self.assertEqual(report.self_times(spans), [6.0, 2.0, 2.0])

    def test_overlapping_children_subtract_their_union(self):
        # Two concurrent children [1,5) and [3,8) cover [1,8).
        spans = [span("root", 0.0, 10.0),
                 span("a", 1.0, 5.0, parent=0),
                 span("b", 3.0, 8.0, parent=0)]
        self.assertEqual(report.self_times(spans)[0], 3.0)

    def test_children_outside_the_parent_are_clipped(self):
        spans = [span("root", 2.0, 6.0),
                 span("early", 0.0, 3.0, parent=0),
                 span("late", 5.0, 9.0, parent=0),
                 span("after", 7.0, 8.0, parent=0)]
        self.assertEqual(report.self_times(spans)[0], 2.0)

    def test_covered_merges_touching_intervals(self):
        self.assertEqual(
            report.covered((0.0, 10.0), [(1.0, 2.0), (2.0, 4.0),
                                         (6.0, 7.0)]), 4.0)


class MetricNames(unittest.TestCase):
    def test_declared_names_are_valid(self):
        for name in list(report.END_TO_END) + list(report.PER_LAYER):
            self.assertTrue(report.valid_metric_name(name), name)

    def test_invalid_names_are_rejected(self):
        for name in ("", ".hidden", "has space", "slash/name", "x" * 65,
                     "query.p95%"):
            self.assertFalse(report.valid_metric_name(name), name)

    def test_benchmark_json_matches_the_reporter(self):
        spec = json.loads(BENCHMARK_JSON.read_text())
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["end_to_end"]},
            report.END_TO_END)
        self.assertEqual(
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            report.PER_LAYER)


def raw_result(**overrides):
    raw = {
        "traced": False, "attempted": 250, "failed": 0, "errors": [],
        "peak_rss_mb": 140.0, "setup_s": [1.0, 1.2, 1.1],
        "measure_s": [2.0, 2.2, 2.1], "measure_traced_s": [],
        "timed_measurements": 3,
        "query_ms": [float(v) for v in range(1, 201)],
        "query_traced_ms": [],
        "counts": {"sim.events": 100, "zm4.events_recorded": 10,
                   "zm4.events_lost": 0, "hybrid.protocol_errors": 0,
                   "trace.events": 10, "trace.intervals": 7},
        "ingest": {"sessions": 4, "events": 1000, "seconds": 0.5,
                   "producer_stalls": 8, "collector_stalls": 0,
                   "idle_cycles": 4, "ring_high_water": 64,
                   "buffer_high_water": 64, "dropped": 0},
        "spans": [],
    }
    raw.update(overrides)
    return raw


class Reduce(unittest.TestCase):
    def test_untraced_run_reports_every_end_to_end_metric(self):
        result, problems = report.reduce(raw_result())
        self.assertEqual(problems, [])
        self.assertTrue(result["correct"])
        self.assertEqual(set(result["metrics"]), set(report.END_TO_END))
        self.assertEqual(result["metrics"]["measure_s"]["value"], 2.1)
        self.assertEqual(
            result["metrics"]["ingest_events_per_s"]["value"], 2000.0)
        self.assertEqual(result["metrics"]["query_p95_ms"]["value"], 190.0)

    def test_failed_check_makes_the_run_incorrect(self):
        result, problems = report.reduce(
            raw_result(failed=1, errors=["golden fig07-mailbox"]))
        self.assertFalse(result["correct"])
        self.assertEqual(problems, ["golden fig07-mailbox"])

    def test_withheld_percentile_makes_the_run_incorrect(self):
        result, problems = report.reduce(
            raw_result(query_ms=[1.0] * 150))
        self.assertFalse(result["correct"])
        self.assertNotIn("query_p95_ms", result["metrics"])
        self.assertIn("query_p50_ms", result["metrics"])
        self.assertTrue(any("query_p95_ms" in p for p in problems))


if __name__ == "__main__":
    unittest.main()
