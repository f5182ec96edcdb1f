"""Tests of the benchmark's own arithmetic (perfbench/stats.py).

Run from the repository root:  python3 -m unittest discover -s perfbench/tests
"""

import json
import os
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, ".."))
import stats  # noqa: E402


class TailPercentileTest(unittest.TestCase):
    def test_needs_ten_samples_beyond(self):
        # 99 samples leave 9.9 beyond p90: no tail may be reported.
        self.assertIsNone(stats.tail_percentile(list(range(99))))
        # 100 samples leave exactly 10 beyond p90.
        p, v = stats.tail_percentile(list(range(1, 101)))
        self.assertEqual(p, 90.0)
        self.assertEqual(v, 90)

    def test_picks_highest_percentile_that_qualifies(self):
        self.assertEqual(stats.tail_percentile(list(range(999)))[0], 90.0)
        self.assertEqual(stats.tail_percentile(list(range(1000)))[0], 99.0)
        self.assertEqual(stats.tail_percentile(list(range(10000)))[0], 99.9)

    def test_nearest_rank(self):
        xs = [5, 1, 4, 2, 3]
        self.assertEqual(stats.percentile(xs, 50), 3)
        self.assertEqual(stats.percentile(xs, 100), 5)
        self.assertEqual(stats.percentile(xs, 1), 1)


class SelfTimeTest(unittest.TestCase):
    def test_transform_chain_subtracts_downstream_transforms(self):
        chain = [
            ("source", "Scan t", 100),     # exclusive already
            ("transform", "Filter", 900),  # includes Project + sink consume
            ("transform", "Project", 600),  # includes the sink's consume
            ("sink", "Aggregate", 250),    # consume + finalize
        ]
        self.assertEqual(stats.chain_self_nanos(chain), [
            ("Scan t", 100), ("Filter", 300), ("Project", 600),
            ("Aggregate", 250)])

    def test_last_transform_keeps_sink_consume(self):
        # The sink's time holds its finalize, which the transform's time
        # does not: subtracting it would under-report the transform.
        chain = [("transform", "Project", 100), ("sink", "Sort", 400)]
        self.assertEqual(stats.chain_self_nanos(chain),
                         [("Project", 100), ("Sort", 400)])

    def test_operator_form_and_prepare_are_exclusive(self):
        chain = [("prepare", "HashBuild", 70), ("op", "Iterate", 500)]
        self.assertEqual(stats.chain_self_nanos(chain),
                         [("HashBuild", 70), ("Iterate", 500)])

    def test_kinds_sum_over_classes(self):
        chains = {
            "a": [[("op", "Iterate", 2_000_000_000)],
                  [("source", "P0", 1_000_000_000),
                   ("sink", "Sort [x]", 500_000_000)]],
            "b": [[("op", "TableFunction kmeans", 1_000_000_000)]],
        }
        kinds = stats.self_seconds_by_kind(chains)
        self.assertAlmostEqual(kinds["iterate"], 2.0)
        self.assertAlmostEqual(kinds["scan"], 1.0)
        self.assertAlmostEqual(kinds["sort_limit"], 0.5)
        self.assertAlmostEqual(kinds["table_function"], 1.0)
        self.assertAlmostEqual(kinds["other"], 0.0)

    def test_span_self_time_subtracts_union_of_children(self):
        spans = [
            {"id": 0, "name": "statement", "start_ns": 0, "end_ns": 100,
             "parent": -1, "request": 1},
            {"id": 1, "name": "parse", "start_ns": 10, "end_ns": 30,
             "parent": 0, "request": 1},
            # Overlaps the next child: the overlap counts once.
            {"id": 2, "name": "execute", "start_ns": 40, "end_ns": 80,
             "parent": 0, "request": 1},
            {"id": 3, "name": "execute", "start_ns": 70, "end_ns": 120,
             "parent": 0, "request": 1},
        ]
        own = stats.span_self_nanos(spans)
        self.assertEqual(own[0], 100 - 20 - 60)  # children cover 10-30, 40-100
        self.assertEqual(own[1], 20)
        by_name = stats.span_self_by_name(spans)
        self.assertAlmostEqual(by_name["execute"], 90e-9)


class RatioTest(unittest.TestCase):
    def test_append_growth_compares_first_and_last_tenth(self):
        writes = [1.0] * 10 + [5.0] * 80 + [3.0] * 10
        self.assertAlmostEqual(stats.append_growth(writes), 3.0)
        self.assertEqual(stats.append_growth([]), 0.0)
        # Fewer than ten writes: the tenths are single writes.
        self.assertAlmostEqual(stats.append_growth([2.0, 9.0, 4.0]), 2.0)

    def test_error_ratio_counts_failed_shed_and_wrong(self):
        self.assertEqual(stats.error_ratio(100, failed=1, shed=2, wrong=3), 0.06)
        self.assertEqual(stats.error_ratio(50), 0.0)
        self.assertEqual(stats.error_ratio(0), 1.0)

    def test_end_to_end_metrics_average_fork_medians(self):
        forks = [
            {"setup_s": [3.0, 1.0, 2.0], "latency_ms": {"a": [1.0, 4.0, 4.0], "b": [9.0]},
             "wall_s": 2.0, "peak_rss_kb": 2048.0},
            {"setup_s": [4.0], "latency_ms": {"a": [2.0], "b": []},
             "wall_s": 1.0, "peak_rss_kb": 1024.0},
        ]
        m = stats.end_to_end(forks)
        self.assertEqual(m["setup_s"], (2.5, "s"))  # median of all four
        self.assertEqual(m["stmts_per_s"], (5 / 3.0, "1/s"))
        # a: mean of medians 4 and 2; b: only the first fork has samples.
        self.assertAlmostEqual(m["class_median_ms"][0], (3.0 * 9.0) ** 0.5)
        self.assertEqual(m["peak_rss_mb"], (2.0, "MB"))

    def test_pool_concatenates_and_sums(self):
        forks = [
            {"workload": "w", "sizes": {"rows": 5, "rounds": 3},
             "checks": {"answers": True}, "errors": ["x"], "setup_s": [1.0],
             "latency_ms": {"a": [1.0]}, "attempted": 4, "failed": 1,
             "shed": 0, "wrong": 0},
            {"workload": "w", "sizes": {"rows": 5, "rounds": 3},
             "checks": {"answers": False}, "errors": [], "setup_s": [2.0],
             "latency_ms": {"a": [2.0], "b": [3.0]}, "attempted": 4,
             "failed": 0, "shed": 1, "wrong": 2},
        ]
        p = stats.pool(forks)
        self.assertEqual(p["sizes"], {"rows": 5, "rounds": 6, "forks": 2})
        self.assertEqual(p["checks"], {"answers": False})
        self.assertEqual(p["errors"], ["x"])
        self.assertEqual(p["setup_s"], [1.0, 2.0])
        self.assertEqual(p["latency_ms"], {"a": [1.0, 2.0], "b": [3.0]})
        self.assertEqual((p["attempted"], p["failed"], p["shed"], p["wrong"]),
                         (8, 1, 1, 2))
        self.assertEqual(forks[0]["latency_ms"], {"a": [1.0]})  # inputs untouched

    def test_trace_overhead_is_staged_traced_over_execute(self):
        tr = {"samples": {"staged_traced_ms/a": [2.0, 4.0, 3.0],
                          "core.execute_ms/a": [1.0, 1.0],
                          "staged_traced_ms/b": [8.0],
                          "core.execute_ms/b": [2.0, 2.0, 2.0]},
              "counters": {}, "chains": {}}
        ratio, unit = stats.per_layer(tr)["trace.overhead_ratio"]
        self.assertAlmostEqual(ratio, 12.0 ** 0.5)  # sqrt(3 * 4)
        self.assertEqual(unit, "ratio")


class VerdictTest(unittest.TestCase):
    def test_win_fraction_ignores_ties(self):
        self.assertEqual(stats.win_fraction([2, 2, 2, 2], [1, 2, 3, 1], "lower"), 0.5)
        self.assertEqual(stats.win_fraction([2, 2], [3, 3], "higher"), 1.0)

    def test_improved_needs_nine_tenths_and_gap_beyond_spread(self):
        parent = [10.0 + 0.1 * i for i in range(10)]
        change = [8.0 + 0.1 * i for i in range(10)]
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "improved")
        # A gap smaller than the parent's inter-quartile distance is no gain.
        close = [p - 0.2 for p in parent]
        self.assertEqual(stats.verdict(parent, close, "lower", 0.1), "unchanged")

    def test_regressed_beyond_bound(self):
        parent = [10.0] * 10
        self.assertEqual(stats.verdict(parent, [12.0] * 10, "lower", 0.1), "regressed")
        self.assertEqual(stats.verdict(parent, [8.0] * 10, "higher", 0.1), "regressed")

    def test_wide_spread_is_unresolved(self):
        parent = [5.0, 15.0] * 5
        change = [6.0, 14.0] * 5
        self.assertEqual(stats.verdict(parent, change, "lower", 0.1), "unresolved")

    def test_too_few_pairs_is_unresolved(self):
        self.assertEqual(stats.verdict([1.0] * 9, [0.5] * 9, "lower", 0.1),
                         "unresolved")


class DefinitionsTest(unittest.TestCase):
    """run.py emits exactly the metrics BENCHMARK.json declares, and the
    metric map covers every per-layer metric."""

    def setUp(self):
        root = os.path.join(HERE, "..", "..")
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            self.spec = json.load(f)
        with open(os.path.join(HERE, "..", "metric_map.json")) as f:
            self.map = json.load(f)

    def test_end_to_end_names_and_units(self):
        rec = {"workload": "w", "setup_s": [1.0], "latency_ms": {"a": [1.0]},
               "wall_s": 1.0, "peak_rss_kb": 1.0}
        got = {k: u for k, (_, u) in stats.end_to_end([rec]).items()}
        want = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
        self.assertEqual(got, want)

    def test_per_layer_names_and_units(self):
        got = {k: u for k, (_, u) in
               stats.per_layer({"samples": {}, "counters": {}, "chains": {}}).items()}
        want = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual(got, want)
        self.assertEqual([m["name"] for m in self.map["metrics"]],
                         [m["name"] for m in self.spec["per_layer"]])
        self.assertEqual([m["name"] for m in self.map["end_to_end"]],
                         [m["name"] for m in self.spec["end_to_end"]])


if __name__ == "__main__":
    unittest.main()
