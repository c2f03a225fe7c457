#!/usr/bin/env python3
"""Tests of the benchmark's statistics helpers and metric declarations.

    python3 perfbench/test_stats.py
"""

import json
import os
import statistics
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import stats  # noqa: E402


class PercentileRule(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))  # 1..100
        self.assertEqual(stats.percentile(values, 50), 50)
        self.assertEqual(stats.percentile(values, 99), 99)
        self.assertEqual(stats.percentile(values, 100), 100)
        self.assertEqual(stats.percentile([7.0], 99), 7.0)
        self.assertEqual(stats.percentile([3, 1, 2], 50), 2)  # order-free

    def test_samples_beyond(self):
        self.assertEqual(stats.samples_beyond(1000, 99), 10)
        self.assertEqual(stats.samples_beyond(999, 99), 9)
        self.assertEqual(stats.samples_beyond(1100, 99), 11)
        self.assertEqual(stats.samples_beyond(20, 50), 10)
        self.assertEqual(stats.samples_beyond(10000, 99.9), 10)

    def test_p99_needs_ten_samples_beyond(self):
        self.assertEqual(stats.tail_percentile(100000), 99.0)
        self.assertEqual(stats.tail_percentile(1000), 99.0)
        # One sample short of ten beyond p99: fall back to p98.
        self.assertEqual(stats.tail_percentile(999), 98.0)
        self.assertEqual(stats.tail_percentile(500), 98.0)
        self.assertEqual(stats.tail_percentile(200), 95.0)
        self.assertEqual(stats.tail_percentile(100), 90.0)
        self.assertEqual(stats.tail_percentile(40), 75.0)
        self.assertEqual(stats.tail_percentile(20), 50.0)
        self.assertIsNone(stats.tail_percentile(19))

    def test_target_caps_the_percentile(self):
        # Plenty of samples for p99.9, but a p99 figure never reports it.
        self.assertEqual(stats.tail_percentile(10 ** 6, 99.0), 99.0)
        self.assertEqual(stats.tail_percentile(10 ** 6, 99.9), 99.9)

    def test_tail_value(self):
        values = [float(i) for i in range(1, 2001)]
        self.assertEqual(stats.tail(values), (99.0, 1980.0))
        with self.assertRaises(ValueError):
            stats.tail([1.0] * 10)


class WindowedTail(unittest.TestCase):
    def test_stall_in_a_minority_of_windows_is_ignored(self):
        quiet = [1.0] * 990 + [2.0] * 10  # p99 of a quiet window is 1.0
        stalled = [1.0] * 900 + [50.0] * 100
        values = quiet * 7 + stalled * 3
        self.assertEqual(stats.windowed_tail(values), (99.0, 1.0))
        self.assertEqual(stats.tail(values), (99.0, 50.0))

    def test_chunks_are_at_least_one_window(self):
        # 2500 samples make two chunks of 1250; each p99 sees 12 beyond.
        values = [float(i % 1250) for i in range(2500)]
        self.assertEqual(stats.windowed_tail(values), (99.0, 1237.0))

    def test_short_run_falls_back_to_the_tail_rule(self):
        values = [float(i) for i in range(1, 201)]
        self.assertEqual(stats.windowed_tail(values), (95.0, 190.0))


class HostSteal(unittest.TestCase):
    SAMPLES = [  # time, steal ticks, total ticks; 40 ticks per 100 ms
        [0.0, 100, 1000], [0.1, 100, 1040], [0.2, 110, 1080],
        [0.3, 111, 1120], [0.4, 111, 1160],
    ]

    def test_span_steal(self):
        # Interval shares: 0-0.1 none, 0.1-0.2 10/40, 0.2-0.3 1/40, 0.3-0.4 none.
        spans = [(0.0, 0.05), (0.05, 0.15), (0.15, 0.25), (0.25, 0.35),
                 (0.2, 0.3), (0.5, 0.6)]
        self.assertEqual(stats.span_steal(self.SAMPLES, spans),
                         [0.0, 0.25, 0.25, 0.025, 0.025, 0.0])
        self.assertEqual(stats.span_steal(self.SAMPLES[:1], spans), [0.0] * 6)

    def test_calls_in_stolen_intervals_are_left_out(self):
        ends = [0.005 + 0.01 * i for i in range(40)]  # 4-ms calls, 0-0.4 s
        run_stats = {"host": self.SAMPLES, "call_end_s": ends,
                     "call_ms": [4.0] * 40, "call_bytes": list(range(40))}
        ms, payload, left_out = run.kept_calls(run_stats)
        # Calls ending in (0.1, 0.204) overlap the 25 % interval; 2.5 % is
        # under the limit.
        self.assertEqual(left_out, 10)
        self.assertEqual(payload, list(range(10)) + list(range(20, 40)))

    def test_busy_host_keeps_the_least_stolen_quarter(self):
        # Four 0.1-s intervals with 10, 20, 30 and 40 % steal.
        busy = [[0.0, 0, 0], [0.1, 4, 40], [0.2, 12, 80], [0.3, 24, 120],
                [0.4, 40, 160]]
        ends = [0.005 + 0.01 * i for i in range(40)]
        run_stats = {"host": busy, "call_end_s": ends,
                     "call_ms": [4.0] * 40, "call_bytes": list(range(40))}
        ms, payload, left_out = run.kept_calls(run_stats)
        self.assertEqual(payload, list(range(10)))
        self.assertEqual(left_out, 30)
        # Uniform steal: nothing to choose between, every call is kept.
        flat = [[0.1 * i, 10 * i, 40 * i] for i in range(5)]
        self.assertEqual(run.kept_calls(dict(run_stats, host=flat))[2], 0)


class QuartilesAndSpread(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        self.assertEqual(stats.quartiles(values),
                         tuple(statistics.quantiles(values, n=4)))

    def test_spread_of_ten_runs(self):
        values = [100, 101, 99, 102, 98, 100, 103, 97, 100, 100]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertAlmostEqual(stats.spread(values),
                               (q3 - q1) / statistics.median(values))
        # Exclusive quartiles of 1..10 are 2.75 and 8.25; the median is 5.5.
        self.assertAlmostEqual(stats.spread(list(range(1, 11))), 5.5 / 5.5)

    def test_constant_values_have_no_spread(self):
        self.assertEqual(stats.spread([4.0] * 10), 0.0)


class TransportShare(unittest.TestCase):
    def test_share(self):
        # 5 us per block in process, 8 us over the wire: 3/8 is transport.
        self.assertAlmostEqual(stats.transport_share(5.0, 8.0), 0.375)
        self.assertEqual(stats.transport_share(8.0, 8.0), 0.0)

    def test_ring_us_per_op_from_throughput(self):
        # 1000-byte blocks at 125 MB/s (bytes per microsecond) take 8 us.
        raw = {"workload": "ring-1k-tcp", "block_bytes": 1000}
        run_stats = {"call_bytes": [1e6, 1e6, 1e6], "call_ms": [8.0, 8.0, 8.0],
                     "call_end_s": [0.008, 0.016, 0.024], "host": []}
        self.assertAlmostEqual(run.us_per_op(run_stats, raw), 8.0)

    def test_calls_us_per_op_is_median_latency(self):
        raw = {"workload": "calls-tcp", "block_bytes": 1600}
        run_stats = {"call_ms": [0.1, 0.3, 0.2], "call_bytes": [1600.0] * 3,
                     "call_end_s": [0.001, 0.002, 0.003], "host": []}
        self.assertAlmostEqual(run.us_per_op(run_stats, raw), 200.0)

    def test_faster_transport_lowers_the_share(self):
        self.assertLess(stats.transport_share(5.0, 6.0),
                        stats.transport_share(5.0, 8.0))
        with self.assertRaises(ValueError):
            stats.transport_share(1.0, 0.0)


class Declarations(unittest.TestCase):
    """run.py's metric tables must match BENCHMARK.json."""

    def setUp(self):
        path = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
        if not os.path.exists(path):
            self.skipTest("BENCHMARK.json not present")
        with open(path) as f:
            self.spec = json.load(f)

    def test_metrics(self):
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in self.spec["per_layer"]},
                         run.PER_LAYER)

    def test_workloads(self):
        declared = [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(declared, [w for w in run.WORKLOADS if w in declared])
        self.assertEqual(declared, [w for w in run.WORKLOADS if w.startswith("ring-")])


if __name__ == "__main__":
    unittest.main()
