#!/usr/bin/env python3
"""Tests of compare.py: a synthetic regression is flagged, a change within
the bound is left alone, and a spread wider than the bound is unresolved."""

import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import compare  # noqa: E402

BENCH = {
    "end_to_end": [
        {"name": "latency_p50_ms", "unit": "ms", "better": "lower", "bound": 0.1},
        {"name": "solves_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}


def runs(latencies, rates, failed=0):
    return {("w", 0): [
        {"correct": True, "attempted": 100, "failed": failed,
         "metrics": {"latency_p50_ms": {"value": l, "unit": "ms"},
                     "solves_per_s": {"value": r, "unit": "1/s"}}}
        for l, r in zip(latencies, rates)]}


BASE_LAT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.3]
BASE_RATE = [10.0, 10.1, 9.9, 10.05, 9.95, 10.02, 9.98, 10.01, 9.99, 10.03]


class CompareTest(unittest.TestCase):
    def test_regression_flagged(self):
        slower = [v * 1.3 for v in BASE_LAT]
        self.assertEqual(compare.classify(BASE_LAT, slower, 0.1, "lower"), "regressed")
        fewer = [v * 0.7 for v in BASE_RATE]
        self.assertEqual(compare.classify(BASE_RATE, fewer, 0.1, "higher"), "regressed")
        out = io.StringIO()
        problems = compare.compare(runs(BASE_LAT, BASE_RATE), runs(slower, BASE_RATE), BENCH, out)
        self.assertEqual(problems, 1)
        self.assertIn("REGRESSED", out.getvalue())

    def test_within_bound_left_alone(self):
        nudged = [v * 1.03 for v in BASE_LAT]
        self.assertEqual(compare.classify(BASE_LAT, nudged, 0.1, "lower"), "unchanged")
        out = io.StringIO()
        problems = compare.compare(runs(BASE_LAT, BASE_RATE), runs(nudged, BASE_RATE), BENCH, out)
        self.assertEqual(problems, 0)
        self.assertNotIn("REGRESSED", out.getvalue())

    def test_improvement(self):
        faster = [v * 0.8 for v in BASE_LAT]
        self.assertEqual(compare.classify(BASE_LAT, faster, 0.1, "lower"), "improved")

    def test_wide_spread_unresolved(self):
        noisy = [60.0, 140.0, 80.0, 120.0, 70.0, 130.0, 90.0, 110.0, 100.0, 100.0]
        shifted = [v * 1.05 for v in noisy]
        self.assertEqual(compare.classify(noisy, shifted, 0.1, "lower"), "unresolved")
        # every new run worse than every old run: a regression despite the spread
        apart = [v + 200.0 for v in noisy]
        self.assertEqual(compare.classify(noisy, apart, 0.1, "lower"), "regressed")

    def test_failed_share_change_flagged(self):
        out = io.StringIO()
        problems = compare.compare(runs(BASE_LAT, BASE_RATE), runs(BASE_LAT, BASE_RATE, failed=1),
                                   BENCH, out)
        self.assertEqual(problems, 1)
        self.assertIn("FAILED SHARE CHANGED", out.getvalue())

    def test_quartiles_match_statistics(self):
        q1, med, q3 = compare.quartiles([1.0, 2.0, 3.0, 4.0, 5.0])
        self.assertEqual((q1, med, q3), (1.5, 3.0, 4.5))


if __name__ == "__main__":
    unittest.main()
