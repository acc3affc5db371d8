"""Quick self-test of the benchmark's own helpers and output checks.

    python3 perfbench/selftest.py

Covers the percentile and quartile helpers, Prometheus exposition
parsing, the result line, the serve reply checks, and the train round's
gradient check.  Runs in a few seconds; starts no server.
"""

from __future__ import annotations

import json
import statistics
import sys
import unittest

from common import (
    SRC, combine, parse_exposition, percentile, rel_diff, result, series_total,
)
from steady import quartile_spread

sys.path.insert(0, str(SRC))

import numpy as np                                              # noqa: E402


class Statistics(unittest.TestCase):
    def test_percentile_matches_numpy_linear(self):
        rng = np.random.default_rng(0)
        values = list(rng.standard_normal(37))
        for q in (0, 10, 50, 90, 100):
            self.assertAlmostEqual(percentile(values, q),
                                   float(np.percentile(values, q)))

    def test_percentile_of_nothing_raises(self):
        with self.assertRaises(ValueError):
            percentile([], 50)

    def test_quartile_spread_uses_statistics_quantiles(self):
        values = [10.0, 11.0, 9.0, 10.5, 12.0, 9.5, 10.2, 10.1, 9.9, 10.3]
        q1, med, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(quartile_spread(values), (med, q1, q3,
                                                   (q3 - q1) / med))

    def test_rel_diff(self):
        self.assertEqual(rel_diff(0.0, 0.0), 0.0)
        self.assertAlmostEqual(rel_diff(1.0, 1.1), 0.1 / 1.1)


EXPOSITION = """\
# HELP repro_requests_total HTTP requests served, by status code.
# TYPE repro_requests_total counter
repro_requests_total{code="200",class="2xx"} 51
repro_requests_total{code="503",class="5xx"} 2
repro_batch_size_bucket{le="+Inf"} 50
repro_batch_size_sum 75
repro_request_latency_seconds{quantile="0.5"} 0.009209
repro_request_latency_seconds_sum 0.488753
repro_queue_depth 0
"""


class Exposition(unittest.TestCase):
    def test_samples_and_labels(self):
        series = parse_exposition(EXPOSITION)
        self.assertEqual(
            series[("repro_requests_total",
                    (("class", "2xx"), ("code", "200")))], 51.0)
        self.assertEqual(series[("repro_batch_size_bucket",
                                 (("le", "+Inf"),))], 50.0)
        self.assertEqual(series_total(series, "repro_requests_total"), 53.0)
        self.assertEqual(series_total(series, "repro_batch_size_sum"), 75.0)
        # A quantile series is not its histogram's _sum.
        self.assertEqual(
            series_total(series, "repro_request_latency_seconds_sum"),
            0.488753)
        self.assertEqual(series_total(series, "absent_total"), 0.0)

    def test_malformed_line_raises(self):
        with self.assertRaises(ValueError):
            parse_exposition("repro_requests_total{code=\"200\"\n")


class ResultLine(unittest.TestCase):
    def test_exact_keys(self):
        line = json.loads(json.dumps(
            result(True, 3, 0, {"a_ms": 1.5, "x": 2.0}, {"a_ms": "ms"})))
        self.assertEqual(set(line), {"correct", "attempted", "failed",
                                     "metrics"})
        self.assertEqual(line["metrics"], {"a_ms": {"value": 1.5,
                                                    "unit": "ms"}})

    def test_missing_metric_raises(self):
        with self.assertRaises(KeyError):
            result(True, 1, 0, {}, {"a_ms": "ms"})

    def test_combine_sums_counts_and_prefixes_metrics(self):
        a = result(True, 3, 0, {"x": 1.0}, {"x": "s"})
        b = result(False, 5, 2, {"x": 2.0}, {"x": "s"})
        both = combine({"a": a, "b": b})
        self.assertEqual((both["correct"], both["attempted"], both["failed"]),
                         (False, 8, 2))
        self.assertEqual(both["metrics"], {"a.x": {"value": 1.0, "unit": "s"},
                                           "b.x": {"value": 2.0, "unit": "s"}})


class ServeChecks(unittest.TestCase):
    def setUp(self):
        from serve import MISMATCH, check_responses
        self.check, self.mismatch = check_responses, MISMATCH
        self.ref = {0: np.array([[0.1, 0.2]]), 1: np.array([[1 / 3, 2.0]])}

    def reply(self, idx, pred=None, status=200, extra=""):
        pred = self.ref[idx] if pred is None else pred
        body = json.dumps({"prediction": np.asarray(pred).tolist()}) + extra
        return (idx, 0.0, 1.0, status, body.encode(), True)

    def run_check(self, responses):
        return self.check(responses, self.ref.__getitem__, (1, 2))

    def test_exact_replies_pass(self):
        preds, failures = self.run_check(
            [self.reply(0), self.reply(1), self.reply(1)])
        self.assertFalse(failures)
        self.assertTrue(np.array_equal(preds[1], self.ref[1]))

    def test_each_failure(self):
        responses = [
            self.reply(0, status=503),
            self.reply(0, pred=[[0.1, float("nan")]]),
            self.reply(0, pred=[[0.1, 0.2, 0.3]]),
            self.reply(1),
            self.reply(1, extra=" "),
            self.reply(0, pred=[[0.1, 0.2 + 2 ** -52]]),
        ]
        preds, failures = self.run_check(responses)
        self.assertEqual(failures["status 503"], 1)
        self.assertEqual(
            failures["not a finite forecast of the right shape"], 2)
        self.assertEqual(
            failures["bytes differ from another reply for its window"], 1)
        self.assertEqual(failures[self.mismatch], 1)
        self.assertEqual([p is None for p in preds],
                         [True, True, True, False, True, True])


    def test_fastest_slices(self):
        from serve import SLICE_S, fastest_slices
        # Eight whole slices; the third and sixth are fast (completions
        # 10 ms apart, 4 ms latency), the others slow (20 ms apart, 9 ms).
        # The partial slice at the end is left out.
        timed, t = [], 0.0
        for i in range(8):
            step, lat = (0.01, 0.004) if i in (2, 5) else (0.02, 0.009)
            ends = [t + step * (k + 0.5) for k in range(int(SLICE_S / step))]
            timed += [(0, end - lat, end) for end in ends]
            t += SLICE_S
        timed += [(0, t + 0.001 * k, t + 0.001 * (k + 1)) for k in range(999)]
        fast, rate = fastest_slices(timed, 0.0, 8.5 * SLICE_S)
        self.assertEqual(len(fast), 2 * int(SLICE_S / 0.01))
        self.assertAlmostEqual(rate, 100.0)
        self.assertAlmostEqual(max(fast), 4.0)
        self.assertAlmostEqual(min(fast), 4.0)


class GradCheck(unittest.TestCase):
    def test_agrees_with_autodiff_on_a_small_model(self):
        from repro.baselines import build_model
        from repro.utils import set_seed
        from train_round import GRAD_TOL, directional_grad_check
        set_seed(0)
        model = build_model("DLinear", seq_len=16, pred_len=4, c_in=2,
                            task="forecast", preset="tiny")
        rng = np.random.default_rng(0)
        x = rng.standard_normal((1, 16, 2))
        y = rng.standard_normal((1, 4, 2))
        self.assertLess(directional_grad_check(model, x, y, seed=0), GRAD_TOL)


if __name__ == "__main__":
    unittest.main()
