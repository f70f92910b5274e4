"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

from run import PROBE_REF_S, end_to_end, per_layer
from stats import failed_share, layer_totals, median, quartile_spread, tail_percentile


class TailPercentile(unittest.TestCase):
    def test_exactly_ten_beyond(self):
        xs = list(range(1, 101))  # 1..100
        value, pct, n = tail_percentile(xs)
        self.assertEqual(value, 90)
        self.assertEqual(pct, 90.0)
        self.assertEqual(n, 100)
        self.assertEqual(sum(1 for x in xs if x > value), 10)

    def test_order_does_not_matter(self):
        xs = [5, 1, 9, 3, 7, 2, 8, 6, 4, 10, 11, 12, 0]
        self.assertEqual(tail_percentile(xs), tail_percentile(sorted(xs)))

    def test_ties_step_down(self):
        # the 11th largest ties with the 10th, so only 9 samples exceed it
        xs = [1.0] * 5 + [2.0] * 3 + [3.0] * 12
        value, pct, n = tail_percentile(xs)
        self.assertEqual(value, 2.0)
        self.assertEqual(pct, 40.0)
        self.assertGreaterEqual(sum(1 for x in xs if x > value), 10)

    def test_too_few_samples(self):
        self.assertIsNone(tail_percentile(range(10)))
        self.assertIsNone(tail_percentile([1.0] * 50))
        self.assertEqual(tail_percentile(range(11))[0], 0)

    def test_other_threshold(self):
        self.assertEqual(tail_percentile(range(100), beyond=1)[0], 98)


class SelfTime(unittest.TestCase):
    def test_nested(self):
        spans = [
            ("outer", 0.0, 10.0, -1, 0),
            ("mid", 1.0, 6.0, 0, 0),
            ("leaf", 2.0, 3.0, 1, 0),
            ("leaf", 4.0, 4.5, 1, 0),
            ("mid", 7.0, 9.0, 0, 0),
            ("outer", 12.0, 13.0, -1, 1),
        ]
        layers, covered = layer_totals(spans)
        self.assertEqual(layers["outer"], {"calls": 2, "total_s": 11.0, "self_s": 4.0})
        self.assertEqual(layers["mid"], {"calls": 2, "total_s": 7.0, "self_s": 5.5})
        self.assertEqual(layers["leaf"], {"calls": 2, "total_s": 1.5, "self_s": 1.5})
        self.assertEqual(covered, 11.0)
        total_self = sum(row["self_s"] for row in layers.values())
        self.assertEqual(total_self, covered)

    def test_skipped_spans_charged_nowhere(self):
        spans = [
            ("f", 0.0, 4.0, -1, 0),
            ("tracer", 1.0, 2.0, 0, 0),
            ("tracer", 5.0, 6.0, -1, 0),
        ]
        layers, covered = layer_totals(spans, skip=("tracer",))
        self.assertEqual(layers, {"f": {"calls": 1, "total_s": 4.0, "self_s": 3.0}})
        self.assertEqual(covered, 4.0)


def _round(rows, rss=1024, setup=0.5, probe=PROBE_REF_S):
    return {"setup_s": setup, "peak_rss_kb": rss, "items": rows, "probes": [probe]}


class FailedShare(unittest.TestCase):
    def test_counts_failures_over_attempts(self):
        self.assertEqual(failed_share([True, False, True, True]), 0.25)
        self.assertEqual(failed_share([1, 1]), 0.0)
        with self.assertRaises(ValueError):
            failed_share([])

    def test_end_to_end_counts_every_round(self):
        # rows: (id, label, latency_s, passed, decided, note)
        ok = [[i, "x", 0.01 * (i + 1), True, True, ""] for i in range(12)]
        bad = [[12, "x", 0.5, False, False, "raised"], [13, "x", 0.5, False, True, "check"]]
        setups = [{"setup_s": s, "probes": [PROBE_REF_S]} for s in (0.4, 0.5, 0.6)]
        metrics, notes = end_to_end([_round(ok), _round(bad, rss=2048)], setups)
        self.assertEqual(notes["failed_share"], 2 / 14)
        self.assertEqual(metrics["decided_share"], 13 / 14)
        self.assertEqual(metrics["setup_s"], 0.5)
        self.assertEqual(metrics["peak_rss_mb"], 2.0)
        # median over rounds of items / summed latency
        self.assertAlmostEqual(metrics["items_per_s"], median([12 / 0.78, 2 / 1.0]))
        self.assertEqual(notes["latency_samples"], 14)

    def test_per_layer_failed_share_and_overhead(self):
        rows = [[0, "check", 0.2, True, True, ""], [1, "parse", 0.1, False, True, "x"]]
        traced = _round([[0, "check", 0.3, True, True, ""], [1, "parse", 0.2, True, True, ""]])
        traced["trace"] = {
            "layers": {"search.prove": {"calls": 1, "total_s": 0.4, "self_s": 0.1}},
            "covered_s": 0.4,
            "counts": {k: 0 for k in ("parse_nodes", "check_nodes", "cut_steps", "cut_nodes_in",
                                      "cut_nodes_out", "interpretations", "cap_hits",
                                      "probe_hits", "verdicts.proved", "verdicts.refuted",
                                      "verdicts.unknown")},
            "unknown_s": 0.0,
        }
        m = per_layer(_round(rows), traced)
        self.assertEqual(m["failed_share"], 0.25)
        self.assertAlmostEqual(m["trace.overhead_s"], 0.2)
        self.assertAlmostEqual(m["trace.uncovered_share"], 0.2)
        self.assertEqual(m["search.prove.self_s"], 0.1)
        self.assertEqual(m["cli.check.ms"], 200.0)
        self.assertEqual(m["kernel.check_proof.calls"], 0)


class HostSpeed(unittest.TestCase):
    def test_times_scaled_by_probe_slowdown(self):
        rows = [[i, "x", 0.01 * (i + 1), True, True, ""] for i in range(12)]
        fast = end_to_end([_round(rows)], [{"setup_s": 0.5, "probes": [PROBE_REF_S]}])
        # the same work on a host running at half speed takes twice as long
        slow_rows = [[i, "x", 2 * r[2], True, True, ""] for i, r in enumerate(rows)]
        slow = end_to_end(
            [_round(slow_rows, probe=2 * PROBE_REF_S)],
            [{"setup_s": 1.0, "probes": [2 * PROBE_REF_S, 2 * PROBE_REF_S, 9.0]}],
        )
        for name, value in fast[0].items():
            self.assertAlmostEqual(slow[0][name], value, msg=name)
        self.assertEqual(slow[1]["host_slowdown"], 2.0)
        self.assertAlmostEqual(slow[1]["raw_latency_p50_ms"], 2 * fast[1]["raw_latency_p50_ms"])
        self.assertAlmostEqual(slow[1]["raw_items_per_s"], fast[1]["raw_items_per_s"] / 2)


class Spread(unittest.TestCase):
    def test_quartile_spread(self):
        self.assertAlmostEqual(quartile_spread([1, 2, 3, 4, 5, 6, 7, 8, 9, 10]), 5.5 / 5.5)
        self.assertEqual(quartile_spread([2.0] * 10), 0.0)


if __name__ == "__main__":
    unittest.main()
