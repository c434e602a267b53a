"""Unit tests of run.py's helpers: python3 perfbench/run_test.py"""

import json
import unittest

import run


def rep(sim_value, host_value):
    return {"end_to_end": {
        "read_p50_s": {"value": sim_value, "unit": "s", "clock": "sim"},
        "host_s": {"value": host_value, "unit": "s", "clock": "host"},
    }}


class AggregateTest(unittest.TestCase):
    def test_sim_mean_over_sub_seeds_host_median_over_processes(self):
        reps = [rep(1.0, 5.0), rep(2.0, 1.0), rep(6.0, 2.0)]
        again = rep(1.0, 100.0)
        values, per_rep = run.aggregate(reps, reps + [again])
        self.assertEqual(values["read_p50_s"], 3.0)
        self.assertEqual(values["host_s"], 3.5)
        self.assertEqual(per_rep["read_p50_s"], [1.0, 2.0, 6.0])
        self.assertEqual(len(per_rep["host_s"]), 4)


class ResultLineTest(unittest.TestCase):
    def test_round_trip_keeps_every_digit_and_only_declared_metrics(self):
        values = {"read_p50_s": 309.09084712345678, "host_s": 0.1 + 0.2,
                  "extra": 1.0}
        units = [("read_p50_s", "s"), ("host_s", "s")]
        line = run.result_line(True, 12, 0, values, units)
        parsed = json.loads(line)
        self.assertEqual(set(parsed), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(list(parsed["metrics"]), ["read_p50_s", "host_s"])
        self.assertEqual(parsed["metrics"]["read_p50_s"]["value"],
                         values["read_p50_s"])
        self.assertEqual(parsed["metrics"]["host_s"]["value"], 0.1 + 0.2)
        self.assertEqual(parsed["metrics"]["host_s"]["unit"], "s")
        self.assertIs(parsed["correct"], True)
        self.assertEqual(parsed["attempted"], 12)


class RepCountTest(unittest.TestCase):
    def test_fixed_for_given_seconds_and_clamped(self):
        self.assertEqual(run.rep_count("ingest", 20), 12)
        self.assertEqual(run.rep_count("cold_read", 20), 9)
        self.assertEqual(run.rep_count("ingest", 1), run.MIN_REPS)
        self.assertEqual(run.rep_count("ingest", 600), run.MAX_REPS)

    def test_sub_seeds_differ_per_rep_and_per_seed(self):
        seeds = {run.sub_seed(s, r) for s in range(3) for r in range(10)}
        self.assertEqual(len(seeds), 30)


if __name__ == "__main__":
    unittest.main()
