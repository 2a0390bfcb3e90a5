#!/usr/bin/env python3
"""Self-test of the soid benchmark, on its smoke mode (a small city, a
24-query pool, two rounds; seconds per run).

    python3 perfbench/test_perfbench.py     # from the repository root

Checks that
  * every workload prints a well-formed result line that passes the
    correctness gate, with every per-layer metric BENCHMARK.json names;
  * two traced runs with one seed give identical exact counts: the
    algo.* work counters and the eps-cache hit ratio of the
    single-connection replay, and the ingest batch counts;
  * another seed changes the request sequence.
"""

import json
import os
import subprocess
import sys
import unittest

RUN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
WORKLOADS = ("serve-warm", "eps-churn", "live-ingest")
EXACT = ("algo.poi_distance_checks", "algo.cells_popped",
         "algo.segments_seen", "algo.segments_finalized", "algo.iterations",
         "engine.cache_hit_ratio", "engine.cache_evictions",
         "ingest.batches_applied", "ingest.batches_rejected")


def smoke(workload, seed, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError("%s seed %d exited %d:\n%s" % (
            workload, seed, proc.returncode, proc.stderr[-2000:]))
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = {}
    for line in lines[:-1]:
        parts = line.split()
        if len(parts) == 4 and parts[0] == "info":
            info[parts[1]] = parts[3]
    return result, info


class PerfbenchSmokeTest(unittest.TestCase):

    def test_result_line_and_untraced_metrics(self):
        result, info = smoke("serve-warm", 1, 0)
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)
        self.assertEqual(info["requests_failed"], "0")

    def test_traced_counts_repeat_exactly_per_seed(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                first, _ = smoke(workload, 5, 1)
                second, _ = smoke(workload, 5, 1)
                self.assertTrue(first["correct"] and second["correct"])
                for name in EXACT:
                    self.assertEqual(first["metrics"][name],
                                     second["metrics"][name], name)
                self.assertEqual(first["metrics"]["ingest.batches_rejected"]
                                 ["value"], 0)
                self.assertEqual(first["metrics"]["serve.errors"]["value"],
                                 0)

    def test_other_seed_changes_the_sequence(self):
        _, one = smoke("eps-churn", 1, 0)
        _, two = smoke("eps-churn", 2, 0)
        self.assertNotEqual(one["sequence_fingerprint_low32"],
                            two["sequence_fingerprint_low32"])


if __name__ == "__main__":
    unittest.main()
