#!/usr/bin/env python3
"""The benchmark's own test.

Runs every workload in both modes, at the benchmark's own scale but for
one second (three short rounds), and checks that the result line names
exactly the metrics BENCHMARK.json lists, with their units, and that no
run failed. Then runs once against a deliberately wrong
expected output and checks that the failure is counted and the command
exits nonzero, which proves the output check can fail.

    python3 perfbench/test_perfbench.py
"""

import json
import math
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SHORT = ["--seconds", "1"]


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_bench(workload, trace, *extra):
    """Runs the benchmark; returns (exit code, parsed last stdout line)."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--trace", str(trace)] + SHORT + list(extra)
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result, done.stderr


class BenchmarkOutput(unittest.TestCase):
    spec = load_spec()

    def check_result(self, result, metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertEqual(set(result["metrics"]), {m["name"] for m in metrics})
        for m in metrics:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float), m["name"])
            self.assertTrue(math.isfinite(got["value"]), m["name"])
        self.assertGreaterEqual(result["attempted"], 1)

    def test_every_metric_on_every_workload(self):
        for w in self.spec["workloads"]:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=w["name"], trace=trace):
                    code, result, err = run_bench(w["name"], trace)
                    self.assertEqual(code, 0, err)
                    self.check_result(result, self.spec[key])
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)  # failed_frac 0
                    if trace == 0:
                        for name, m in result["metrics"].items():
                            self.assertGreater(m["value"], 0, name)
                    replay_bytes = result["metrics"].get("replay.log_bytes")
                    if replay_bytes is not None:
                        # The replay layer does work only on swim_replay.
                        self.assertEqual(replay_bytes["value"] > 0,
                                         w["name"] == "swim_replay")

    def test_wrong_expected_output_is_a_failure(self):
        for w in ("gcc_live", "swim_replay"):
            with self.subTest(workload=w):
                code, result, _ = run_bench(w, 0, "--wrong-reference", "1")
                self.assertNotEqual(code, 0)
                self.assertFalse(result["correct"])
                self.assertGreater(result["failed"], 0)
                self.assertLessEqual(result["failed"], result["attempted"])

    def test_bad_arguments_are_refused(self):
        cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
               "nope", "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn("metrics", done.stdout)


if __name__ == "__main__":
    unittest.main()
