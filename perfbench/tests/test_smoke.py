#!/usr/bin/env python3
"""Smoke-scale self-test of the repo benchmark.

    python3 perfbench/tests/test_smoke.py

Runs every workload at a tiny size for a couple of seconds, untraced and
traced -- those BENCHMARK.json lists and the extra clickstream-refresh --
and checks that the printed metric names and units are exactly the
ones BENCHMARK.json declares and that no operation failed. It also hands one
run a deliberately wrong expected answer and checks that the correctness
gate reports failures. Run it from the repository root; the first run
builds the benchmark.
"""
import json
import os
import subprocess
import sys
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
RUN = os.path.join(ROOT, "perfbench", "run.py")
SCALE = "0.05"
SECONDS = "2"
# Runnable by name but not in BENCHMARK.json (see perfbench/README.md).
EXTRA_WORKLOADS = ["clickstream-refresh"]


def run_bench(workload, trace, *extra):
    command = [sys.executable, RUN, "--workload", workload, "--seed", "3",
               "--seconds", SECONDS, "--trace", str(trace), "--scale", SCALE]
    command.extend(extra)
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                          timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s exited %d:\n%s" % (" ".join(command),
                                                    done.returncode, done.stderr[-3000:]))
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), done.stdout


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            cls.spec = json.load(handle)

    def expect_metrics(self, result, declared):
        printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
        self.assertEqual(printed, {m["name"]: m["unit"] for m in declared})
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_the_declared_metrics(self):
        names = [w["name"] for w in self.spec["workloads"]] + EXTRA_WORKLOADS
        for name in names:
            for trace, declared in ((0, self.spec["end_to_end"]),
                                    (1, self.spec["per_layer"])):
                with self.subTest(workload=name, trace=trace):
                    result, stdout = run_bench(name, trace)
                    self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(result["correct"], stdout[-3000:])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    self.expect_metrics(result, declared)

    def test_gate_reports_a_wrong_expected_answer(self):
        result, _ = run_bench("dense-deep", 0, "--inject-wrong-answer")
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])


if __name__ == "__main__":
    unittest.main()
