"""Tests of the benchmark itself.

    python3 -m unittest discover -s perfbench -p 'test_*.py'

Each workload runs for one second, untraced and traced; the metric names and
units it prints must be exactly those BENCHMARK.json lists. A run against a
deliberately perturbed reference must count every op as failed. Outside a
source tree the benchmark must fail without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload, trace, *extra, cwd=ROOT):
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace)] + list(extra)
    return subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=900)


def result_of(proc):
    return json.loads(proc.stdout.rstrip("\n").split("\n")[-1])


class MetricNamesTest(unittest.TestCase):
    def check(self, trace, metrics_spec):
        expected = {m["name"]: m["unit"] for m in metrics_spec}
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=trace):
                proc = run(workload, trace)
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed", "metrics"})
                self.assertTrue(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], 0)
                got = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(got, expected)
                for name, m in result["metrics"].items():
                    self.assertIsInstance(m["value"], (int, float), name)

    def test_end_to_end_metrics(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics(self):
        self.check(1, SPEC["per_layer"])


class PerturbedReferenceTest(unittest.TestCase):
    def test_every_op_fails(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = run(workload, 0, "--perturb-reference")
                self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
                result = result_of(proc)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["attempted"], 1)
                self.assertEqual(result["failed"], result["attempted"])


class OutsideSourceTreeTest(unittest.TestCase):
    def test_fails_without_result(self):
        lonely = os.path.join(ROOT, ".bench_build", "lonely")
        shutil.rmtree(lonely, ignore_errors=True)
        shutil.copytree(HERE, os.path.join(lonely, "perfbench"),
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), lonely)
        try:
            proc = run(WORKLOADS[0], 0, cwd=lonely)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(lonely, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
