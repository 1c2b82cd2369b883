#!/usr/bin/env python3
"""Tests of the benchmark itself, on reduced inputs (--small).

    python3 perfbench/tests/test_perfbench.py

Run from the root of a source checkout; the first test builds the benchmark.
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(workload, trace, *extra, seed=3, cwd=ROOT, script=RUN):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace), *extra]
    proc = subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.splitlines()
    report = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc, report


class ReducedRuns(unittest.TestCase):
    def check_metrics(self, report, declared):
        expected = {m["name"]: m["unit"] for m in declared}
        printed = {name: m["unit"] for name, m in report["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in report["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric_with_its_unit(self):
        for workload in [w["name"] for w in SPEC["workloads"]]:
            for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc, report = run(workload, trace, "--small")
                    self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
                    self.assertIsNotNone(report, proc.stdout[-2000:])
                    self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
                    self.assertTrue(report["correct"])
                    self.assertEqual(report["failed"], 0)
                    self.assertGreaterEqual(report["attempted"], 1)
                    self.check_metrics(report, declared)
                    metrics = {k: v["value"] for k, v in report["metrics"].items()}
                    if trace == 0:
                        for name in metrics:
                            self.assertGreater(metrics[name], 0, name)
                    else:
                        self.assertGreaterEqual(metrics["bench.span_coverage"], 0.9)
                        self.assertGreater(metrics["bench.op_samples"], 0)

    def test_wrong_expectation_fails_the_op_and_the_run(self):
        proc, report = run("verify", 0, "--small", "--expect-wrong-holds")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNotNone(report)
        self.assertFalse(report["correct"])
        self.assertGreaterEqual(report["failed"], 1)
        self.assertIn("check failed", proc.stderr)

    def test_same_seed_same_counts(self):
        counts = []
        for _ in range(2):
            proc, report = run("verify", 1, "--small", seed=5)
            self.assertEqual(proc.returncode, 0, proc.stderr[-3000:])
            counts.append({k: v["value"] for k, v in report["metrics"].items()
                           if v["unit"] == "count" and k != "bench.op_samples"})
        self.assertEqual(counts[0], counts[1])
        self.assertGreater(counts[0]["mc.states"], 0)

    def test_without_sources_exits_nonzero_and_prints_no_result(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc, report = run("converge", 0, cwd=tmp, script=Path(tmp) / "perfbench" / "run.py")
        self.assertNotEqual(proc.returncode, 0)
        self.assertIsNone(report)
        self.assertEqual(proc.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main(verbosity=2)
