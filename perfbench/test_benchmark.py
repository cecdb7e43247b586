#!/usr/bin/env python3
"""Tests of the benchmark itself. Run from the repository root:

    python3 perfbench/test_benchmark.py

They check BENCHMARK.json against the result-line contract, run the
driver's own self-test (metric names, the percentile rule), check that
every run prints exactly the metrics BENCHMARK.json lists, and check that
a corrupted screen, a wrong checksum or a replay divergence each raise the
failure count. Runs are one second long, so this takes about a minute.
"""

import json
import os
import re
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parent
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def load_benchmark():
    with open(REPO_ROOT / "BENCHMARK.json") as f:
        return json.load(f)


def run(workload, trace=0, seconds=1, extra=(), env=None):
    """Runs one workload; returns (exit code, result object or None, stderr)."""
    command = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
               "--seed", "7", "--seconds", str(seconds), "--trace", str(trace),
               *extra]
    proc = subprocess.run(command, cwd=REPO_ROOT, capture_output=True,
                          text=True, env=env, timeout=600)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            result = None
    return proc.returncode, result, proc.stderr


class BenchmarkJsonTest(unittest.TestCase):
    def test_schema(self):
        bench = load_benchmark()
        self.assertEqual(set(bench), {"command", "paths", "run_seconds",
                                      "workloads", "end_to_end", "per_layer"})
        self.assertLessEqual(len(json.dumps(bench)), 64 * 1024)
        self.assertTrue(1 <= bench["run_seconds"] <= 60)
        self.assertIsInstance(bench["run_seconds"], int)
        for path in bench["paths"]:
            self.assertRegex(path, r"^[A-Za-z0-9_./-]{1,200}$")
            self.assertTrue((REPO_ROOT / path).is_dir(), path)
        self.assertTrue(2 <= len(bench["workloads"]) <= 8)
        for workload in bench["workloads"]:
            self.assertEqual(set(workload), {"name", "why"})
            self.assertRegex(workload["name"], NAME)
            self.assertLessEqual(len(workload["why"]), 200)
            self.assertNotIn("\n", workload["why"])

    def test_metric_names_unique_and_legal(self):
        bench = load_benchmark()
        names = [w["name"] for w in bench["workloads"]]
        for metric in bench["end_to_end"]:
            self.assertEqual(set(metric), {"name", "unit", "better", "bound"})
            self.assertLessEqual(metric["bound"], 0.25)
            self.assertGreater(metric["bound"], 0)
        for metric in bench["per_layer"]:
            self.assertEqual(set(metric), {"name", "unit", "better"})
        for metric in bench["end_to_end"] + bench["per_layer"]:
            self.assertRegex(metric["name"], NAME)
            self.assertRegex(metric["unit"], UNIT)
            self.assertIn(metric["better"], ("higher", "lower"))
            names.append(metric["name"])
        self.assertEqual(len(names), len(set(names)), "names must be unique")

    def test_setup_metric_has_the_largest_bound(self):
        bench = load_benchmark()
        setup = [m for m in bench["end_to_end"] if m["name"] == "setup_s"]
        self.assertEqual(len(setup), 1)
        self.assertEqual(setup[0]["unit"], "s")
        self.assertEqual(setup[0]["better"], "lower")
        self.assertEqual(setup[0]["bound"],
                         max(m["bound"] for m in bench["end_to_end"]))


class DriverTest(unittest.TestCase):
    def test_selftest(self):
        # Builds the driver through run.py first, then runs its self-test.
        code, _, err = run("gl_replay", seconds=0.2)
        self.assertEqual(code, 0, err)
        build = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
        if not build.is_absolute():
            build = REPO_ROOT / build
        proc = subprocess.run([str(build / "perfbench" / "perfbench_driver"),
                               "--selftest"], capture_output=True, text=True)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)

    def test_every_run_prints_exactly_the_listed_metrics(self):
        bench = load_benchmark()
        expected = {
            0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
            1: {m["name"]: m["unit"] for m in bench["per_layer"]},
        }
        for workload in [w["name"] for w in bench["workloads"]]:
            for trace in (0, 1):
                with self.subTest(workload=workload, trace=trace):
                    code, result, err = run(workload, trace=trace)
                    self.assertEqual(code, 0, err)
                    self.assertEqual(set(result), {"correct", "attempted",
                                                   "failed", "metrics"})
                    self.assertTrue(result["correct"], err)
                    self.assertEqual(result["failed"], 0, err)
                    self.assertGreaterEqual(result["attempted"], 1)
                    units = {name: metric["unit"]
                             for name, metric in result["metrics"].items()}
                    self.assertEqual(units, expected[trace])
                    if trace == 0:
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_refuses_cycada_environment(self):
        env = dict(os.environ, CYCADA_GPU_WORKERS="1")
        code, result, err = run("gl_replay", seconds=0.2, env=env)
        self.assertNotEqual(code, 0)
        self.assertIsNone(result)
        self.assertIn("CYCADA_GPU_WORKERS", err)


class OracleTest(unittest.TestCase):
    """A wrong output must show up in `failed` (and so in failed_ratio)."""

    def assert_fails(self, workload, inject):
        code, result, err = run(workload, extra=("--inject", inject))
        self.assertEqual(code, 0, err)
        self.assertFalse(result["correct"])
        self.assertGreater(result["failed"], 0)
        self.assertLessEqual(result["failed"], result["attempted"])

    def test_corrupted_passmark_screen(self):
        self.assert_fails("passmark_app", "screen")

    def test_corrupted_fleet_screen(self):
        self.assert_fails("fleet_4", "screen")

    def test_corrupted_page_screen(self):
        self.assert_fails("safari_sunspider", "screen")

    def test_wrong_script_checksum(self):
        self.assert_fails("safari_sunspider", "checksum")

    def test_replay_divergence(self):
        self.assert_fails("gl_replay", "replay")


if __name__ == "__main__":
    unittest.main(verbosity=2)
