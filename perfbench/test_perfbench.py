#!/usr/bin/env python3
"""Tests of the end-to-end benchmark itself.

Run from the repository root (builds the driver on first use; about two
minutes, most of it the short benchmark runs):

    python3 perfbench/test_perfbench.py
"""
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(*args, cwd=ROOT):
    return subprocess.run([*RUN, *args], cwd=cwd, capture_output=True,
                          text=True, timeout=600)


def result_of(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


def valid(**overrides):
    args = {"--workload": "metatrace-512", "--seed": "7", "--seconds": "1",
            "--trace": "0"}
    args.update(overrides)
    return [x for kv in args.items() for x in kv]


class ArgumentTest(unittest.TestCase):
    def assert_rejected(self, *args):
        proc = run(*args)
        self.assertEqual(proc.returncode, 2, proc.stderr)
        self.assertEqual(proc.stdout.strip(), "")
        self.assertIn("usage:", proc.stderr)

    def test_rejects_unknown_workload(self):
        self.assert_rejected(*valid(**{"--workload": "steady-512"}))

    def test_rejects_malformed_seeds(self):
        for seed in ["-1", "1.5", "12x", "", "0x10", "9007199254740993",
                     "99999999999999999999999"]:
            with self.subTest(seed=seed):
                self.assert_rejected(*valid(**{"--seed": seed}))

    def test_rejects_bad_seconds_and_trace(self):
        self.assert_rejected(*valid(**{"--seconds": "0"}))
        self.assert_rejected(*valid(**{"--seconds": "ten"}))
        self.assert_rejected(*valid(**{"--trace": "2"}))

    def test_rejects_missing_and_unknown_arguments(self):
        self.assert_rejected("--workload", "metatrace-512", "--seed", "1")
        self.assert_rejected(*valid(), "--fast")
        self.assert_rejected(*valid(), "--seed")

    def test_fails_without_the_program_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(ROOT / "perfbench", Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = run(*valid(), cwd=tmp)
            self.assertNotEqual(proc.returncode, 0)
            self.assertEqual(proc.stdout.strip(), "")


class MetricsTest(unittest.TestCase):
    def check_metrics(self, workload, trace, names):
        proc = run(*valid(**{"--workload": workload, "--trace": trace}))
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = result_of(proc)
        self.assertEqual(set(res), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(res["correct"])
        self.assertGreaterEqual(res["attempted"], 1)
        self.assertEqual(res["failed"], 0)
        self.assertEqual(set(res["metrics"]), set(names))
        for name, unit in names.items():
            m = res["metrics"][name]
            self.assertEqual(set(m), {"value", "unit"})
            self.assertEqual(m["unit"], unit, name)
            self.assertIsInstance(m["value"], (int, float))
        return res

    def test_every_workload_prints_every_metric_with_its_unit(self):
        end_to_end = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        per_layer = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
        for w in SPEC["workloads"]:
            with self.subTest(workload=w["name"], trace=0):
                res = self.check_metrics(w["name"], "0", end_to_end)
                self.assertEqual(res["metrics"]["pass_rate"]["value"], 1)
                for m in SPEC["end_to_end"]:
                    self.assertGreater(res["metrics"][m["name"]]["value"], 0)
            with self.subTest(workload=w["name"], trace=1):
                # correct also means the spans covered >= 95% of each pass.
                self.check_metrics(w["name"], "1", per_layer)

    def test_tampered_cube_fails_the_run(self):
        proc = run(*valid(), "--tamper-cube")
        self.assertNotEqual(proc.returncode, 0)
        res = result_of(proc)
        self.assertFalse(res["correct"])
        self.assertGreaterEqual(res["failed"], 1)
        self.assertLess(res["metrics"]["pass_rate"]["value"], 1)
        self.assertIn("analyze_serial reference", proc.stderr)


if __name__ == "__main__":
    unittest.main(verbosity=2)
