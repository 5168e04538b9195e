"""Smoke test of the benchmark itself, on the n=3 analogue workloads.

Run from the root of a checkout (takes well under a minute)::

    python3 benchmarks/smoke_test.py

It checks that the fingerprint gate passes on correct output, that a
tampered golden value makes the run count as failed, that a traced run
reports every per-layer metric BENCHMARK.json lists, and that a directory
holding only BENCHMARK.json and the benchmark fails without a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(HERE, "out", "smoke")
ANALOGUES = ("pairs-ps3", "interim-ps3", "oe-rp3", "lrobic-rp3")


def bench(*argv, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join("benchmarks", "run.py"), *argv],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def result(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        os.makedirs(SCRATCH, exist_ok=True)
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            cls.spec = json.load(fh)
        with open(os.path.join(HERE, "golden.json"), encoding="utf-8") as fh:
            cls.golden = json.load(fh)

    def test_gate_passes_on_correct_output(self):
        for name in ANALOGUES:
            with self.subTest(workload=name):
                out = result(bench("--workload", name, "--seed", "3",
                                   "--seconds", "0.5", "--trace", "0"))
                self.assertTrue(out["correct"])
                self.assertEqual(out["failed"], 0)
                self.assertGreaterEqual(out["attempted"], 1)
                expected = {m["name"]: m["unit"] for m in self.spec["end_to_end"]}
                self.assertEqual(
                    {k: v["unit"] for k, v in out["metrics"].items()}, expected
                )
                self.assertTrue(all(v["value"] > 0 for v in out["metrics"].values()))

    def test_tampered_golden_counts_as_failed(self):
        tampered = json.loads(json.dumps(self.golden))
        tampered["pairs-ps3"]["outcomes"][2][2] += 1  # li violation count
        tampered["lrobic-rp3"]["verdict"] = "violated"
        path = os.path.join(SCRATCH, "tampered.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(tampered, fh)
        for name in ("pairs-ps3", "lrobic-rp3"):
            with self.subTest(workload=name):
                out = result(bench("--workload", name, "--seed", "3",
                                   "--seconds", "0.5", "--golden", path))
                self.assertFalse(out["correct"])
                self.assertEqual(out["failed"], out["attempted"])

    def test_traced_run_reports_every_layer_metric(self):
        out = result(bench("--workload", "interim-ps3", "--seed", "3",
                           "--seconds", "0.5", "--trace", "1"))
        self.assertTrue(out["correct"])
        expected = {m["name"]: m["unit"] for m in self.spec["per_layer"]}
        self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, expected)

    def test_bare_directory_fails_without_result(self):
        bare = os.path.join(SCRATCH, "bare")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "benchmarks"),
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        proc = bench("--workload", "pairs-ps4", "--seed", "1", "--seconds", "1",
                     cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn("correct", proc.stdout)


if __name__ == "__main__":
    unittest.main()
