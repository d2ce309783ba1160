#!/usr/bin/env python3
"""Self-tests of the host-speed benchmark. Run from the repository root:

    python3 -m unittest perfbench/test_bench.py

The smoke tests build the benchmark (see run.py) and run every workload
once at the default seed, untraced and traced (about two minutes).
"""

import copy
import json
import math
import subprocess
import sys
import unittest
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402  (the benchmark's entry script)

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]


def smoke(workload, trace):
    """The result line of a one-repetition run at the default seed."""
    done = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(run.DEFAULT_SEED), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])


class DeclarationTest(unittest.TestCase):
    def test_names_match_pattern_and_carry_units(self):
        names = WORKLOADS[:]
        for metric in DECLARED["end_to_end"] + DECLARED["per_layer"]:
            names.append(metric["name"])
            self.assertTrue(metric["unit"], metric["name"])
        for name in names:
            self.assertRegex(name, run.NAME_RE)
        self.assertEqual(len(names), len(set(names)))

    def test_design_predictions_name_declared_metrics(self):
        design = json.loads((BENCH_DIR / "design.json").read_text())
        layers = {m["name"] for m in DECLARED["per_layer"]}
        ends = {m["name"] for m in DECLARED["end_to_end"]}
        for p in design["predictions"]:
            self.assertIn(p["layer_metric"], layers)
            self.assertIn(p["end_to_end"], ends)
            self.assertIn(p["workload"], WORKLOADS)

    def test_expected_fingerprints_cover_every_workload(self):
        expected = json.loads((BENCH_DIR / "expected.json").read_text())
        self.assertEqual(expected["seed"], run.DEFAULT_SEED)
        self.assertEqual(sorted(expected["workloads"]), sorted(WORKLOADS))


class TimeoutTest(unittest.TestCase):
    def test_declared_run_ends_within_180_s(self):
        self.assertLessEqual(run.run_timeout_s(DECLARED["run_seconds"]), 170)

    def test_timeout_outlasts_any_timed_loop(self):
        for seconds in (1, 25, 150, 600):
            self.assertGreater(run.run_timeout_s(seconds), 2 * seconds)


class FingerprintTest(unittest.TestCase):
    REPORT = {"fingerprints": {
        "a": {"runs": 3, "offered": 10, "completed": 10, "shed": 0,
              "abandoned": 0, "sim_events": 20, "p99_s": 0.5,
              "energy_per_request_j": 0.25},
    }}
    EXPECTED = {"a": {"offered": 10, "completed": 10, "shed": 0,
                      "abandoned": 0, "sim_events": 20, "p99_s": 0.5,
                      "energy_per_request_j": 0.25}}

    def test_matching_fingerprint_passes(self):
        self.assertEqual(
            run.fingerprint_failures(self.REPORT, self.EXPECTED)[0], 0)

    def test_perturbed_fingerprint_fails_every_run(self):
        for field, value in (("sim_events", 21), ("p99_s", math.nextafter(
                0.5, 1.0)), ("energy_per_request_j", 0.25000001)):
            expected = copy.deepcopy(self.EXPECTED)
            expected["a"][field] = value
            failed, errors = run.fingerprint_failures(self.REPORT, expected)
            self.assertEqual(failed, 3, field)
            self.assertIn(field, errors[0])

    def test_unrecorded_scenario_fails(self):
        self.assertEqual(run.fingerprint_failures(self.REPORT, {})[0], 3)


class SmokeTest(unittest.TestCase):
    """One repetition of every workload, untraced and traced."""

    def check(self, result, declared):
        self.assertEqual(sorted(result),
                         ["attempted", "correct", "failed", "metrics"])
        self.assertTrue(result["correct"], result)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(
            {name: entry["unit"] for name, entry in result["metrics"].items()},
            {m["name"]: m["unit"] for m in declared})
        for name, entry in result["metrics"].items():
            self.assertRegex(name, run.NAME_RE)
            self.assertIsInstance(entry["value"], (int, float), name)

    def test_untraced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                result = smoke(workload, 0)
                self.check(result, DECLARED["end_to_end"])
                for entry in result["metrics"].values():
                    self.assertGreater(entry["value"], 0.0)

    def test_traced(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                self.check(smoke(workload, 1), DECLARED["per_layer"])


if __name__ == "__main__":
    unittest.main()
