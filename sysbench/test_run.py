#!/usr/bin/env python3
"""Checks the benchmark's command-line contract on smoke-sized inputs.

    python3 sysbench/test_run.py      # from the repository root

Builds through run.py (into $CARGO_TARGET_DIR or .bench_build) and checks
that every workload finishes, that the result line carries exactly the
metrics BENCHMARK.json declares, with valid names and units, and that a
seed repeats its simulated results.
"""
import json
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def run(workload, seed=1, trace=0):
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "0", "--trace", str(trace),
         "--smoke"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.splitlines()
    return done.returncode, lines, json.loads(lines[-1])


class RunContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)

    def test_declared_names_are_valid(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for metric in self.spec[key]:
                self.assertRegex(metric["unit"], UNIT)

    def test_every_workload_reports_every_metric(self):
        for workload in (w["name"] for w in self.spec["workloads"]):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                code, _, result = run(workload, trace=trace)
                self.assertEqual(code, 0, workload)
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = {m["name"]: m["unit"] for m in self.spec[key]}
                reported = {k: v["unit"] for k, v in result["metrics"].items()}
                self.assertEqual(reported, declared, workload)

    def test_seed_repeats_simulated_results(self):
        sim = ("sim_p50_ms", "sim_tail_ms", "ok_frac")
        _, lines_a, a = run("paper-ctl", seed=4)
        _, lines_b, b = run("paper-ctl", seed=4)
        # The line naming the digests is the first after the host line.
        self.assertEqual(lines_a[1], lines_b[1])
        for name in sim:
            self.assertEqual(a["metrics"][name], b["metrics"][name])


if __name__ == "__main__":
    unittest.main()
