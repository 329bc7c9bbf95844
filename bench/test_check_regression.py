#!/usr/bin/env python3
"""Unit tests for check_regression.py (stdlib unittest).

Run from the repository root: python3 bench/test_check_regression.py
"""
import json
import os
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check_regression  # noqa: E402


def doc(rows, build_type="Release"):
    """A Google Benchmark JSON document: rows are (name, cpu_time, run_type)."""
    return {
        "cmake_build_type": build_type,
        "benchmarks": [
            {"name": name, "run_type": run_type, "cpu_time": cpu,
             "time_unit": "ns"}
            for name, cpu, run_type in rows
        ],
    }


def repetitions(name, times):
    return [(name, t, "iteration") for t in times]


class BenchmarksByName(unittest.TestCase):
    def test_median_of_the_iteration_rows(self):
        rows = repetitions("BM_A", [100, 300, 110, 105, 95])
        rows.append(("BM_A_mean", 142.0, "aggregate"))
        self.assertEqual(check_regression.benchmarks_by_name(doc(rows)),
                         {"BM_A": (105.0, "ns")})

    def test_single_row_is_its_own_median(self):
        self.assertEqual(
            check_regression.benchmarks_by_name(
                doc([("BM_B", 42.0, "iteration")])),
            {"BM_B": (42.0, "ns")})


class Gate(unittest.TestCase):
    def run_gate(self, baseline_rows, fresh_rows):
        with tempfile.TemporaryDirectory() as tmp:
            for sub, rows in (("base", baseline_rows), ("fresh", fresh_rows)):
                os.mkdir(os.path.join(tmp, sub))
                with open(os.path.join(tmp, sub, "BENCH_x.json"), "w",
                          encoding="utf-8") as fh:
                    json.dump(doc(rows), fh)
            return subprocess.run(
                [sys.executable, os.path.join(HERE, "check_regression.py"),
                 "--baseline-dir", os.path.join(tmp, "base"),
                 "--fresh-dir", os.path.join(tmp, "fresh"),
                 "--tolerance", "0.10"],
                capture_output=True, text=True, check=False).returncode

    def test_an_outlier_last_repetition_does_not_fail_the_gate(self):
        base = repetitions("BM_A", [100, 101, 99])
        fresh = repetitions("BM_A", [100, 102, 500])
        self.assertEqual(self.run_gate(base, fresh), 0)

    def test_an_outlier_last_repetition_does_not_pass_the_gate(self):
        base = repetitions("BM_A", [100, 101, 99])
        fresh = repetitions("BM_A", [150, 160, 90])
        self.assertEqual(self.run_gate(base, fresh), 1)

    def test_a_slow_baseline_outlier_does_not_hide_a_regression(self):
        base = repetitions("BM_A", [100, 101, 400])
        fresh = repetitions("BM_A", [130, 131, 129])
        self.assertEqual(self.run_gate(base, fresh), 1)


if __name__ == "__main__":
    unittest.main()
