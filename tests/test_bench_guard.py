#!/usr/bin/env python3
"""Regression tests for tools/bench_guard.py input validation.

The guard used to die with a bare KeyError / ZeroDivisionError traceback
on malformed inputs; every bad-input path must now exit 2 with a message
that names the offending file and key. Stdlib only, run via ctest:

    python3 tests/test_bench_guard.py
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
GUARD = os.path.join(REPO, "tools", "bench_guard.py")


def bench_report(push_ns=10.0, nonperiodic_ns=40.0, extra=None):
    benchmarks = [
        {"name": "BM_DynaisPush", "real_time": push_ns, "time_unit": "ns"},
        {
            "name": "BM_DynaisPushNonPeriodic",
            "real_time": nonperiodic_ns,
            "time_unit": "ns",
        },
    ]
    if extra:
        benchmarks.extend(extra)
    return {"benchmarks": benchmarks}


def baseline(push_ns=10.0, nonperiodic_ns=40.0):
    return {
        "post_pr": {
            "BM_DynaisPush_ns": push_ns,
            "BM_DynaisPushNonPeriodic_ns": nonperiodic_ns,
        }
    }


class GuardTestBase(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)

    def write(self, name, payload):
        path = os.path.join(self.tmp.name, name)
        with open(path, "w") as f:
            json.dump(payload, f)
        return path

    def run_guard(self, report, base, *extra_args):
        return subprocess.run(
            [sys.executable, GUARD, report, base, *extra_args],
            capture_output=True,
            text=True,
        )


class BenchGuardTest(GuardTestBase):
    def test_good_inputs_pass(self):
        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", baseline()),
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("bench_guard: OK", r.stdout)

    def test_regression_fails_with_exit_1(self):
        # Worst-case path now 20x the steady push vs 4x in the baseline.
        r = self.run_guard(
            self.write("report.json", bench_report(10.0, 200.0)),
            self.write("baseline.json", baseline(10.0, 40.0)),
        )
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("FAIL", r.stderr)

    def test_missing_report_benchmark_names_the_key(self):
        # Regression: used to be a bare KeyError traceback.
        report = {"benchmarks": [
            {"name": "BM_DynaisPush", "real_time": 10.0, "time_unit": "ns"}
        ]}
        r = self.run_guard(
            self.write("report.json", report),
            self.write("baseline.json", baseline()),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("BM_DynaisPushNonPeriodic", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_missing_post_pr_object_is_exit_2(self):
        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", {"pre_pr": {}}),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("post_pr", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_non_numeric_baseline_key_is_exit_2(self):
        bad = {"post_pr": {"BM_DynaisPush_ns": "fast",
                           "BM_DynaisPushNonPeriodic_ns": 40.0}}
        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", bad),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("BM_DynaisPush_ns", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_zero_steady_state_names_key_instead_of_dividing(self):
        # Regression: used to be a ZeroDivisionError traceback.
        r = self.run_guard(
            self.write("report.json", bench_report(push_ns=0.0)),
            self.write("baseline.json", baseline()),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("BM_DynaisPush", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", baseline(push_ns=0.0)),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("BM_DynaisPush_ns", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_unreadable_file_is_exit_2(self):
        r = self.run_guard(
            os.path.join(self.tmp.name, "missing.json"),
            self.write("baseline.json", baseline()),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("bad input", r.stderr)


def event_core_report(speedup=11.0, nodes=1000, host_cpus=1,
                      scale_eff=0.07, schema="event_core_baseline_v1"):
    """A minimal event_core_baseline_v1 document with one entry."""
    return {
        "schema": schema,
        "budget_per_node_w": 200,
        "busy_scale": 10,
        "host_cpus": host_cpus,
        "entries": [
            {
                "nodes": nodes,
                "islands": 8,
                "jobs": nodes // 2,
                "ref_core_s": 0.2,
                "event_core_s": 0.2 / speedup,
                "speedup_1t": speedup * 0.8,
                "speedup_core_1t": speedup,
                "scale_core_s": {"1": 0.02, "2": 0.02, "4": 0.03, "8": 0.04},
                "scale_eff_8": scale_eff,
            }
        ],
    }


class EventCoreGuardTest(GuardTestBase):
    """--event-core mode: speedup floor + host-gated scale efficiency."""

    def test_good_inputs_pass(self):
        r = self.run_guard(
            self.write("report.json", event_core_report(speedup=10.5)),
            self.write("baseline.json", event_core_report(speedup=11.0)),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("bench_guard: OK", r.stdout)
        self.assertIn("not enforced", r.stdout)  # 1-cpu host skips scaling

    def test_speedup_regression_fails_with_exit_1(self):
        # 11.0x baseline / 2.0 factor = 5.5x floor; 4.5x is below it.
        r = self.run_guard(
            self.write("report.json", event_core_report(speedup=4.5)),
            self.write("baseline.json", event_core_report(speedup=11.0)),
            "--event-core", "--min-speedup", "0",
        )
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("FAIL", r.stderr)
        self.assertIn("regressed", r.stderr)

    def test_absolute_min_speedup_fails_independently(self):
        # Within 2x of baseline but below the absolute floor.
        r = self.run_guard(
            self.write("report.json", event_core_report(speedup=3.0)),
            self.write("baseline.json", event_core_report(speedup=5.0)),
            "--event-core", "--min-speedup", "4.0",
        )
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("--min-speedup", r.stderr)

    def test_wrong_schema_is_exit_2(self):
        r = self.run_guard(
            self.write("report.json", event_core_report(schema="bogus_v0")),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("event_core_baseline_v1", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_disjoint_node_sizes_is_exit_2(self):
        r = self.run_guard(
            self.write("report.json", event_core_report(nodes=100)),
            self.write("baseline.json", event_core_report(nodes=1000)),
            "--event-core",
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("nodes", r.stderr)

    def test_scale_eff_enforced_only_on_wide_hosts(self):
        # Same poor efficiency: skipped on a 1-cpu host, fatal on 16 cpus.
        report_1cpu = self.write(
            "r1.json", event_core_report(host_cpus=1, scale_eff=0.07))
        report_16cpu = self.write(
            "r16.json", event_core_report(host_cpus=16, scale_eff=0.07))
        base = self.write("baseline.json", event_core_report())
        r = self.run_guard(report_1cpu, base, "--event-core")
        self.assertEqual(r.returncode, 0, r.stderr)
        r = self.run_guard(report_16cpu, base, "--event-core")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("scale efficiency", r.stderr)

    def test_null_walls_on_narrow_host_pass(self):
        # bench_cluster_scale writes null for worker counts above the
        # host's CPUs; the guard accepts them.
        report = event_core_report(host_cpus=4, scale_eff=None)
        report["entries"][0]["scale_core_s"]["8"] = None
        r = self.run_guard(
            self.write("report.json", report),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("not enforced", r.stdout)
        self.assertIn("bench_guard: OK", r.stdout)

    def test_good_scale_eff_passes_on_wide_host(self):
        r = self.run_guard(
            self.write("report.json",
                       event_core_report(host_cpus=16, scale_eff=0.8)),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scale efficiency", r.stdout)


if __name__ == "__main__":
    unittest.main()
