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


class TrajectoryTest(GuardTestBase):
    """The per-machine JSONL trajectory mode used by the artifact store."""

    def traj_path(self):
        return os.path.join(self.tmp.name, "bench", "ci-box.jsonl")

    def test_trajectory_requires_machine(self):
        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", baseline()),
            "--trajectory", self.traj_path(),
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("--machine", r.stderr)

    def test_first_run_creates_history(self):
        r = self.run_guard(
            self.write("report.json", bench_report()),
            self.write("baseline.json", baseline()),
            "--trajectory", self.traj_path(), "--machine", "ci-box",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no prior runs", r.stdout)
        with open(self.traj_path()) as f:
            entries = [json.loads(line) for line in f]
        self.assertEqual(len(entries), 1)
        self.assertEqual(entries[0]["machine"], "ci-box")
        self.assertAlmostEqual(entries[0]["ratio"], 4.0)

    def test_history_accumulates_and_drift_is_advisory(self):
        report = self.write("report.json", bench_report())
        base = self.write("baseline.json", baseline())
        for _ in range(3):
            r = self.run_guard(report, base, "--trajectory",
                               self.traj_path(), "--machine", "ci-box")
            self.assertEqual(r.returncode, 0, r.stderr)
        # Ratio jumps to 7x vs a 4.0 median: above the 1.5x drift limit
        # but below the 2x hard-fail limit, so advisory mode still
        # passes while naming the drift.
        drifted = self.write("drifted.json", bench_report(10.0, 70.0))
        r = self.run_guard(drifted, base, "--trajectory",
                           self.traj_path(), "--machine", "ci-box")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("DRIFT", r.stderr)
        with open(self.traj_path()) as f:
            self.assertEqual(len(f.readlines()), 4)

    def test_drift_enforced_is_exit_1(self):
        report = self.write("report.json", bench_report())
        base = self.write("baseline.json", baseline())
        self.run_guard(report, base, "--trajectory", self.traj_path(),
                       "--machine", "ci-box")
        drifted = self.write("drifted.json", bench_report(10.0, 70.0))
        r = self.run_guard(drifted, base, "--trajectory", self.traj_path(),
                           "--machine", "ci-box", "--trajectory-enforce")
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("DRIFT", r.stderr)

    def test_other_machines_history_is_ignored(self):
        report = self.write("report.json", bench_report())
        base = self.write("baseline.json", baseline())
        self.run_guard(report, base, "--trajectory", self.traj_path(),
                       "--machine", "other-box")
        # A 7x ratio would drift vs other-box's 4.0 median, but ci-box
        # has no history of its own so there is nothing to drift from.
        drifted = self.write("drifted.json", bench_report(10.0, 70.0))
        r = self.run_guard(drifted, base, "--trajectory", self.traj_path(),
                           "--machine", "ci-box", "--trajectory-enforce")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no prior runs", r.stdout)

    def test_corrupt_history_line_is_skipped_not_fatal(self):
        report = self.write("report.json", bench_report())
        base = self.write("baseline.json", baseline())
        self.run_guard(report, base, "--trajectory", self.traj_path(),
                       "--machine", "ci-box")
        with open(self.traj_path(), "a") as f:
            f.write('{"machine": "ci-box", "ratio": 4.')  # killed mid-append
        r = self.run_guard(report, base, "--trajectory", self.traj_path(),
                           "--machine", "ci-box")
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("skipped 1 unparseable", r.stderr)
        self.assertNotIn("Traceback", r.stderr)


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

    def test_null_walls_on_narrow_host_pass_with_trajectory(self):
        # bench_cluster_scale writes null for worker counts above the
        # host's CPUs; the guard and the trajectory append accept them.
        report = event_core_report(host_cpus=4, scale_eff=None)
        report["entries"][0]["scale_core_s"]["8"] = None
        traj = os.path.join(self.tmp.name, "bench", "ci-box.jsonl")
        r = self.run_guard(
            self.write("report.json", report),
            self.write("baseline.json", event_core_report()),
            "--event-core", "--trajectory", traj, "--machine", "ci-box",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("not enforced", r.stdout)
        self.assertIn("bench_guard: OK", r.stdout)
        with open(traj) as f:
            entries = [json.loads(line) for line in f]
        self.assertEqual(len(entries), 1)
        self.assertEqual(entries[0]["host_cpus"], 4)
        self.assertIsNone(entries[0]["scale_eff_8"])

    def test_good_scale_eff_passes_on_wide_host(self):
        r = self.run_guard(
            self.write("report.json",
                       event_core_report(host_cpus=16, scale_eff=0.8)),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scale efficiency", r.stdout)


class TrajectoryKindTest(GuardTestBase):
    """The 'kind' tag keeps DynAIS and event-core series separate in one
    per-machine history file; pre-tag rows default to dynais."""

    def traj_path(self):
        return os.path.join(self.tmp.name, "bench", "ci-box.jsonl")

    def test_event_core_rows_are_tagged(self):
        r = self.run_guard(
            self.write("report.json", event_core_report()),
            self.write("baseline.json", event_core_report()),
            "--event-core",
            "--trajectory", self.traj_path(), "--machine", "ci-box",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        with open(self.traj_path()) as f:
            entries = [json.loads(line) for line in f]
        self.assertEqual(entries[0]["kind"], "event_core")
        self.assertAlmostEqual(entries[0]["ratio"], 11.0)

    def test_series_do_not_mix(self):
        # Seed the file with an event-core row (ratio 11.0) and an
        # untagged legacy row (defaults to dynais, ratio 4.0); each mode
        # must see only its own series' median.
        os.makedirs(os.path.dirname(self.traj_path()))
        with open(self.traj_path(), "w") as f:
            f.write(json.dumps({"machine": "ci-box", "kind": "event_core",
                                "ratio": 11.0}) + "\n")
            f.write(json.dumps({"machine": "ci-box", "ratio": 4.0}) + "\n")
        r = self.run_guard(
            self.write("report.json", bench_report()),  # ratio 4.0
            self.write("baseline.json", baseline()),
            "--trajectory", self.traj_path(), "--machine", "ci-box",
            "--trajectory-enforce",
        )
        # Against a mixed median the 4.0 dynais ratio would pass or fail
        # arbitrarily; against its own 4.0 median it cleanly passes.
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("median ratio 4.00", r.stdout)
        r = self.run_guard(
            self.write("ec.json", event_core_report(speedup=11.0)),
            self.write("ecb.json", event_core_report(speedup=11.0)),
            "--event-core",
            "--trajectory", self.traj_path(), "--machine", "ci-box",
            "--trajectory-enforce",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("median speedup 11.00", r.stdout)

    def test_event_core_drift_is_falling_speedup(self):
        base = self.write("baseline.json", event_core_report(speedup=11.0))
        for _ in range(3):
            r = self.run_guard(
                self.write("report.json", event_core_report(speedup=11.0)),
                base, "--event-core",
                "--trajectory", self.traj_path(), "--machine", "ci-box",
            )
            self.assertEqual(r.returncode, 0, r.stderr)
        # 6.0x is above the 5.5x hard floor but below 11.0/1.5 = 7.3x:
        # drift (advisory) without a hard FAIL.
        r = self.run_guard(
            self.write("slow.json", event_core_report(speedup=6.0)),
            base, "--event-core",
            "--trajectory", self.traj_path(), "--machine", "ci-box",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("DRIFT", r.stderr)
        r = self.run_guard(
            self.write("slow.json", event_core_report(speedup=6.0)),
            base, "--event-core", "--trajectory", self.traj_path(),
            "--machine", "ci-box", "--trajectory-enforce",
        )
        self.assertEqual(r.returncode, 1, r.stderr)


if __name__ == "__main__":
    unittest.main()
