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


def dither_lanes(scalar_ns, dispatched_ns, variant, all_counted_ns=None):
    """The report's DitherLanes cases at 26 lanes: the campaign mix timed
    scalar and dispatched, and all lanes counted on the dispatched
    variant (1.3x the mix when not given)."""
    if all_counted_ns is None:
        all_counted_ns = 1.3 * dispatched_ns
    return [
        {"name": "BM_DitherLanes/lanes:26/dispatched:0/all_counted:0",
         "real_time": scalar_ns, "time_unit": "ns", "label": "scalar"},
        {"name": "BM_DitherLanes/lanes:26/dispatched:1/all_counted:0",
         "real_time": dispatched_ns, "time_unit": "ns", "label": variant},
        {"name": "BM_DitherLanes/lanes:26/dispatched:1/all_counted:1",
         "real_time": all_counted_ns, "time_unit": "ns", "label": variant},
    ]


def dither_baseline(all_counted=None, **floor):
    base = baseline()
    if all_counted is None:
        all_counted = {"avx512": 1.15, "avx2": 1.15}
    base["dither_lanes"] = {"floor": floor, "all_counted_floor": all_counted}
    return base


class DitherLanesGuardTest(GuardTestBase):
    def guard(self, scalar_ns, dispatched_ns, variant, base,
              all_counted_ns=None, drop=None):
        cases = dither_lanes(scalar_ns, dispatched_ns, variant,
                             all_counted_ns)
        if drop is not None:
            cases = [c for c in cases if not c["name"].endswith(drop)]
        return self.run_guard(
            self.write("report.json", bench_report(extra=cases)),
            self.write("baseline.json", base),
        )

    def test_vector_variant_above_its_floor_passes(self):
        r = self.guard(9000.0, 3000.0, "avx512",
                       dither_baseline(avx512=1.5, avx2=1.1))
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scalar/avx512 at 26 lanes = 3.00x", r.stdout)
        self.assertIn("all-counted/mix (avx512) at 26 lanes = 1.30x",
                      r.stdout)

    def test_vector_variant_below_its_floor_fails(self):
        r = self.guard(9000.0, 8500.0, "avx2",
                       dither_baseline(avx512=1.5, avx2=1.1))
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("avx2 dither kernel", r.stderr)

    def test_every_lane_counted_fails_the_step_only_floor(self):
        # A kernel that counts every lane runs the mix no faster than all
        # lanes counted: above the scalar floor, below the step-only one.
        r = self.guard(9000.0, 3000.0, "avx512",
                       dither_baseline(avx512=1.5, avx2=1.1),
                       all_counted_ns=3050.0)
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("all-counted/mix (avx512) at 26 lanes = 1.02x",
                      r.stdout)
        self.assertIn("step-only", r.stderr)

    def test_step_only_floor_holds_for_avx2_too(self):
        r = self.guard(9000.0, 4000.0, "avx2",
                       dither_baseline(avx512=1.5, avx2=1.1),
                       all_counted_ns=4800.0)
        self.assertEqual(r.returncode, 0, r.stderr)
        r = self.guard(9000.0, 4000.0, "avx2",
                       dither_baseline(avx512=1.5, avx2=1.1),
                       all_counted_ns=4400.0)
        self.assertEqual(r.returncode, 1, r.stderr)

    def test_missing_all_counted_case_is_exit_2(self):
        r = self.guard(9000.0, 3000.0, "avx512",
                       dither_baseline(avx512=1.5, avx2=1.1),
                       drop="all_counted:1")
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("all_counted:1", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_missing_all_counted_floor_is_exit_2(self):
        r = self.guard(9000.0, 3000.0, "avx512",
                       dither_baseline(all_counted={"avx2": 1.15},
                                       avx512=1.5, avx2=1.1))
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("dither_lanes.all_counted_floor.avx512", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_scalar_runner_prints_a_notice(self):
        r = self.guard(9000.0, 9000.0, "scalar", dither_baseline())
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("notice", r.stdout)

    def test_missing_floor_for_the_variant_is_exit_2(self):
        r = self.guard(9000.0, 3000.0, "avx512", dither_baseline(avx2=1.1))
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("dither_lanes.floor.avx512", r.stderr)
        self.assertNotIn("Traceback", r.stderr)


def noise_lanes(scalar_ns, dispatched_ns, variant):
    return [
        {"name": "BM_NoiseLanes/lanes:16/dispatched:0",
         "real_time": scalar_ns, "time_unit": "ns", "label": "scalar"},
        {"name": "BM_NoiseLanes/lanes:16/dispatched:1",
         "real_time": dispatched_ns, "time_unit": "ns", "label": variant},
    ]


class NoiseLanesGuardTest(GuardTestBase):
    def guard(self, scalar_ns, dispatched_ns, variant, floor):
        base = baseline()
        base["noise_lanes"] = {"floor": floor}
        return self.run_guard(
            self.write("report.json", bench_report(
                extra=noise_lanes(scalar_ns, dispatched_ns, variant))),
            self.write("baseline.json", base),
        )

    def test_vector_variant_above_its_floor_passes(self):
        r = self.guard(2600.0, 1300.0, "avx512", {"avx512": 1.3})
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("noise lanes scalar/avx512 at 16 lanes = 2.00x",
                      r.stdout)

    def test_vector_variant_below_its_floor_fails(self):
        r = self.guard(2600.0, 2500.0, "avx512", {"avx512": 1.3})
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("avx512 noise kernel", r.stderr)

    def test_cpu_without_avx512dq_prints_a_notice(self):
        r = self.guard(2600.0, 2600.0, "scalar", {"avx512": 1.3})
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("no vector noise variant", r.stdout)

    def test_missing_floor_is_exit_2(self):
        r = self.guard(2600.0, 1300.0, "avx512", {})
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("noise_lanes.floor.avx512", r.stderr)
        self.assertNotIn("Traceback", r.stderr)


def event_core_report(speedup=4.7, nodes=10000, host_cpus=4,
                      scale=2.3, schema="event_core_baseline_v2"):
    """A minimal event_core_baseline_v2 document with one entry."""
    workers = max(1, min(4, host_cpus))
    par = None if scale is None else {"median": 0.33 / scale, "min": 0.3}
    return {
        "schema": schema,
        "budget_per_node_w": 200,
        "busy_scale": 10,
        "host_cpus": host_cpus,
        "repeats": 5,
        "workers": workers,
        "entries": [
            {
                "nodes": nodes,
                "islands": 8,
                "jobs": nodes // 2,
                "ref_core_s": {"median": 0.33 * speedup, "min": 1.5},
                "event_core_s": {"median": 0.33, "min": 0.3},
                "event_core_workers_s": par,
                "speedup_core_1t": speedup,
                "speedup_core_1t_min": speedup * 1.1,
                "scale_speedup": scale,
            }
        ],
    }


class EventCoreGuardTest(GuardTestBase):
    """--event-core mode: speedup floor + host-gated worker scaling."""

    def test_good_inputs_pass(self):
        r = self.run_guard(
            self.write("report.json", event_core_report(speedup=4.5)),
            self.write("baseline.json", event_core_report(speedup=4.7)),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("scaling 1 -> 4 workers", r.stdout)
        self.assertIn("bench_guard: OK", r.stdout)

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
        # Within 2x of the baseline but below the default 2.5x floor.
        r = self.run_guard(
            self.write("report.json", event_core_report(speedup=2.4)),
            self.write("baseline.json", event_core_report(speedup=4.7)),
            "--event-core",
        )
        self.assertEqual(r.returncode, 1, r.stderr)
        self.assertIn("--min-speedup", r.stderr)

    def test_wrong_schema_is_exit_2(self):
        # A v1 report (single-run walls, 8-worker efficiency) is refused.
        r = self.run_guard(
            self.write("report.json",
                       event_core_report(schema="event_core_baseline_v1")),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("event_core_baseline_v2", r.stderr)
        self.assertNotIn("Traceback", r.stderr)

    def test_disjoint_node_sizes_is_exit_2(self):
        r = self.run_guard(
            self.write("report.json", event_core_report(nodes=100)),
            self.write("baseline.json", event_core_report(nodes=10000)),
            "--event-core",
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("nodes", r.stderr)

    def test_serial_scaling_fails_on_multi_cpu_hosts(self):
        # A serialised chunk claim scales ~1x: fatal on 2 and 4 CPUs.
        base = self.write("baseline.json", event_core_report())
        for cpus in (2, 4):
            r = self.run_guard(
                self.write("r.json",
                           event_core_report(host_cpus=cpus, scale=1.05)),
                base, "--event-core")
            self.assertEqual(r.returncode, 1, r.stderr)
            self.assertIn("scaling", r.stderr)

    def test_null_scaling_on_one_cpu_passes(self):
        # bench_cluster_scale writes null scaling walls on a 1-CPU host;
        # the guard accepts them and says scaling was not enforced.
        r = self.run_guard(
            self.write("report.json",
                       event_core_report(host_cpus=1, scale=None)),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 0, r.stderr)
        self.assertIn("not enforced", r.stdout)
        self.assertIn("bench_guard: OK", r.stdout)

    def test_missing_scaling_on_multi_cpu_host_is_exit_2(self):
        r = self.run_guard(
            self.write("report.json",
                       event_core_report(host_cpus=4, scale=None)),
            self.write("baseline.json", event_core_report()),
            "--event-core",
        )
        self.assertEqual(r.returncode, 2, r.stderr)
        self.assertIn("scale_speedup", r.stderr)
        self.assertNotIn("Traceback", r.stderr)


if __name__ == "__main__":
    unittest.main()
