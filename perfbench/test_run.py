#!/usr/bin/env python3
"""Self-tests for the benchmark's own arithmetic.

    python3 perfbench/test_run.py

Covers failed_ratio counting, the throughput / set-up split and the
metric sets the final line carries. The last test
builds the driver and runs its --self-test, which covers the percentile
rule and the stability of the output digests.
"""

import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402


def batch(units=100.0, work_s=1.0, setup_s=(0.5,), ops=1, errors=0,
          digest="aa"):
    return {"units": units, "work_s": work_s, "setup_s": list(setup_s),
            "ops": ops, "errors": errors, "digest": digest}


class FailureCounting(unittest.TestCase):
    def test_clean_batches_fail_nothing(self):
        self.assertEqual(run.count_failures([batch(ops=3)] * 4), (12, 0))

    def test_errors_count_per_operation(self):
        got = run.count_failures([batch(ops=135, errors=2), batch(ops=135)])
        self.assertEqual(got, (270, 2))

    def test_odd_digest_fails_its_whole_batch(self):
        got = run.count_failures([batch(ops=3), batch(ops=3, digest="bb"),
                                  batch(ops=3)])
        self.assertEqual(got, (9, 3))

    def test_digests_compare_only_within_a_key(self):
        batches = [dict(batch(digest="a"), key="env0"),
                   dict(batch(digest="b"), key="env1"),
                   dict(batch(digest="a"), key="env0"),
                   dict(batch(digest="c"), key="env1"),
                   dict(batch(digest="b"), key="env1")]
        self.assertEqual(run.count_failures(batches), (5, 1))
        self.assertEqual(run.output_digest(batches), "a+b")

    def test_digest_tie_keeps_the_earliest(self):
        self.assertEqual(run.modal_digest([batch(digest="x"),
                                           batch(digest="y")]), "x")
        got = run.count_failures([batch(ops=2, errors=1, digest="x"),
                                  batch(ops=2, digest="y")])
        self.assertEqual(got, (4, 3))


class ThroughputAndSetup(unittest.TestCase):
    def test_setup_never_enters_throughput(self):
        rate, setup = run.throughput_and_setup(
            [batch(units=100, work_s=2.0, setup_s=(50.0,))])
        self.assertEqual(rate, 50.0)
        self.assertEqual(setup, 50.0)

    def test_medians_over_batches_and_samples(self):
        rate, setup = run.throughput_and_setup([
            batch(units=10, work_s=1.0, setup_s=(1.0, 9.0)),
            batch(units=30, work_s=1.0, setup_s=(2.0,)),
            batch(units=1000, work_s=1.0, setup_s=(3.0,)),
        ])
        self.assertEqual(rate, 30.0)
        self.assertEqual(setup, 2.5)


class MetricSets(unittest.TestCase):
    def raw(self):
        return {"workload": "facility_churn", "batches": [batch()],
                "peak_rss_kb": 2048,
                "layers": {"facility.core_s": 0.7}}

    def test_untraced_run_reports_every_end_to_end_metric(self):
        declared = run.declared_metrics()
        metrics, named, attempted, failed = run.reduce_run(
            self.raw(), 0, declared)
        self.assertEqual(set(metrics), {m["name"] for m in declared[0]})
        self.assertEqual(metrics["peak_rss_mb"]["value"], 2.0)
        raw = self.raw()
        raw["batches"] = [dict(batch(), peak_rss_kb=k)
                          for k in (3072, 0, 0)]
        self.assertEqual(run.peak_rss_mb(raw), 3.0)
        self.assertEqual(named["node_rounds_per_s"][0], 100.0)
        self.assertEqual(named["failed_ratio"][0], 0.0)
        self.assertEqual((attempted, failed), (1, 0))

    def test_traced_run_reports_every_per_layer_metric(self):
        declared = run.declared_metrics()
        metrics, named, _, _ = run.reduce_run(self.raw(), 1, declared)
        self.assertEqual(set(metrics), {m["name"] for m in declared[1]})
        self.assertEqual(metrics["facility.core_s"]["value"], 0.7)
        # A layer this workload does not reach did no work.
        self.assertEqual(metrics["dynais.events"]["value"], 0.0)
        # Traced batches mix inputs and worker counts: no timings named.
        self.assertEqual(set(named), {"failed_ratio"})


class DriverSelfTest(unittest.TestCase):
    def test_percentile_rule_and_digest_stability(self):
        driver = run.build(run.build_dir())
        out = subprocess.run([str(driver), "--self-test"],
                             capture_output=True, text=True, timeout=120)
        self.assertEqual(out.returncode, 0, out.stdout + out.stderr)


if __name__ == "__main__":
    unittest.main()
