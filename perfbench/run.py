#!/usr/bin/env python3
"""Repo benchmark: builds the simulator from source, runs one workload in
its own process, checks its outputs and prints every metric.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--jobs N]
    python3 perfbench/run.py --workload all --seed N --seconds S

Workloads: paper_campaign and facility_churn (see README.md beside this
file). The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: the BENCHMARK.json end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1. Each result,
with its seed and host metadata, is also written under the build
directory's results/ folder.

The build directory is $CARGO_TARGET_DIR when set, else .bench_build, both
relative to the repository root; everything the benchmark writes stays
inside it.
"""

import argparse
import collections
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper_campaign", "facility_churn")
# The user-facing name of each workload's throughput (work_per_s).
THROUGHPUT = {
    "paper_campaign": ("slots_per_s", "slots/s"),
    "facility_churn": ("node_rounds_per_s", "node-rounds/s"),
}
DRIVER_TIMEOUT_S = 170
MAX_WORKERS = 4


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def host_cpus():
    return len(os.sched_getaffinity(0))


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return path if path.is_absolute() else ROOT / path


def build(bdir):
    """Configure once, then build incrementally; returns the driver path.
    Raises CalledProcessError when the sources are missing or broken."""
    tmp = bdir / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, env=env, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(bdir), "-j", str(host_cpus())],
                   check=True, env=env, stdout=sys.stderr)
    return bdir / "perfbench_driver"


def declared_metrics():
    with open(ROOT / "BENCHMARK.json") as f:
        bench = json.load(f)
    return bench["end_to_end"], bench["per_layer"]


def modal_digest(batches):
    """The digest most batches agree on (ties: the earliest)."""
    counts = collections.Counter(b["digest"] for b in batches)
    best = max(counts.values())
    return next(b["digest"] for b in batches if counts[b["digest"]] == best)


def output_digest(batches):
    """One digest for the run: each input key's modal digest, combined."""
    keys = sorted({b.get("key", "") for b in batches})
    if len(keys) == 1:
        return modal_digest(batches)
    return "+".join(modal_digest([b for b in batches if b.get("key", "") == k])
                    for k in keys)


def count_failures(batches):
    """(attempted, failed) operations. A batch whose digest differs from
    the others with the same input key fails every operation it
    attempted; otherwise its own errors (exceptions, violations) count."""
    refs = {}
    for key in {b.get("key", "") for b in batches}:
        refs[key] = modal_digest([b for b in batches
                                  if b.get("key", "") == key])
    attempted = sum(b["ops"] for b in batches)
    failed = sum(b["ops"] if b["digest"] != refs[b.get("key", "")]
                 else b["errors"] for b in batches)
    return attempted, failed


def throughput_and_setup(batches):
    """Median work units per second of timed work, and the median set-up
    sample. Set-up time never enters the throughput."""
    rates = [b["units"] / b["work_s"] for b in batches if b["work_s"] > 0]
    setups = [s for b in batches for s in b["setup_s"]]
    return statistics.median(rates), statistics.median(setups)


def peak_rss_mb(raw):
    """Peak RSS after the first batch, which ran in a fresh process; the
    process-lifetime peak when the first batch threw."""
    first = raw["batches"][0].get("peak_rss_kb") or raw["peak_rss_kb"]
    return first / 1024.0


def reduce_run(raw, trace, declared):
    """Metrics for the final line plus the user-facing named set. A traced
    run mixes batches of other inputs and worker counts, so its named set
    is failed_ratio alone."""
    end_to_end, per_layer = declared
    attempted, failed = count_failures(raw["batches"])
    named = {"failed_ratio": (failed / attempted if attempted else 1.0,
                              "ratio")}
    if trace:
        values = raw["layers"]
        metrics = {m["name"]: {"value": values.get(m["name"], 0.0),
                               "unit": m["unit"]} for m in per_layer}
        return metrics, named, attempted, failed
    rate, setup = throughput_and_setup(raw["batches"])
    peak_mb = peak_rss_mb(raw)
    named.update({
        "setup_s": (setup, "s"),
        THROUGHPUT[raw["workload"]][0]: (rate, THROUGHPUT[raw["workload"]][1]),
        "peak_rss_mb": (peak_mb, "MB"),
    })
    values = {"setup_s": setup, "work_per_s": rate, "peak_rss_mb": peak_mb}
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in end_to_end}
    return metrics, named, attempted, failed


def run_workload(driver, bdir, workload, seed, seconds, trace, jobs, declared):
    work = bdir / "work" / workload
    out = bdir / "results" / f"raw-{workload}-seed{seed}-trace{trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    if out.exists():
        out.unlink()
    cmd = [str(driver), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--jobs", str(jobs),
           "--trace", str(trace), "--work-dir", str(work), "--out", str(out)]
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))
    subprocess.run(cmd, check=True, env=env, stdout=sys.stderr,
                   timeout=DRIVER_TIMEOUT_S)
    with open(out) as f:
        raw = json.load(f)

    metrics, named, attempted, failed = reduce_run(raw, trace, declared)
    problems = list(raw["notes"])
    undeclared = set(raw["layers"]) - {m["name"] for m in declared[1]}
    problems += [f"per-layer metric {n} is not in BENCHMARK.json"
                 for n in sorted(undeclared)]
    correct = failed == 0 and not problems
    meta = {
        "workload": workload, "seed": seed, "trace": trace,
        "host_cpus": raw["host_cpus"], "workers": raw["jobs"],
        "build_type": raw["build_type"], "compiler": raw["compiler"],
        "git_describe": raw["git_describe"],
        "output_digest": output_digest(raw["batches"]),
        "batches": len(raw["batches"]), "problems": problems,
    }
    result = {"meta": meta, "named": {k: v for k, (v, _) in named.items()},
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    with open(bdir / "results" / f"{workload}-seed{seed}-trace{trace}.json",
              "w") as f:
        json.dump(result, f, indent=1)

    for name, (value, unit) in named.items():
        print(f"{workload} {name} = {value:.6g} {unit}")
    for name, m in metrics.items():
        print(f"{workload} {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"meta": meta}))
    return correct, attempted, failed, metrics


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True,
                   choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--jobs", type=int, default=0,
                   help="worker threads (default min(4, host cpus))")
    args = p.parse_args(argv)
    cpus = host_cpus()
    jobs = args.jobs or min(MAX_WORKERS, cpus)
    if not 1 <= jobs <= cpus:
        log(f"run.py: {jobs} workers on {cpus} host cpus; scaling measured "
            "with more workers than cores is not a result")
        return 2

    bdir = build_dir()
    try:
        declared = declared_metrics()
        driver = build(bdir)
        if args.workload != "all":
            correct, attempted, failed, metrics = run_workload(
                driver, bdir, args.workload, args.seed, args.seconds,
                args.trace, jobs, declared)
        else:
            correct, attempted, failed, metrics = True, 0, 0, {}
            for w in WORKLOADS:
                c, a, f, m = run_workload(driver, bdir, w, args.seed,
                                          args.seconds, args.trace, jobs,
                                          declared)
                correct, attempted, failed = correct and c, attempted + a, \
                    failed + f
                metrics.update({f"{w}.{k}": v for k, v in m.items()})
    except (OSError, KeyError, ValueError, subprocess.SubprocessError) as e:
        log(f"run.py: {e}")
        return 1
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
