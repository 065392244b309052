#!/usr/bin/env python3
"""Machine-normalized benchmark regression guard for the hot-path PR.

Raw nanoseconds are not comparable across CI machines, so the guard
checks a *ratio* that cancels the machine out: the DynAIS worst-case
per-event cost (``BM_DynaisPushNonPeriodic``) divided by the cheap
steady-state push (``BM_DynaisPush``) measured in the same process.
If the current ratio exceeds the checked-in post-optimisation baseline
ratio by more than the allowed factor (default 2x), the worst-case path
has regressed relative to the machine's own speed and the guard fails.

Inputs:
  * a google-benchmark JSON report (``--benchmark_out=BENCH_hotpath.json``)
  * the committed baseline ``bench/BENCH_hotpath_baseline.json`` holding
    the pre-PR and post-PR reference numbers

The same mode also guards the vector lane kernels: ``BM_DitherLanes``
at 26 lanes (the governor's dither draws, the campaign's mix of counted
and uncounted lanes: ``all_counted:0``) and ``BM_NoiseLanes`` at 16
lanes (a facility block's noise draws) each time the scalar loop
(``dispatched:0``) and the variant the kernel dispatches to
(``dispatched:1``, named by the benchmark's label). When a vector
variant ran, the scalar/dispatched time ratio must reach the baseline's
``dither_lanes.floor`` or ``noise_lanes.floor`` for that variant; on a
runner without one (label ``scalar``: no AVX2 for the dither kernel, no
AVX-512F with AVX-512DQ for the noise kernel), or when the report has no
such benchmark, the guard prints a notice instead. The dither kernel's
dispatched variant also times 26 lanes all counted (``all_counted:1``):
uncounted lanes only step their streams, so the all-counted/mix time
ratio must reach ``dither_lanes.all_counted_floor`` for that variant.
``BM_ClusterGovernors`` times one iteration's governor pass over a
13-node cluster under the boot window (``capped:0``) and under a window
below the loop's target (``capped:1``), whose sockets owe their dither
draws instead of making them: the open/capped time ratio must reach
``cluster_governors.floor``; a report without the pair gets a notice.

Event-core mode (``--event-core``) reinterprets both positional inputs
as ``event_core_baseline_v2`` JSON (the ``bench_cluster_scale
--event-diff --diff-out`` output) and guards, at the largest size both
share, the event-vs-reference core-loop speedup instead of the DynAIS
ratio: a same-machine ratio of medians over repeated runs, so it
transfers across hardware. It also guards the event core's scaling from
1 to ``workers`` = min(4, host CPUs) workers, enforced only when the
*current* report's ``host_cpus`` is at least 2.

Exit code 0 = within bounds, 1 = regression, 2 = bad input.
Stdlib only; runs anywhere CI has a python3.
"""

import argparse
import json
import sys


def load_benchmarks(path):
    """Map benchmark name -> (real_time in ns, label) from a
    google-benchmark JSON."""
    with open(path) as f:
        report = json.load(f)
    out = {}
    for b in report.get("benchmarks", []):
        if b.get("run_type") == "aggregate":
            continue
        unit = b.get("time_unit", "ns")
        scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}.get(unit)
        if scale is None:
            raise ValueError(f"unknown time_unit {unit!r} for {b.get('name')}")
        out[b["name"]] = (float(b["real_time"]) * scale, b.get("label", ""))
    return out


# The lane kernels: (benchmark, lane count, name suffix of the guarded
# case, baseline key, kernel name).
LANE_KERNELS = (
    ("BM_DitherLanes", 26, "/all_counted:0", "dither_lanes", "dither"),
    ("BM_NoiseLanes", 16, "", "noise_lanes", "noise"),
)


def variant_floor(baseline, baseline_path, key, field, variant):
    """The baseline's numeric key.field.variant, or None after printing
    what is missing."""
    floors = (baseline.get(key) or {}).get(field)
    floor = floors.get(variant) if isinstance(floors, dict) else None
    if not isinstance(floor, (int, float)):
        print(f"bench_guard: baseline {baseline_path} has no numeric "
              f"{key}.{field}.{variant}", file=sys.stderr)
        return None
    return floor


def check_all_counted(report, baseline, baseline_path):
    """The dither kernel's all-counted/mix ratio on its dispatched
    variant: 0 = within the floor or nothing to hold (check_lanes has
    printed why), 1 = regression, 2 = bad input."""
    mixed_name = "BM_DitherLanes/lanes:26/dispatched:1/all_counted:0"
    counted_name = "BM_DitherLanes/lanes:26/dispatched:1/all_counted:1"
    if mixed_name not in report or report[mixed_name][1] == "scalar":
        return 0
    if counted_name not in report:
        print(f"bench_guard: report has {mixed_name} but no {counted_name}; "
              "run every DitherLanes case", file=sys.stderr)
        return 2
    mixed_ns, variant = report[mixed_name]
    counted_ns, _ = report[counted_name]
    floor = variant_floor(baseline, baseline_path, "dither_lanes",
                          "all_counted_floor", variant)
    if floor is None:
        return 2
    if not mixed_ns > 0:
        print(f"bench_guard: report key {mixed_name} is {mixed_ns!r}; "
              "rerun the benchmark", file=sys.stderr)
        return 2
    ratio = counted_ns / mixed_ns
    print(f"bench_guard: dither lanes all-counted/mix ({variant}) at 26 "
          f"lanes = {ratio:.2f}x (floor {floor:g}x)")
    if ratio < floor:
        print(f"bench_guard: FAIL — the {variant} dither kernel runs the "
              f"campaign mix only {ratio:.2f}x faster than all lanes "
              f"counted, below the {floor:g}x floor: uncounted lanes are "
              "not taking the step-only path", file=sys.stderr)
        return 1
    return 0


def check_cluster_governors(report, baseline, baseline_path):
    """The governor pass's open/capped time ratio: 0 = within the floor
    or nothing to hold, 1 = regression, 2 = bad input."""
    open_name = "BM_ClusterGovernors/capped:0"
    capped_name = "BM_ClusterGovernors/capped:1"
    present = [n for n in (open_name, capped_name) if n in report]
    if not present:
        print("bench_guard: notice — no BM_ClusterGovernors in the report; "
              "owed dither draws not checked")
        return 0
    if len(present) == 1:
        print(f"bench_guard: report has {present[0]} without its pair; run "
              "both ClusterGovernors cases", file=sys.stderr)
        return 2
    floor = (baseline.get("cluster_governors") or {}).get("floor")
    if not isinstance(floor, (int, float)):
        print(f"bench_guard: baseline {baseline_path} has no numeric "
              "cluster_governors.floor", file=sys.stderr)
        return 2
    open_ns, _ = report[open_name]
    capped_ns, _ = report[capped_name]
    if not capped_ns > 0:
        print(f"bench_guard: report key {capped_name} is {capped_ns!r}; "
              "rerun the benchmark", file=sys.stderr)
        return 2
    ratio = open_ns / capped_ns
    print(f"bench_guard: cluster governors open/capped = {ratio:.2f}x "
          f"(floor {floor:g}x)")
    if ratio < floor:
        print(f"bench_guard: FAIL — a capped window's governor pass runs "
              f"only {ratio:.2f}x faster than an open one, below the "
              f"{floor:g}x floor: capped sockets make the dither draws "
              "they could owe", file=sys.stderr)
        return 1
    return 0


def check_lanes(report, baseline, baseline_path, bench, lanes, suffix, key,
                what):
    """0 = within the floor or nothing to hold, 1 = regression, 2 = bad
    baseline. `report` maps name -> (ns, label)."""
    scalar_name = f"{bench}/lanes:{lanes}/dispatched:0{suffix}"
    dispatched_name = f"{bench}/lanes:{lanes}/dispatched:1{suffix}"
    if scalar_name not in report or dispatched_name not in report:
        print(f"bench_guard: notice — no {bench} at {lanes} lanes in the "
              f"report; {what} kernel not checked")
        return 0
    scalar_ns, _ = report[scalar_name]
    dispatched_ns, variant = report[dispatched_name]
    if variant == "scalar":
        print(f"bench_guard: notice — this CPU ran no vector {what} "
              f"variant; {what} kernel not checked")
        return 0
    floor = variant_floor(baseline, baseline_path, key, "floor", variant)
    if floor is None:
        return 2
    if not dispatched_ns > 0:
        print(f"bench_guard: report key {dispatched_name} is "
              f"{dispatched_ns!r}; rerun the benchmark", file=sys.stderr)
        return 2
    ratio = scalar_ns / dispatched_ns
    print(f"bench_guard: {what} lanes scalar/{variant} at {lanes} lanes = "
          f"{ratio:.2f}x (floor {floor:g}x)")
    if ratio < floor:
        print(f"bench_guard: FAIL — the {variant} {what} kernel is only "
              f"{ratio:.2f}x the scalar loop, below the {floor:g}x floor",
              file=sys.stderr)
        return 1
    return 0


def load_event_core(path, label):
    """Load and validate an event_core_baseline_v2 JSON file."""
    with open(path) as f:
        data = json.load(f)
    if data.get("schema") != "event_core_baseline_v2":
        raise ValueError(
            f"{label} {path}: schema is {data.get('schema')!r}, "
            "expected 'event_core_baseline_v2' — was this produced by "
            "bench_cluster_scale --event-diff --diff-out?"
        )
    entries = data.get("entries")
    if not isinstance(entries, list) or not entries:
        raise ValueError(f"{label} {path}: 'entries' is missing or empty")
    for e in entries:
        if not isinstance(e, dict) or not isinstance(e.get("nodes"), int):
            raise ValueError(f"{label} {path}: entry without integer 'nodes'")
        if not isinstance(e.get("speedup_core_1t"), (int, float)):
            raise ValueError(
                f"{label} {path}: entry nodes={e.get('nodes')} is missing "
                "numeric 'speedup_core_1t'"
            )
    return data


def run_event_core(args):
    """Guard the event-vs-reference core speedup and the worker scaling.

    The single-thread core speedup (reference core wall over event core
    wall, medians of repeats in one process) is always enforced against
    the committed baseline and the absolute --min-speedup. The scaling
    (1-worker over N-worker event core wall) is enforced against the
    absolute --min-scale-speedup when the current host has >= 2 CPUs.
    """
    try:
        report = load_event_core(args.report, "report")
        baseline = load_event_core(args.baseline, "baseline")
    except (OSError, ValueError) as e:
        print(f"bench_guard: bad input: {e}", file=sys.stderr)
        return 2

    base_by_nodes = {e["nodes"]: e for e in baseline["entries"]}
    shared = [e for e in report["entries"] if e["nodes"] in base_by_nodes]
    if not shared:
        print(
            "bench_guard: report and baseline share no 'nodes' sizes — "
            "run bench_cluster_scale with the baseline's --nodes list",
            file=sys.stderr,
        )
        return 2

    # Guard at the largest shared size: the longest walls, so the
    # smallest noise relative to the signal.
    cur = max(shared, key=lambda e: e["nodes"])
    base = base_by_nodes[cur["nodes"]]
    now_speedup = float(cur["speedup_core_1t"])
    base_speedup = float(base["speedup_core_1t"])
    if not base_speedup > 0:
        print(
            f"bench_guard: baseline {args.baseline} has non-positive "
            f"speedup_core_1t {base_speedup!r} at nodes={cur['nodes']} — "
            "regenerate it",
            file=sys.stderr,
        )
        return 2

    floor = base_speedup / args.max_ratio_factor
    print(f"bench_guard: event-core speedup now (nodes={cur['nodes']}, "
          f"median of {report.get('repeats')!r}) = {now_speedup:.2f}x")
    print(f"bench_guard: baseline speedup                = "
          f"{base_speedup:.2f}x")
    print(f"bench_guard: floor (baseline / "
          f"{args.max_ratio_factor:g})          = {floor:.2f}x")

    failed = False
    if now_speedup < floor:
        failed = True
        print(
            f"bench_guard: FAIL — event-core speedup {now_speedup:.2f}x "
            f"fell below {floor:.2f}x (baseline {base_speedup:.2f}x / "
            f"{args.max_ratio_factor:g}); the closed-form stretch path "
            "regressed relative to the reference loop on this machine",
            file=sys.stderr,
        )
    if now_speedup < args.min_speedup:
        failed = True
        print(
            f"bench_guard: FAIL — event-core speedup {now_speedup:.2f}x "
            f"is below the absolute --min-speedup {args.min_speedup:g}x",
            file=sys.stderr,
        )

    host_cpus = report.get("host_cpus", 0)
    workers = report.get("workers")
    scale = cur.get("scale_speedup")
    if not isinstance(host_cpus, int) or host_cpus < 2:
        print(
            f"bench_guard: host_cpus={host_cpus!r} < 2 — worker scaling "
            "not enforced (one CPU has nothing to scale over)"
        )
    elif not isinstance(scale, (int, float)):
        print(
            f"bench_guard: report entry nodes={cur['nodes']} has no "
            "numeric scale_speedup despite host_cpus >= 2",
            file=sys.stderr,
        )
        return 2
    else:
        print(f"bench_guard: scaling 1 -> {workers!r} workers       = "
              f"{float(scale):.2f}x (min {args.min_scale_speedup:g}x)")
        if float(scale) < args.min_scale_speedup:
            failed = True
            print(
                f"bench_guard: FAIL — event-core scaling {float(scale):.2f}x "
                f"from 1 to {workers!r} workers is below "
                f"--min-scale-speedup {args.min_scale_speedup:g}x on a "
                f"{host_cpus}-CPU host",
                file=sys.stderr,
            )

    if failed:
        return 1
    print("bench_guard: OK")
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("report", help="google-benchmark JSON output")
    ap.add_argument("baseline", help="bench/BENCH_hotpath_baseline.json")
    ap.add_argument(
        "--max-ratio-factor",
        type=float,
        default=2.0,
        help="fail if worst/steady ratio exceeds baseline ratio "
        "by more than this factor (default: 2.0)",
    )
    ap.add_argument(
        "--event-core",
        action="store_true",
        help="treat report/baseline as event_core_baseline_v2 JSON from "
        "bench_cluster_scale --event-diff and guard the core speedup "
        "instead of the DynAIS ratio",
    )
    ap.add_argument(
        "--min-speedup",
        type=float,
        default=2.5,
        help="event-core mode: absolute floor on the single-thread core "
        "speedup regardless of baseline (default: 2.5)",
    )
    ap.add_argument(
        "--min-scale-speedup",
        type=float,
        default=1.5,
        help="event-core mode: minimum event-core speedup from 1 to the "
        "report's 'workers' workers, enforced only when the host has "
        ">= 2 cpus (default: 1.5)",
    )
    args = ap.parse_args()

    if args.event_core:
        return run_event_core(args)

    try:
        report = load_benchmarks(args.report)
        with open(args.baseline) as f:
            baseline = json.load(f)
    except (OSError, ValueError, KeyError) as e:
        print(f"bench_guard: bad input: {e}", file=sys.stderr)
        return 2
    bench = {name: ns for name, (ns, _) in report.items()}

    needed = ("BM_DynaisPush", "BM_DynaisPushNonPeriodic")
    missing = [n for n in needed if n not in bench]
    if missing:
        print(
            f"bench_guard: report {args.report} is missing benchmark(s) "
            f"{', '.join(missing)} — was the bench binary run with "
            "--benchmark_out and did those benchmarks register?",
            file=sys.stderr,
        )
        return 2

    post = baseline.get("post_pr")
    if not isinstance(post, dict):
        print(
            f"bench_guard: baseline {args.baseline} has no 'post_pr' "
            "object — regenerate it from a post-optimisation run",
            file=sys.stderr,
        )
        return 2
    missing_base = [
        k for k in ("BM_DynaisPush_ns", "BM_DynaisPushNonPeriodic_ns")
        if not isinstance(post.get(k), (int, float))
    ]
    if missing_base:
        print(
            f"bench_guard: baseline {args.baseline} post_pr is missing "
            f"numeric key(s) {', '.join(missing_base)}",
            file=sys.stderr,
        )
        return 2

    # A zero steady-state time would make the ratio meaningless (and the
    # division a traceback): name the offending key instead.
    for label, key, value in (
        ("report", "BM_DynaisPush", bench["BM_DynaisPush"]),
        ("baseline post_pr", "BM_DynaisPush_ns", post["BM_DynaisPush_ns"]),
    ):
        if not value > 0:
            print(
                f"bench_guard: {label} key {key} is {value!r}; the "
                "steady-state push time must be positive to form the "
                "worst/steady ratio — rerun the benchmark",
                file=sys.stderr,
            )
            return 2

    base_ratio = (
        post["BM_DynaisPushNonPeriodic_ns"] / post["BM_DynaisPush_ns"]
    )
    now_ratio = bench["BM_DynaisPushNonPeriodic"] / bench["BM_DynaisPush"]
    limit = base_ratio * args.max_ratio_factor

    print(f"bench_guard: DynAIS worst/steady ratio now  = {now_ratio:.2f}")
    print(f"bench_guard: baseline post-PR ratio          = {base_ratio:.2f}")
    print(f"bench_guard: allowed (x{args.max_ratio_factor:g})"
          f"               = {limit:.2f}")
    for name in ("BM_DynaisPush", "BM_DynaisPushNonPeriodic",
                 "BM_DynaisWorstCase", "BM_DynaisReferenceWorstCase"):
        if name in bench:
            print(f"bench_guard:   {name}: {bench[name]:.1f} ns")
    if "BM_CampaignSweep" in bench:
        print(f"bench_guard:   BM_CampaignSweep: "
              f"{bench['BM_CampaignSweep'] / 1e6:.3f} ms")

    lanes = [check_lanes(report, baseline, args.baseline, *kernel)
             for kernel in LANE_KERNELS]
    lanes.append(check_all_counted(report, baseline, args.baseline))
    lanes.append(check_cluster_governors(report, baseline, args.baseline))
    if 2 in lanes:
        return 2
    if now_ratio > limit:
        print(
            "bench_guard: FAIL — the DynAIS worst-case path regressed "
            f"more than {args.max_ratio_factor:g}x relative to the "
            "steady-state push on this machine",
            file=sys.stderr,
        )
        return 1
    if 1 in lanes:
        return 1
    print("bench_guard: OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
