// Sweep orchestrator: run a policy × workload × fault grid from an INI
// spec into a per-machine artifact store, crash-safely.
//
// The store directory is the campaign's persistent job queue: every
// completed (point, run) slot lands in the checkpoint (atomic snapshot,
// see service/checkpoint.hpp) and its artifacts land in a per-run
// directory. A campaign killed at any moment — SIGKILL included — resumes
// from the newest valid checkpoint, skips the completed slots, and
// produces a final report bitwise identical to an uninterrupted run, at
// any job count.
//
// Store layout:
//
//   <store>/sweep.ini            copy of the spec that ran
//   <store>/stamp.json           build/provenance stamp of the binary
//   <store>/campaign.ckpt        crash-safe progress snapshot
//   <store>/campaign.json        final sweep summary (deterministic)
//   <store>/<point-label>/runN/  per-run artifacts:
//       timeline.csv  nodes.csv  summary.json  trace.bin
//
// Spec format (one [sweep] section; grammar in docs/usage.md §"Input
// files"):
//
//   [sweep]
//   name = demo
//   apps = bqcd, lulesh          # workload catalog names
//   policies = min_energy_eufs, min_time_eufs
//   faults = none, plans/x.plan  # optional fault-plan axis
//   runs = 3
//   seed = 1
//   cpu_th = 0.05
//   unc_th = 0.02
//   checkpoint_every = 4         # snapshot every N completed slots
//   workload_file = specs.ini    # optional custom workload definitions
#pragma once

#include <cstddef>
#include <cstdint>
#include <istream>
#include <string>
#include <vector>

namespace ear::service {

struct SweepSpec {
  std::string name = "sweep";
  std::vector<std::string> apps;
  std::vector<std::string> policies;
  /// Fault-plan axis: "none" (or empty) = fault-free. Paths are
  /// resolved relative to the working directory.
  std::vector<std::string> faults = {"none"};
  std::size_t runs = 3;
  std::uint64_t seed = 1;
  double cpu_th = 0.05;
  double unc_th = 0.02;
  std::size_t checkpoint_every = 4;
  std::string workload_file;
};

/// Parse a sweep spec. Throws common::ConfigError on syntax errors,
/// unknown keys, invalid values, or a grid with no points.
[[nodiscard]] SweepSpec parse_sweep_spec(std::istream& in);
[[nodiscard]] SweepSpec load_sweep_spec(const std::string& path);

/// One grid point, app-major then policy then fault — a deterministic
/// order, so point indices are stable across processes.
struct SweepPoint {
  std::string label;  // "app/policy" or "app/policy/fault-stem"
  std::string app;
  std::string policy;
  std::string fault_plan;  // path; empty = fault-free
};

[[nodiscard]] std::vector<SweepPoint> sweep_points(const SweepSpec& spec);

struct SweepOptions {
  std::size_t jobs = 0;  // 0 = EAR_SIM_JOBS / all cores
  /// Ignore any existing checkpoint and start over.
  bool fresh = false;
  /// Per-point progress lines on stderr.
  bool progress = false;
  /// Test hook: request an orderly stop after this many slots completed
  /// in this process (0 = run to completion). The checkpoint is flushed
  /// before returning, so a resume continues from here.
  std::size_t halt_after_slots = 0;
  /// Test hook: sleep this long in every slot's completion callback,
  /// widening the window in which a kill lands mid-campaign.
  std::uint32_t slot_delay_ms = 0;
  /// Verbatim spec text to persist as <store>/sweep.ini (empty = skip).
  std::string spec_text;
};

struct SweepOutcome {
  std::string store;        // the artifact store directory
  std::size_t total = 0;    // (point, run) slots in the full grid
  std::size_t restored = 0; // slots restored from the checkpoint
  std::size_t completed = 0;  // slots complete at exit (restored + new)
  bool interrupted = false;   // halt_after_slots stopped the campaign
  std::string note;           // checkpoint-load explanation, if any
};

/// Execute the sweep into `store_dir` (created if missing), resuming
/// from <store>/campaign.ckpt unless opts.fresh.
[[nodiscard]] SweepOutcome run_sweep(const SweepSpec& spec,
                                     const std::string& store_dir,
                                     const SweepOptions& opts);

/// Sanitised directory name for a point label ('/' → '_').
[[nodiscard]] std::string label_dir(const std::string& label);

}  // namespace ear::service
