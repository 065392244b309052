// Campaign engine: fan a grid of experiment points — the paper's
// {workload x policy x frequency} sweeps — out across worker threads.
//
// Every table and figure in the paper is an average over repeated runs
// of many independent configurations; the grid is embarrassingly
// parallel. The engine schedules at (point, run) granularity so even a
// short list of points keeps all cores busy, and reduces each point's
// runs in run-index order with sim::reduce_runs — results are therefore
// bitwise identical for any job count, including the serial one.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/stats.hpp"
#include "sim/runner.hpp"

namespace ear::sim {

/// One grid point: a config run `runs` times and averaged.
struct CampaignPoint {
  std::string label;
  ExperimentConfig cfg;
  std::size_t runs = 3;
};

struct CampaignOptions {
  /// Worker threads; 0 = EAR_SIM_JOBS env var or hardware concurrency.
  std::size_t jobs = 0;
  /// Print a per-point completion line (label + timing) to stderr.
  bool progress = false;
  /// Capture per-run exceptions instead of letting the first one abort
  /// the whole campaign (chaos mode: a crash is a finding, not a reason
  /// to lose every other point's results). Failed runs are excluded from
  /// the reduction; their messages land in CampaignResult::errors in
  /// run-index order.
  bool capture_errors = false;
  /// Downsample every run's node-0 timelines to one sample in
  /// `timeline_stride` (0/1 = keep all). Campaign reductions only read
  /// the averaged scalars, so results are unchanged; set it high for
  /// table sweeps where nobody plots the timelines.
  std::size_t timeline_stride = 1;
  /// Service hooks (see src/service/): all three default to null, in
  /// which case the engine behaves exactly as before.
  ///
  /// `observe` builds a per-(point, run) observer on the worker thread
  /// before the run starts; it is wired into that run's config and handed
  /// to on_slot_complete, then destroyed. Used for record/replay traces.
  std::function<std::unique_ptr<RunObserver>(std::size_t point,
                                             std::size_t run)>
      observe;
  /// Called after every *successful* (point, run) slot, serialised under
  /// an internal mutex, in completion order — which depends on the job
  /// count, so consumers must treat calls as an unordered set (write a
  /// keyed artifact, record a checkpoint slot), never fold them into an
  /// order-sensitive result. `obs` is this slot's observer (null unless
  /// `observe` is set). Runs that threw under capture_errors do not get
  /// a callback.
  std::function<void(std::size_t point, std::size_t run,
                     const RunResult& result, RunObserver* obs)>
      on_slot_complete;
  /// Polled before each queued task starts; once it returns true the
  /// campaign stops claiming tasks (in-flight runs finish and still get
  /// their completion callback) and run() reports interrupted(). The
  /// crash-safe service uses this for orderly drains; a SIGKILL needs no
  /// cooperation at all — that is what the checkpoints are for.
  std::function<bool()> should_stop;
};

/// Outcome of one point, in the order the points were added.
struct CampaignResult {
  std::string label;
  AveragedResult avg;
  /// Wall-clock the point's runs cost, summed over runs (thread-seconds).
  double run_seconds = 0.0;
  /// Messages of runs that threw (capture_errors mode), run-index order.
  std::vector<std::string> errors;
  /// Runs actually reduced into avg. Equals the point's configured runs
  /// on a full campaign; lower when the campaign was interrupted
  /// (should_stop) before every slot completed.
  std::size_t completed_runs = 0;
};

class Campaign {
 public:
  explicit Campaign(CampaignOptions opts = {}) : opts_(opts) {}

  /// Append a point; returns its index into results().
  std::size_t add(CampaignPoint point);
  std::size_t add(std::string label, ExperimentConfig cfg,
                  std::size_t runs = 3);

  [[nodiscard]] std::size_t size() const { return points_.size(); }
  [[nodiscard]] const std::vector<CampaignPoint>& points() const {
    return points_;
  }

  /// Pre-mark (point, run) as complete with `result` — restored from a
  /// service checkpoint. run() skips the slot and feeds `result` into the
  /// point's reduction exactly as if this process had computed it; the
  /// checkpoint stores results bit-exactly, so a resumed campaign reduces
  /// to bitwise-identical numbers. The point must already be add()ed.
  /// Preloads persist across run() calls.
  void preload(std::size_t point, std::size_t run, RunResult result);

  /// True when the last run() stopped early because should_stop fired;
  /// results() then holds partial reductions (see completed_runs).
  [[nodiscard]] bool interrupted() const { return interrupted_; }

  /// Execute every (point, run) task across the worker pool and reduce.
  /// Results are indexed exactly like the add() calls.
  const std::vector<CampaignResult>& run();

  /// Results of the last run() (empty before the first).
  [[nodiscard]] const std::vector<CampaignResult>& results() const {
    return results_;
  }

  /// Wall-clock of the last run() as observed by the caller.
  [[nodiscard]] double wall_seconds() const { return wall_s_; }

  /// Cross-point statistics over the per-point mean times of the last
  /// run(), merged per point with RunningStats::merge.
  [[nodiscard]] common::RunningStats time_stats() const;

 private:
  struct Preloaded {
    std::size_t point;
    std::size_t run;
    RunResult result;
  };

  CampaignOptions opts_;
  std::vector<CampaignPoint> points_;
  std::vector<Preloaded> preloaded_;
  // Filled by the serial run-index-order reduction after the pool
  // drains; never touched from the parallel phase.
  std::vector<CampaignResult> results_;
  double wall_s_ = 0.0;
  bool interrupted_ = false;
};

/// Convenience: run a one-shot campaign over `points`.
[[nodiscard]] std::vector<CampaignResult> run_campaign(
    std::vector<CampaignPoint> points, CampaignOptions opts = {});

}  // namespace ear::sim
