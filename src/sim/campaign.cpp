#include "sim/campaign.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <utility>

#include "common/error.hpp"
#include "common/parallel.hpp"

namespace ear::sim {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

}  // namespace

std::size_t Campaign::add(CampaignPoint point) {
  EAR_CHECK_MSG(point.runs > 0, "campaign point needs at least one run");
  points_.push_back(std::move(point));
  return points_.size() - 1;
}

std::size_t Campaign::add(std::string label, ExperimentConfig cfg,
                          std::size_t runs) {
  return add(CampaignPoint{.label = std::move(label),
                           .cfg = std::move(cfg),
                           .runs = runs});
}

void Campaign::preload(std::size_t point, std::size_t run, RunResult result) {
  EAR_CHECK_MSG(point < points_.size(), "preload: no such campaign point");
  EAR_CHECK_MSG(run < points_[point].runs, "preload: run out of range");
  for (const Preloaded& pre : preloaded_) {
    EAR_CHECK_MSG(pre.point != point || pre.run != run,
                  "preload: slot already preloaded");
  }
  preloaded_.push_back(
      Preloaded{.point = point, .run = run, .result = std::move(result)});
}

const std::vector<CampaignResult>& Campaign::run() {
  // Flatten the grid to (point, run) tasks so a campaign with few points
  // but several runs each still fills the pool.
  struct Task {
    std::size_t point;
    std::size_t run;
  };
  std::vector<Task> tasks;
  // Each worker writes exactly its own (point, run) slot; anything
  // cross-slot (run_seconds) goes under `mu`.
  std::vector<std::vector<RunResult>> slots(points_.size());
  std::vector<std::vector<std::string>> error_slots(points_.size());
  // 1 = the slot's result is valid (preloaded or computed this run()).
  // Workers only ever touch their own (point, run) element.
  std::vector<std::vector<char>> done(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    slots[p].resize(points_[p].runs);
    error_slots[p].resize(points_[p].runs);
    done[p].resize(points_[p].runs, 0);
  }
  // Checkpoint-restored slots skip execution entirely; their results
  // enter the run-index-order reduction exactly like freshly computed
  // ones, which is what makes resume bitwise-identical.
  for (const Preloaded& pre : preloaded_) {
    slots[pre.point][pre.run] = pre.result;
    done[pre.point][pre.run] = 1;
  }
  for (std::size_t p = 0; p < points_.size(); ++p) {
    for (std::size_t r = 0; r < points_[p].runs; ++r) {
      if (done[p][r] == 0) tasks.push_back(Task{.point = p, .run = r});
    }
  }
  interrupted_ = false;
  // Cost-aware dispatch: issue the most expensive runs first so a long
  // point claimed late cannot straggle past the pool's drain (classic
  // LPT makespan argument). Each task still writes its own (point, run)
  // slot and the reduction below walks run-index order, so results are
  // bitwise independent of the execution order. Equal-cost tasks keep
  // their (point, run) flattening order — pinned explicitly rather than
  // left to the sort's whims so an all-equal-cost campaign dispatches
  // identically everywhere.
  const auto cost = [this](const Task& t) {
    const workload::AppModel& app = points_[t.point].cfg.app;
    return app.total_iterations() * app.nodes;
  };
  std::sort(tasks.begin(), tasks.end(),
            [&](const Task& a, const Task& b) {
              const std::size_t ca = cost(a);
              const std::size_t cb = cost(b);
              if (ca != cb) return ca > cb;
              if (a.point != b.point) return a.point < b.point;
              return a.run < b.run;
            });

  std::vector<double> run_seconds(points_.size(), 0.0);
  std::vector<std::atomic<std::size_t>> remaining(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    remaining[p].store(points_[p].runs, std::memory_order_relaxed);
  }
  std::atomic<std::size_t> points_done{0};
  std::atomic<bool> stop{false};
  std::mutex mu;  // guards run_seconds + progress + on_slot_complete

  const auto t0 = Clock::now();
  common::parallel_for(
      tasks.size(),
      [&](std::size_t i) {
        // An orderly drain: once should_stop fires, queued tasks become
        // no-ops (their slots simply stay incomplete); runs already in
        // flight finish normally. The stop flag latches the answer so
        // the predicate is polled at most once per queued task.
        if (stop.load(std::memory_order_relaxed)) return;
        if (opts_.should_stop && opts_.should_stop()) {
          stop.store(true, std::memory_order_relaxed);
          return;
        }
        const Task& t = tasks[i];
        const CampaignPoint& point = points_[t.point];
        const auto start = Clock::now();
        ExperimentConfig run_cfg = config_for_run(point.cfg, t.run);
        if (opts_.timeline_stride > 1) {
          run_cfg.timeline_stride = opts_.timeline_stride;
        }
        std::unique_ptr<RunObserver> obs;
        if (opts_.observe) {
          obs = opts_.observe(t.point, t.run);
          run_cfg.observer = obs.get();
        }
        bool ok = true;
        if (opts_.capture_errors) {
          try {
            slots[t.point][t.run] = run_experiment(run_cfg);
          } catch (const std::exception& e) {
            ok = false;
            const char* what = e.what();
            error_slots[t.point][t.run] =
                (what != nullptr && what[0] != '\0') ? what
                                                     : "unknown error";
          }
        } else {
          slots[t.point][t.run] = run_experiment(run_cfg);
        }
        if (ok) done[t.point][t.run] = 1;
        const double elapsed = seconds_since(start);
        {
          std::lock_guard<std::mutex> lock(mu);
          run_seconds[t.point] += elapsed;
          if (ok && opts_.on_slot_complete) {
            opts_.on_slot_complete(t.point, t.run, slots[t.point][t.run],
                                   obs.get());
          }
        }
        if (remaining[t.point].fetch_sub(1, std::memory_order_acq_rel) ==
            1) {
          const std::size_t finished =
              points_done.fetch_add(1, std::memory_order_relaxed) + 1;
          if (opts_.progress) {
            std::lock_guard<std::mutex> lock(mu);
            std::fprintf(stderr,
                         "[campaign %zu/%zu] %s: %zu runs, %.2fs\n",
                         finished, points_.size(), point.label.c_str(),
                         point.runs, run_seconds[t.point]);
          }
        }
      },
      opts_.jobs);
  interrupted_ = stop.load(std::memory_order_relaxed);

  results_.clear();
  results_.reserve(points_.size());
  for (std::size_t p = 0; p < points_.size(); ++p) {
    // Failed runs (capture_errors mode) and slots never executed
    // (interrupted campaign) are excluded from the reduction in
    // run-index order, so the surviving average is still bitwise
    // independent of the job count.
    std::vector<RunResult> ok;
    std::vector<std::string> errors;
    ok.reserve(slots[p].size());
    for (std::size_t r = 0; r < slots[p].size(); ++r) {
      if (done[p][r] != 0) {
        ok.push_back(std::move(slots[p][r]));
      } else if (!error_slots[p][r].empty()) {
        errors.push_back(std::move(error_slots[p][r]));
      }
    }
    results_.push_back(CampaignResult{
        .label = points_[p].label,
        .avg = ok.empty() ? AveragedResult{} : reduce_runs(ok),
        .run_seconds = run_seconds[p],
        .errors = std::move(errors),
        .completed_runs = ok.size()});
  }
  wall_s_ = seconds_since(t0);
  return results_;
}

common::RunningStats Campaign::time_stats() const {
  common::RunningStats stats;
  for (const CampaignResult& r : results_) {
    common::RunningStats one;
    one.add(r.avg.total_time_s);
    stats.merge(one);
  }
  return stats;
}

std::vector<CampaignResult> run_campaign(std::vector<CampaignPoint> points,
                                         CampaignOptions opts) {
  Campaign campaign(opts);
  for (auto& p : points) campaign.add(std::move(p));
  campaign.run();
  return campaign.results();
}

}  // namespace ear::sim
