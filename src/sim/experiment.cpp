#include "sim/experiment.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <mutex>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "eard/accounting.hpp"
#include "faults/injector.hpp"

namespace ear::sim {

namespace {

/// Wrap-aware RAPL polling, as the node daemon does every few seconds:
/// single-wrap deltas per poll accumulate into a full-range total.
class RaplPoller {
 public:
  explicit RaplPoller(const simhw::SimNode& node) {
    for (std::size_t s = 0; s < node.config().sockets; ++s) {
      last_.push_back(node.rapl().pkg(s).raw());
    }
  }

  void poll(const simhw::SimNode& node) {
    for (std::size_t s = 0; s < last_.size(); ++s) {
      const std::uint32_t now = node.rapl().pkg(s).raw();
      total_j_ += simhw::RaplCounter::delta(last_[s], now).value;
      last_[s] = now;
    }
  }

  [[nodiscard]] double total_joules() const { return total_j_; }

 private:
  std::vector<std::uint32_t> last_;
  double total_j_ = 0.0;
};

}  // namespace

const models::LearnedModels& cached_models(const simhw::NodeConfig& cfg) {
  // The global mutex only guards the (cheap) cache lookup; the expensive
  // learn_models call runs under a per-entry once_flag, so two threads
  // first-touching *different* node configs learn concurrently instead of
  // convoying behind one lock. std::map keeps entry addresses stable
  // across inserts, which is what lets the flag/models live outside the
  // lock. Cold path only: one lookup per run_experiment.
  struct Entry {
    std::once_flag once;
    models::LearnedModels models;
  };
  static std::mutex mu;
  static std::map<std::string, Entry> cache;
  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu);
    entry = &cache[cfg.name];
  }
  std::call_once(entry->once,
                 [&] { entry->models = models::learn_models(cfg); });
  return entry->models;
}

RunResult run_experiment(const ExperimentConfig& cfg) {
  const workload::AppModel& app = cfg.app;
  EAR_CHECK_MSG(!app.phases.empty(), "application has no phases");

  simhw::Cluster cluster(app.node_config, app.nodes, cfg.seed, cfg.noise);
  earl::EarLibrary library(app.node_config, cfg.earl,
                           cached_models(app.node_config));

  std::vector<eard::NodeDaemon> daemons;
  daemons.reserve(app.nodes);
  std::vector<std::unique_ptr<earl::EarlSession>> sessions;
  std::vector<RaplPoller> rapl;
  eard::Accounting accounting;
  std::vector<std::size_t> records;
  for (std::size_t n = 0; n < app.nodes; ++n) {
    daemons.emplace_back(cluster.node(n));
    rapl.emplace_back(cluster.node(n));
    records.push_back(accounting.job_started(cfg.seed, app.name,
                                             cfg.earl.policy, n,
                                             cluster.node(n)));
  }
  // Arm the fault plan before EARL attaches, so attach-time probes
  // already run through the hooks (a plan can make the very first
  // writability probe fail, as a boot-time lock would).
  std::unique_ptr<faults::FaultInjector> injector;
  if (cfg.fault_plan != nullptr && !cfg.fault_plan->empty()) {
    injector = std::make_unique<faults::FaultInjector>(
        *cfg.fault_plan, common::mix_seed(cfg.seed, 0xFA171EULL),
        app.nodes);
    for (std::size_t n = 0; n < app.nodes; ++n) {
      injector->attach(n, cluster.node(n), daemons[n]);
    }
  }
  if (cfg.attach_earl) {
    for (auto& d : daemons) sessions.push_back(library.attach(d, app.is_mpi));
  }
  // Fixed operating points (motivation-style sweeps) are applied after
  // EARL's defaults so they win; they pin the node for the whole run.
  for (std::size_t n = 0; n < app.nodes; ++n) {
    if (cfg.fixed_cpu_pstate) {
      cluster.node(n).set_cpu_pstate(*cfg.fixed_cpu_pstate);
    }
    if (cfg.fixed_uncore_window) {
      cluster.node(n).set_uncore_limit_all(*cfg.fixed_uncore_window);
    }
    if (cfg.energy_perf_bias) {
      for (std::size_t s = 0; s < app.node_config.sockets; ++s) {
        cluster.node(n).msr(s).write(simhw::kMsrEnergyPerfBias,
                                     *cfg.energy_perf_bias);
      }
    }
  }

  std::unique_ptr<eargm::EargmManager> manager;
  if (cfg.eargm) {
    std::vector<eard::NodeDaemon*> ptrs;
    for (auto& d : daemons) ptrs.push_back(&d);
    manager = std::make_unique<eargm::EargmManager>(*cfg.eargm,
                                                    std::move(ptrs));
  }
  std::vector<double> round_power(app.nodes, 0.0);
  std::vector<common::Freq> f_imc(app.nodes);
  std::vector<simhw::NoisePair> noise(app.nodes);

  RunResult out;
  // The iteration count is known upfront; size the node-0 timelines once
  // instead of growing them geometrically through the run.
  const std::size_t stride = std::max<std::size_t>(1, cfg.timeline_stride);
  const std::size_t samples =
      (app.total_iterations() + stride - 1) / stride;
  out.imc_timeline.reserve(samples);
  out.timeline.reserve(samples);
  out.nodes.reserve(app.nodes);
  std::size_t iter_index = 0;
  std::size_t phase_index = 0;
  for (const auto& phase : app.phases) {
    if (cfg.observer != nullptr) {
      cfg.observer->phase_begin(phase_index, phase.iterations);
    }
    // Imbalance-scaled per-node demands, computed once per phase.
    std::vector<simhw::WorkDemand> demands;
    demands.reserve(app.nodes);
    for (std::size_t n = 0; n < app.nodes; ++n) {
      demands.push_back(app.node_demand(phase, n));
    }
    for (std::size_t it = 0; it < phase.iterations; ++it) {
      // Every node's governor and noise pair in one pass. Exact: within an
      // iteration no node's step changes what another node's governor
      // reads (sessions and fault streams are per node, poll() only marks
      // registers locked and reads ignore locks, EARGM updates after the
      // loop), and nothing but finish_iteration draws a node's noise.
      cluster.run_governors(demands, f_imc, noise);
      for (std::size_t n = 0; n < app.nodes; ++n) {
        if (injector) injector->poll(n);  // scheduled locks fire here
        simhw::SimNode& node = cluster.node(n);
        const auto outcome =
            node.finish_iteration(demands[n], f_imc[n], noise[n]);
        rapl[n].poll(node);
        round_power[n] = outcome.power.total().value;
        if (injector && injector->power_reading_dropped(n)) {
          // The node's report never reaches EARGM this round.
          round_power[n] = std::numeric_limits<double>::quiet_NaN();
        }
        if (n == 0 && iter_index % stride == 0) {
          out.imc_timeline.emplace_back(node.clock().value,
                                        outcome.uncore_freq.as_ghz());
          out.timeline.push_back(TimelinePoint{
              .t_s = node.clock().value,
              .cpu_ghz = node.cpu_freq().as_ghz(),
              .imc_ghz = outcome.uncore_freq.as_ghz(),
              .dc_power_w = outcome.power.total().value,
          });
        }
        if (cfg.attach_earl) {
          if (app.is_mpi) {
            sessions[n]->on_mpi_calls(phase.mpi_pattern);
          } else {
            sessions[n]->on_time_tick();
          }
        }
        // Observe node 0 after its session processed the iteration, so
        // the sample carries the decision state *this* iteration ended
        // in — that is the stream a replay must reproduce exactly.
        if (n == 0 && cfg.observer != nullptr) {
          RunObserver::IterationSample sample{
              .phase = phase_index,
              .iteration = iter_index,
              .t_s = node.clock().value,
              .cpu_freq = node.cpu_freq(),
              .imc_freq = outcome.uncore_freq,
              .dc_power = outcome.power.total()};
          if (cfg.attach_earl) {
            sample.earl_state =
                static_cast<std::uint8_t>(sessions[0]->state()) + 1;
            sample.signatures = sessions[0]->signatures_computed();
          }
          cfg.observer->iteration(sample);
        }
      }
      if (manager) manager->update(round_power);
      ++iter_index;
    }
    ++phase_index;
  }
  if (manager) {
    out.eargm_throttles = manager->throttle_events();
    out.eargm_final_limit = manager->current_limit();
    out.fault_report.missed_readings = manager->missed_readings();
  }
  if (injector) {
    const faults::FaultReport& injected = injector->stats();
    out.fault_report.msr_drops = injected.msr_drops;
    out.fault_report.msr_locks = injected.msr_locks;
    out.fault_report.snapshot_faults = injected.snapshot_faults;
    out.fault_report.dropped_readings = injected.dropped_readings;
    out.fault_events = injector->events();
  }

  // Aggregate.
  for (std::size_t n = 0; n < app.nodes; ++n) {
    const simhw::SimNode& node = cluster.node(n);
    accounting.job_ended(records[n], node);
    const simhw::PmuCounters& c = node.counters();
    NodeResult r;
    r.elapsed_s = node.clock().value;
    r.energy_j = node.inm().exact().value;
    r.pkg_energy_j = rapl[n].total_joules();
    r.avg_dc_power_w = r.elapsed_s > 0.0 ? r.energy_j / r.elapsed_s : 0.0;
    r.avg_pkg_power_w =
        r.elapsed_s > 0.0 ? r.pkg_energy_j / r.elapsed_s : 0.0;
    if (c.elapsed_seconds > 0.0) {
      r.avg_cpu_ghz = c.avg_cpu_freq().as_ghz();
      r.avg_imc_ghz = c.avg_imc_freq().as_ghz();
      r.gbps = c.cas_transactions * 64.0 / c.elapsed_seconds / 1e9;
    }
    if (c.instructions > 0.0) {
      r.cpi = c.cycles / c.instructions;
      r.tpi = c.cas_transactions / c.instructions;
      r.vpi = c.avx512_ops / c.instructions;
    }
    if (cfg.attach_earl) {
      r.signatures = sessions[n]->signatures_computed();
      r.rejected_windows = sessions[n]->windows_rejected();
      r.reanchors = sessions[n]->reanchors();
      r.degraded = sessions[n]->degraded();
    }
    r.msr_writes = daemons[n].msr_writes();
    r.verify_failures = daemons[n].verify_failures();
    r.reprobes = daemons[n].reprobes();
    out.fault_report.rejected_windows += r.rejected_windows;
    out.fault_report.reanchors += r.reanchors;
    out.fault_report.verify_failures += r.verify_failures;
    out.fault_report.reprobes += r.reprobes;
    out.fault_report.fallbacks += r.degraded ? 1 : 0;
    // Settle-or-degrade: under an armed plan a session must either keep
    // producing signatures or have cleanly fallen back; one that went
    // silent without degrading is an invariant violation upstream.
    if (injector && cfg.attach_earl && r.signatures == 0 && !r.degraded) {
      ++out.fault_report.unsettled_nodes;
    }
    out.nodes.push_back(r);

    out.total_time_s = std::max(out.total_time_s, r.elapsed_s);
    out.total_energy_j += r.energy_j;
    out.avg_dc_power_w += r.avg_dc_power_w;
    out.avg_pkg_power_w += r.avg_pkg_power_w;
    out.avg_cpu_ghz += r.avg_cpu_ghz;
    out.avg_imc_ghz += r.avg_imc_ghz;
    out.cpi += r.cpi;
    out.gbps += r.gbps;
  }
  const double nn = static_cast<double>(app.nodes);
  out.avg_dc_power_w /= nn;
  out.avg_pkg_power_w /= nn;
  out.avg_cpu_ghz /= nn;
  out.avg_imc_ghz /= nn;
  out.cpi /= nn;
  out.gbps /= nn;
  return out;
}

}  // namespace ear::sim
