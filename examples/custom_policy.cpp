// Custom policy example: the plugin surface in action.
//
// EAR loads energy policies as plugins implementing the policy API (§V).
// This example implements a new policy out-of-tree — a "power capper"
// that picks the fastest CPU P-state whose predicted DC node power stays
// under a cap, then reuses the library's ImcSearch for the uncore — and
// runs it against min_energy_to_solution on one application.
//
//   ./custom_policy [app-name] [watts-cap]
#include <cstdio>
#include <memory>
#include <string>

#include "common/ini.hpp"
#include "common/table.hpp"
#include "earl/library.hpp"
#include "policies/imc_search.hpp"
#include "policies/policy_api.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace {

using namespace ear;

/// Fastest frequency under a node power cap, plus the explicit uncore
/// search — written exactly as a third-party plugin would write it.
class PowerCapPolicy : public policies::Policy {
 public:
  PowerCapPolicy(policies::PolicyContext ctx, double cap_watts)
      : ctx_(std::move(ctx)),
        cap_w_(cap_watts),
        imc_(ctx_.uncore, ctx_.settings.unc_policy_th,
             ctx_.settings.hw_guided_imc) {}

  [[nodiscard]] std::string name() const override { return "power_cap"; }

  policies::PolicyState apply(const metrics::Signature& sig,
                              policies::NodeFreqs& out) override {
    if (!searching_) {
      // Fastest P-state whose predicted power respects the cap.
      simhw::Pstate selected = ctx_.pstates.min_pstate();
      for (simhw::Pstate p = ctx_.pstates.nominal_pstate();
           p < ctx_.pstates.size(); ++p) {
        const auto pred = ctx_.model->predict(sig, current_, p);
        if (pred.power_w <= cap_w_) {
          selected = p;
          break;
        }
      }
      current_ = selected;
      const common::Freq trial = imc_.start(sig);
      searching_ = true;
      out = policies::NodeFreqs{.cpu_pstate = current_,
                                .imc_max = trial,
                                .imc_min = ctx_.uncore.min()};
      return policies::PolicyState::kContinue;
    }
    const auto d = imc_.step(sig);
    out = policies::NodeFreqs{.cpu_pstate = current_,
                              .imc_max = d.imc_max,
                              .imc_min = ctx_.uncore.min()};
    return d.verdict == policies::ImcSearch::Verdict::kDone
               ? policies::PolicyState::kReady
               : policies::PolicyState::kContinue;
  }

  [[nodiscard]] bool validate(const metrics::Signature& sig) override {
    // Keep the selection while the cap holds and the phase is stable.
    return sig.dc_power_w <= cap_w_ * 1.02;
  }

  void restart() override {
    searching_ = false;
    current_ = ctx_.pstates.nominal_pstate();
    imc_.reset();
  }

  [[nodiscard]] policies::NodeFreqs default_freqs() const override {
    return policies::open_window(ctx_, ctx_.pstates.nominal_pstate());
  }

 private:
  policies::PolicyContext ctx_;
  double cap_w_;
  simhw::Pstate current_ = 1;
  policies::ImcSearch imc_;
  bool searching_ = false;
};

/// Run an app with a custom-constructed session (bypassing the name
/// registry, as a plugin host would).
sim::RunResult run_custom(const workload::AppModel& app, double cap_watts) {
  simhw::Cluster cluster(app.node_config, app.nodes, 99);
  const auto& learned = sim::cached_models(app.node_config);
  earl::EarlSettings settings;  // defaults; policy built by hand below

  std::vector<eard::NodeDaemon> daemons;
  std::vector<std::unique_ptr<earl::EarlSession>> sessions;
  daemons.reserve(app.nodes);
  for (std::size_t n = 0; n < app.nodes; ++n) {
    daemons.emplace_back(cluster.node(n));
    policies::PolicyContext ctx{.pstates = app.node_config.pstates,
                                .uncore = app.node_config.uncore,
                                .model = learned.avx512,
                                .settings = settings.policy_settings};
    sessions.push_back(std::make_unique<earl::EarlSession>(
        daemons.back(),
        std::make_unique<PowerCapPolicy>(std::move(ctx), cap_watts),
        settings, app.is_mpi));
  }

  for (const auto& phase : app.phases) {
    for (std::size_t it = 0; it < phase.iterations; ++it) {
      for (std::size_t n = 0; n < app.nodes; ++n) {
        cluster.node(n).execute_iteration(phase.demand);
        if (app.is_mpi) {
          sessions[n]->on_mpi_calls(phase.mpi_pattern);
        } else {
          sessions[n]->on_time_tick();
        }
      }
    }
  }

  sim::RunResult out;
  out.total_time_s = cluster.max_clock().value;
  out.total_energy_j = cluster.total_energy().value;
  out.avg_dc_power_w =
      out.total_energy_j / out.total_time_s / static_cast<double>(app.nodes);
  const auto& c = cluster.node(0).counters();
  out.avg_cpu_ghz = c.cpu_freq_cycles / c.elapsed_seconds / 1e6;
  out.avg_imc_ghz = c.imc_freq_cycles / c.elapsed_seconds / 1e6;
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string app_name = argc > 1 ? argv[1] : "pop";
  double cap = 320.0;
  try {
    if (argc > 2) cap = common::parse_number(argv[2], "watts-cap");
  } catch (const common::ConfigError& e) {
    std::fprintf(stderr, "custom_policy: %s\n", e.what());
    return 2;
  }

  const workload::AppModel app = workload::make_app(app_name);
  std::printf("Custom power-cap policy on %s (cap %.0f W/node)\n\n",
              app_name.c_str(), cap);

  sim::ExperimentConfig ref_cfg{.app = app,
                                .earl = sim::settings_no_policy(),
                                .seed = 99};
  const auto ref = sim::run_experiment(ref_cfg);
  const auto capped = run_custom(app, cap);

  common::AsciiTable table;
  table.columns({"config", "time (s)", "avg power (W)", "energy (kJ)",
                 "avg CPU", "avg IMC"});
  table.add_row({"no policy", common::AsciiTable::num(ref.total_time_s, 1),
                 common::AsciiTable::num(ref.avg_dc_power_w, 1),
                 common::AsciiTable::num(ref.total_energy_j / 1000, 1),
                 common::AsciiTable::ghz(ref.avg_cpu_ghz),
                 common::AsciiTable::ghz(ref.avg_imc_ghz)});
  table.add_row({"power_cap",
                 common::AsciiTable::num(capped.total_time_s, 1),
                 common::AsciiTable::num(capped.avg_dc_power_w, 1),
                 common::AsciiTable::num(capped.total_energy_j / 1000, 1),
                 common::AsciiTable::ghz(capped.avg_cpu_ghz),
                 common::AsciiTable::ghz(capped.avg_imc_ghz)});
  table.print();

  if (capped.avg_dc_power_w <= cap * 1.02) {
    std::printf("\ncap respected (%.1f W <= %.0f W)\n",
                capped.avg_dc_power_w, cap);
  } else {
    std::printf("\ncap EXCEEDED (%.1f W > %.0f W)\n", capped.avg_dc_power_w,
                cap);
  }
  return 0;
}
