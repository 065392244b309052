// Policy trace: run one application under one policy with verbose EARL
// logging and print the frequency timeline — shows every signature, every
// policy decision and the uncore search converging (Fig. 2 in action).
//
//   ./policy_trace [app-name] [policy] [cpu_th] [unc_th]
#include <cstdio>
#include <string>

#include "common/ini.hpp"
#include "common/log.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "workload/catalog.hpp"

int main(int argc, char** argv) {
  using namespace ear;
  const std::string app_name = argc > 1 ? argv[1] : "bt-mz.d";
  const std::string policy = argc > 2 ? argv[2] : "min_energy_eufs";
  double cpu_th = 0.05;
  double unc_th = 0.02;
  try {
    if (argc > 3) cpu_th = common::parse_number(argv[3], "cpu_th");
    if (argc > 4) unc_th = common::parse_number(argv[4], "unc_th");
  } catch (const common::ConfigError& e) {
    std::fprintf(stderr, "policy_trace: %s\n", e.what());
    return 2;
  }

  common::set_log_level(common::LogLevel::kDebug);

  earl::EarlSettings settings = sim::settings_me_eufs(cpu_th, unc_th);
  settings.policy = policy;

  sim::ExperimentConfig cfg{.app = workload::make_app(app_name),
                            .earl = settings,
                            .seed = 7};
  const sim::RunResult res = sim::run_experiment(cfg);

  std::printf("\nuncore timeline (node 0, downsampled):\n");
  const auto& tl = res.imc_timeline;
  const std::size_t step = tl.size() > 60 ? tl.size() / 60 : 1;
  for (std::size_t i = 0; i < tl.size(); i += step) {
    std::printf("  t=%7.1fs  imc=%.2f GHz\n", tl[i].first, tl[i].second);
  }
  std::printf("\ntotal: time %.1fs, avg power %.1fW, avg CPU %.2f GHz, "
              "avg IMC %.2f GHz\n",
              res.total_time_s, res.avg_dc_power_w, res.avg_cpu_ghz,
              res.avg_imc_ghz);
  return 0;
}
