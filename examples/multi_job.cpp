// Multi-job cluster scenario: three jobs with staggered submissions share
// a 9-node cluster under one EARGM power budget; the per-node EARL
// instances keep optimising underneath the cap, and everything lands in
// the EARDBD job database.
//
//   ./multi_job [budget_watts]   (0 = unmanaged; default 2600)
#include <cstdio>
#include <sstream>

#include "common/ini.hpp"
#include "common/table.hpp"
#include "eard/eardbd.hpp"
#include "sim/presets.hpp"
#include "sim/schedule.hpp"
#include "workload/catalog.hpp"

int main(int argc, char** argv) {
  using namespace ear;
  double budget = 2600.0;
  try {
    if (argc > 1) budget = common::parse_number(argv[1], "budget_watts");
  } catch (const common::ConfigError& e) {
    std::fprintf(stderr, "multi_job: %s\n", e.what());
    return 2;
  }

  sim::ScheduleConfig cfg;
  cfg.node_config = simhw::make_skylake_6148_node();
  cfg.cluster_nodes = 9;
  cfg.seed = 31;
  cfg.jobs = {
      sim::JobSpec{.app = workload::make_app("bt-mz.d"),  // 4 nodes
                   .earl = sim::settings_me_eufs(0.05, 0.02),
                   .first_node = 0,
                   .start_time_s = 0.0},
      sim::JobSpec{.app = workload::make_app("hpcg"),  // 4 nodes
                   .earl = sim::settings_me_eufs(0.05, 0.02),
                   .first_node = 4,
                   .start_time_s = 60.0},
      sim::JobSpec{.app = workload::make_app("bt-mz.c.omp"),  // 1 node
                   .earl = sim::settings_me(0.05),
                   .first_node = 8,
                   .start_time_s = 120.0},
  };
  if (budget > 0.0) {
    cfg.eargm = eargm::EargmConfig{.cluster_budget = {budget}};
  }

  const sim::ScheduleResult res = sim::run_schedule(cfg);

  common::AsciiTable table(budget > 0.0
                               ? "Schedule under a " +
                                     common::AsciiTable::num(budget, 0) +
                                     " W cluster budget"
                               : "Unmanaged schedule");
  table.columns({"job", "policy", "start (s)", "elapsed (s)",
                 "energy (kJ)", "avg CPU", "avg IMC"});
  for (const auto& j : res.jobs) {
    table.add_row({j.app_name, j.policy,
                   common::AsciiTable::num(j.start_s, 0),
                   common::AsciiTable::num(j.elapsed_s(), 1),
                   common::AsciiTable::num(j.energy_j / 1000, 1),
                   common::AsciiTable::ghz(j.avg_cpu_ghz),
                   common::AsciiTable::ghz(j.avg_imc_ghz)});
  }
  table.print();
  std::printf("\nmakespan %.1fs, cluster energy %.2f MJ, peak aggregate "
              "%.0f W, EARGM throttle events: %zu\n",
              res.makespan_s, res.cluster_energy_j / 1e6,
              res.peak_aggregate_w, res.eargm_throttles);

  // Operators query the database afterwards.
  eard::JobDatabase db;
  db.ingest(res.accounting);
  std::printf("\nEARDBD top consumers:\n");
  for (const auto& [app, joules] : db.top_consumers(3)) {
    std::printf("  %-12s %.1f kJ\n", app.c_str(), joules / 1000);
  }
  return 0;
}
