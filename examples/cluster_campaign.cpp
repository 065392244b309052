// Cluster campaign: run the full application catalog under a policy, as a
// data-centre operator would evaluate EAR fleet-wide, and write the EARD
// accounting records plus a per-app summary CSV. The {app x policy}
// grid fans out over the parallel campaign engine.
//
//   ./cluster_campaign [policy] [out.csv] [--jobs N] [--progress]
// Policies: monitoring, min_energy, min_energy_eufs, min_energy_ngufs,
//           min_time, min_time_eufs, ups, duf
// Jobs default to EAR_SIM_JOBS or all cores; --jobs 1 runs serially and
// produces bitwise-identical numbers.
#include <cstdio>
#include <fstream>
#include <string>

#include "common/args.hpp"
#include "common/csv.hpp"
#include "common/table.hpp"
#include "sim/campaign.hpp"
#include "sim/experiment.hpp"
#include "sim/presets.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

int main(int argc, char** argv) {
  using namespace ear;
  const common::ArgParser args(argc, argv, {"progress"});
  const std::string policy = args.positional_or(0, "min_energy_eufs");
  const std::string csv_path = args.positional_or(1, "campaign.csv");
  const auto jobs = args.get("jobs", std::uint64_t{0});

  earl::EarlSettings settings = sim::settings_me_eufs(0.05, 0.02);
  settings.policy = policy;

  // Two campaign points per app — the no-policy reference and the policy
  // under test — all evaluated concurrently.
  sim::Campaign campaign(
      sim::CampaignOptions{.jobs = jobs, .progress = args.flag("progress")});
  std::vector<workload::AppModel> apps;
  for (const auto& name : workload::application_names()) {
    const workload::AppModel app = workload::make_app(name);
    campaign.add(name + "/reference",
                 sim::ExperimentConfig{.app = app,
                                       .earl = sim::settings_no_policy(),
                                       .seed = 7});
    campaign.add(name + "/" + policy,
                 sim::ExperimentConfig{.app = app, .earl = settings,
                                       .seed = 7});
    apps.push_back(app);
  }
  const auto& results = campaign.run();

  std::ofstream csv_file(csv_path);
  common::CsvWriter csv(csv_file);
  csv.header({"app", "policy", "nodes", "time_s", "time_penalty_pct",
              "energy_kj", "energy_saving_pct", "power_saving_pct",
              "avg_cpu_ghz", "avg_imc_ghz"});

  common::AsciiTable table("Campaign: " + policy + " across the catalog");
  table.columns({"app", "nodes", "time penalty", "power saving",
                 "energy saving", "node-hours", "energy (MJ)"});

  double total_energy_ref = 0.0, total_energy_pol = 0.0;
  double total_node_seconds = 0.0;
  for (std::size_t a = 0; a < apps.size(); ++a) {
    const workload::AppModel& app = apps[a];
    const sim::AveragedResult& ref = results[2 * a].avg;
    const sim::AveragedResult& res = results[2 * a + 1].avg;
    const auto c = sim::compare(ref, res);

    total_energy_ref += ref.total_energy_j;
    total_energy_pol += res.total_energy_j;
    total_node_seconds += res.total_time_s * static_cast<double>(app.nodes);

    table.add_row(
        {app.name, std::to_string(app.nodes),
         common::AsciiTable::pct(c.time_penalty_pct),
         common::AsciiTable::pct(c.power_saving_pct),
         common::AsciiTable::pct(c.energy_saving_pct),
         common::AsciiTable::num(
             res.total_time_s * static_cast<double>(app.nodes) / 3600, 2),
         common::AsciiTable::num(res.total_energy_j / 1e6, 2)});
    csv.row({app.name, policy, std::to_string(app.nodes),
             common::CsvWriter::num(res.total_time_s, 1),
             common::CsvWriter::num(c.time_penalty_pct, 2),
             common::CsvWriter::num(res.total_energy_j / 1000, 1),
             common::CsvWriter::num(c.energy_saving_pct, 2),
             common::CsvWriter::num(c.power_saving_pct, 2),
             common::CsvWriter::num(res.avg_cpu_ghz, 3),
             common::CsvWriter::num(res.avg_imc_ghz, 3)});
  }
  table.print();

  const double fleet_saving =
      100.0 * (1.0 - total_energy_pol / total_energy_ref);
  std::printf("\nFleet summary: %.1f node-hours simulated, %.2f MJ consumed "
              "(%.2f MJ without the policy)\n=> %.2f%% fleet energy saving "
              "with %s.\nCampaign wall time %.2fs over %zu points.\n"
              "Per-app records written to %s.\n",
              total_node_seconds / 3600, total_energy_pol / 1e6,
              total_energy_ref / 1e6, fleet_saving, policy.c_str(),
              campaign.wall_seconds(), campaign.size(), csv_path.c_str());
  return 0;
}
