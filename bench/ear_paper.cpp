// ear_paper: regenerates the paper's tables and figures, the ablations
// and the extensions, one registered entry each.
//
//   ear_paper --list                   print the entry names
//   ear_paper NAME... [--json FILE]    run the named entries
//   ear_paper all [--json FILE]        run every entry, in order
//
// --json writes every recorded value (entry, table, row, column, unit,
// value and the paper's value where quoted); tests/golden/paper.json is
// `ear_paper all --json` and tests/check_paper_golden.py compares against
// it. The worker count comes from EAR_SIM_JOBS (default: all cores); the
// output is identical at any count.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iterator>
#include <string_view>

#include "common/error.hpp"
#include "paper.hpp"
#include "service/json.hpp"
#include "sim/campaign.hpp"

namespace ear::paper {

void Sink::record(Cell cell) {
  cell.entry = entry_;
  cells_.push_back(std::move(cell));
}

std::string Sink::quote(Cell cell, int precision) {
  std::string shown = cell.unit == Unit::kText
                          ? cell.text
                          : common::AsciiTable::num(cell.value, precision);
  record(std::move(cell));
  return shown;
}

Table::Table(Sink& sink, std::string title)
    : sink_(sink), title_(title), table_(std::move(title)) {}

void Table::columns(std::vector<std::string> names) {
  header_ = names;
  table_.columns(std::move(names));
}

void Table::push(std::string field) {
  fields_.push_back(std::move(field));
  if (fields_.size() < header_.size()) return;
  table_.add_row(std::move(fields_));
  fields_.clear();
  last_labels_ = std::move(labels_);
  labels_.clear();
}

Table& Table::label(std::string s) {
  const std::size_t i = labels_.size();
  labels_.push_back(s.empty() && i < last_labels_.size() ? last_labels_[i]
                                                         : s);
  push(std::move(s));
  return *this;
}

Table& Table::value(std::string shown, Cell cell) {
  for (const std::string& l : labels_) {
    cell.row += (cell.row.empty() ? "" : " / ") + l;
  }
  cell.table = title_;
  cell.column = header_.at(fields_.size());
  sink_.record(std::move(cell));
  push(std::move(shown));
  return *this;
}

void Table::comparison(std::string label, const sim::Comparison& c) {
  this->label(std::move(label))
      .pct(c.time_penalty_pct)
      .pct(c.power_saving_pct)
      .pct(c.energy_saving_pct)
      .pct(c.gbps_penalty_pct)
      .num(c.efficiency_ratio(), 2);
}

void Table::print() const {
  EAR_CHECK_MSG(fields_.empty(), "table printed with a row half built");
  table_.print();
}

sim::AveragedResult run(const workload::AppModel& app,
                        const earl::EarlSettings& settings) {
  sim::ExperimentConfig cfg{.app = app, .earl = settings,
                            .seed = bench::kSeed};
  return sim::run_averaged(cfg, kRuns);
}

std::vector<sim::AveragedResult> run_grid(
    std::vector<sim::ExperimentConfig> cfgs, std::size_t runs) {
  sim::Campaign campaign;
  for (std::size_t i = 0; i < cfgs.size(); ++i) {
    campaign.add(std::to_string(i), std::move(cfgs[i]), runs);
  }
  campaign.run();
  std::vector<sim::AveragedResult> out;
  out.reserve(campaign.results().size());
  for (const auto& r : campaign.results()) out.push_back(r.avg);
  return out;
}

std::vector<sim::AveragedResult> run_grid(
    const workload::AppModel& app,
    const std::vector<earl::EarlSettings>& settings_grid) {
  std::vector<sim::ExperimentConfig> cfgs;
  for (const auto& s : settings_grid) {
    cfgs.push_back({.app = app, .earl = s, .seed = bench::kSeed});
  }
  return run_grid(std::move(cfgs));
}

std::vector<sim::AveragedResult> run_trio(const std::string& app_name,
                                          double cpu_th, double unc_th) {
  return run_grid(workload::make_app(app_name),
                  {sim::settings_no_policy(), sim::settings_me(cpu_th),
                   sim::settings_me_eufs(cpu_th, unc_th)});
}

std::pair<sim::AveragedResult, sim::AveragedResult> no_policy_and_eufs(
    const workload::AppModel& app) {
  return {run(app, sim::settings_no_policy()),
          run(app, sim::settings_me_eufs(0.05, 0.02))};
}

namespace {

struct Entry {
  const char* name;
  const char* banner;
  void (*run)(Sink&);
};

const Entry kEntries[] = {
    {"table1", "Table I: kernel metrics under ME with hardware IMC selection",
     table1},
    {"fig1", "Fig. 1: fixed-uncore frequency sweeps (motivation)", fig1},
    {"table2", "Table II: single-node kernels at nominal frequency", table2},
    {"table3", "Table III: kernel savings, ME vs ME+eU (cpu 5%, unc 2%)",
     table3},
    {"table4", "Table IV: avg CPU and IMC frequency domains (kernels)",
     table4},
    {"table5", "Table V: MPI applications at nominal frequency", table5},
    {"table6", "Table VI: avg CPU and IMC frequency domains (MPI apps)",
     table6},
    {"fig3", "Fig. 3: BQCD savings/penalties vs unc_policy_th "
             "(cpu_policy_th 3%)", fig3},
    {"fig4", "Fig. 4: BT-MZ savings/penalties vs unc_policy_th "
             "(cpu_policy_th 3%)", fig4},
    {"fig5", "Fig. 5: GROMACS(I) — guided vs non-guided uncore search", fig5},
    {"fig6", "Fig. 6: GROMACS(II) — ME vs ME+eU (cpu 5%, unc 2%)", fig6},
    {"fig7", "Fig. 7: HPCG and POP — ME vs ME+eU (cpu 5%, unc 2%)", fig7},
    {"fig8", "Fig. 8: DUMSES and AFiD — threshold interplay (unc 2%)", fig8},
    {"table7", "Table VII: DC node vs RAPL PCK power savings (ME+eU)",
     table7},
    {"ablation_search", "Ablation: HW-guided vs non-guided uncore search",
     ablation_search},
    {"ablation_model", "Ablation: AVX512 model vs default model (prediction "
                       "error, pstates 2.3-1.6 GHz)", ablation_model},
    {"ablation_controllers",
     "Ablation: ME+eU vs controller baselines (UPS/DUF style)",
     ablation_controllers},
    {"ablation_phases",
     "Ablation: signature-change threshold on a phase-changing app",
     ablation_phases},
    {"min_time", "Extension: min_time_to_solution with explicit UFS "
                 "(paper future work)", min_time},
    {"eargm_powercap", "Extension: EARGM cluster power capping (bt-mz.d, "
                       "4 nodes, min_energy_eufs)", eargm_powercap},
    {"ablation_interval", "Ablation: signature interval (bt-mz.d, ME+eU "
                          "5%/2%)", ablation_interval},
    {"classes", "Workload classes and their eUFS outcomes (cpu 5%, unc 2%)",
     classes},
    {"ablation_noise", "Ablation: noise sensitivity of the eUFS search "
                       "(bt-mz.d, cpu 5%, unc 2%)", ablation_noise},
    {"portability", "Extension: architecture portability (ME+eU, cpu 5%, "
                    "unc 2%)", portability},
    {"comm_intensity", "Extension: communication intensity sweep (ME+eU, "
                       "cpu 5%, unc 2%)", comm_intensity},
};

const char* const kUnitNames[] = {"GHz", "%", "count", "other", "text"};

std::string to_json(const std::vector<Cell>& cells) {
  service::JsonWriter w;
  w.begin_object();
  w.key("schema");
  w.value_str("ear_paper_v1");
  w.key("cells");
  w.begin_array();
  for (const Cell& c : cells) {
    w.begin_object();
    for (const auto& [k, v] :
         {std::pair{"entry", &c.entry}, std::pair{"table", &c.table},
          std::pair{"row", &c.row}, std::pair{"column", &c.column}}) {
      w.key(k);
      w.value_str(*v);
    }
    w.key("unit");
    w.value_str(kUnitNames[static_cast<int>(c.unit)]);
    w.key("value");
    if (c.unit == Unit::kText) {
      w.value_str(c.text);
    } else {
      w.value_double(c.value);  // non-finite values are written quoted
    }
    if (c.paper) {
      w.key("paper");
      w.value_double(*c.paper);
    }
    w.end_object();
  }
  w.end_array();
  w.end_object();
  return w.str();
}

int usage(const std::string& why) {
  if (!why.empty()) std::fprintf(stderr, "ear_paper: %s\n", why.c_str());
  std::fprintf(stderr,
               "usage: ear_paper --list\n"
               "       ear_paper (all | NAME...) [--json FILE]\n");
  return 2;
}

}  // namespace

}  // namespace ear::paper

int main(int argc, char** argv) {
  using namespace ear::paper;
  std::vector<const Entry*> selected;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto named = [&](const Entry& e) { return arg == e.name; };
    if (arg == "--list") {
      for (const Entry& e : kEntries) std::printf("%s\n", e.name);
      return 0;
    }
    if (arg == "--json") {
      if (i + 1 == argc) return usage("--json needs a file name");
      json_path = argv[++i];
    } else if (arg == "all") {
      for (const Entry& e : kEntries) selected.push_back(&e);
    } else if (const auto* e = std::find_if(std::begin(kEntries),
                                            std::end(kEntries), named);
               e != std::end(kEntries)) {
      selected.push_back(e);
    } else {
      return usage("unknown entry '" + std::string(arg) + "'");
    }
  }
  if (selected.empty()) return usage("");

  try {
    Sink sink;
    for (const Entry* e : selected) {
      ear::bench::banner(e->banner);
      sink.begin_entry(e->name);
      e->run(sink);
      ear::bench::footer();
    }
    if (!json_path.empty()) {
      std::ofstream out(json_path);
      if (!(out << to_json(sink.cells()) << std::flush)) {
        std::fprintf(stderr, "ear_paper: cannot write %s\n",
                     json_path.c_str());
        return 1;
      }
    }
  } catch (const std::exception& ex) {
    std::fprintf(stderr, "ear_paper: %s\n", ex.what());
    return 1;
  }
  return 0;
}
