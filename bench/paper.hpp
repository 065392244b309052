// ear_paper's entries: each regenerates one of the paper's
// tables or figures, an ablation or an extension, and prints the paper's
// values next to the measured ones where the paper gives them. Every
// value an entry prints goes through a Sink, which formats and records
// it, so one run both prints the tables and feeds `ear_paper --json`
// (and with it tests/golden/paper.json).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "sim/presets.hpp"
#include "sim/report.hpp"
#include "sim/runner.hpp"
#include "workload/catalog.hpp"

namespace ear::paper {

inline constexpr std::size_t kRuns = 3;  // the paper averages three runs

/// What a recorded value measures; it sets the golden file's tolerance.
enum class Unit { kGhz, kPct, kCount, kOther, kText };

/// One recorded value, keyed by (entry, table, row, column); the table
/// is its printed title ("" when untitled).
struct Cell {
  std::string entry;
  std::string table;
  std::string row;
  std::string column;
  Unit unit = Unit::kOther;
  double value = 0.0;           // NaN when the cell reads "n/a"
  std::optional<double> paper;  // the published value, when quoted
  std::string text;             // the value of a Unit::kText cell
};

class Sink {
 public:
  void begin_entry(std::string name) { entry_ = std::move(name); }
  /// Record `cell` under the current entry.
  void record(Cell cell);
  /// Record a value quoted in prose and return it as printed: the text,
  /// or the number formatted like AsciiTable::num.
  [[nodiscard]] std::string quote(Cell cell, int precision = 2);
  [[nodiscard]] const std::vector<Cell>& cells() const { return cells_; }

 private:
  std::string entry_;
  std::vector<Cell> cells_;
};

/// An AsciiTable whose value cells are recorded as they are formatted.
/// A row is its label cells, then its value cells; it is added once it
/// has a cell for every column. The row key joins the labels with " / ",
/// a blank label standing for the one above it (the tables' convention
/// for grouped rows); the column key is the header name.
class Table {
 public:
  explicit Table(Sink& sink, std::string title = {});
  void columns(std::vector<std::string> names);

  Table& label(std::string s);
  // Value cells, formatted by the helpers the tables have always used.
  Table& text(std::string s) {
    return value(s, {.unit = Unit::kText, .text = s});
  }
  Table& vs_paper(double v, double paper, Unit unit, int precision = 2) {
    return value(sim::vs_paper(v, paper, precision),
                 {.unit = unit, .value = v, .paper = paper});
  }
  Table& vs_paper_pct(double v, double paper, int precision = 1) {
    return value(sim::vs_paper_pct(v, paper, precision),
                 {.unit = Unit::kPct, .value = v, .paper = paper});
  }
  Table& num(double v, int precision, Unit unit = Unit::kOther) {
    return value(common::AsciiTable::num(v, precision),
                 {.unit = unit, .value = v});
  }
  Table& pct(double v, int precision = 2) {
    return value(common::AsciiTable::pct(v, precision),
                 {.unit = Unit::kPct, .value = v});
  }
  Table& ghz(double v) { return num(v, 2, Unit::kGhz); }
  Table& count(std::uint64_t n) {
    return value(std::to_string(n),
                 {.unit = Unit::kCount, .value = static_cast<double>(n)});
  }
  /// The comparison row: label, time penalty, power, energy and GB/s
  /// (%), then the efficiency ratio.
  void comparison(std::string label, const sim::Comparison& c);

  void add_separator() { table_.add_separator(); }
  void print() const;

 private:
  Table& value(std::string shown, Cell cell);
  void push(std::string field);

  Sink& sink_;
  std::string title_;
  common::AsciiTable table_;
  std::vector<std::string> header_;
  std::vector<std::string> fields_;       // the row being built
  std::vector<std::string> labels_;       // its labels, blanks filled in
  std::vector<std::string> last_labels_;  // the previous row's
};

/// Run an app under given settings, averaged over kRuns.
sim::AveragedResult run(const workload::AppModel& app,
                        const earl::EarlSettings& settings);

/// Run a grid of configs through the parallel campaign engine (jobs from
/// EAR_SIM_JOBS, default all cores). Results are in input order and
/// bitwise identical to running each config through run() serially.
std::vector<sim::AveragedResult> run_grid(
    std::vector<sim::ExperimentConfig> cfgs, std::size_t runs = kRuns);
/// Grid over (app x settings): one campaign point per pair, kRuns each.
std::vector<sim::AveragedResult> run_grid(
    const workload::AppModel& app,
    const std::vector<earl::EarlSettings>& settings_grid);

/// The trio the paper compares, in order: No policy, ME and ME+eU.
std::vector<sim::AveragedResult> run_trio(const std::string& app_name,
                                          double cpu_th, double unc_th);

/// `app` with no policy and under ME+eU at cpu 5%, unc 2%.
std::pair<sim::AveragedResult, sim::AveragedResult> no_policy_and_eufs(
    const workload::AppModel& app);

// The entries, in `ear_paper all` order: paper_tables.cpp,
// paper_figures.cpp and paper_ablations.cpp define them.
void table1(Sink&), fig1(Sink&), table2(Sink&), table3(Sink&),
    table4(Sink&), table5(Sink&), table6(Sink&), fig3(Sink&), fig4(Sink&),
    fig5(Sink&), fig6(Sink&), fig7(Sink&), fig8(Sink&), table7(Sink&),
    ablation_search(Sink&), ablation_model(Sink&),
    ablation_controllers(Sink&), ablation_phases(Sink&), min_time(Sink&),
    eargm_powercap(Sink&), ablation_interval(Sink&), classes(Sink&),
    ablation_noise(Sink&), portability(Sink&), comm_intensity(Sink&);

}  // namespace ear::paper
