#include "faults/fault_plan.hpp"

#include <array>
#include <fstream>
#include <limits>
#include <set>

#include "common/error.hpp"
#include "common/ini.hpp"

namespace ear::faults {

using common::ConfigError;

namespace {

struct FamilyName {
  const char* name;
  FaultFamily family;
};

constexpr std::array<FamilyName, 8> kFamilies{{
    {"msr_drop", FaultFamily::kMsrDrop},
    {"msr_lock", FaultFamily::kMsrLock},
    {"inm_stuck", FaultFamily::kInmStuck},
    {"inm_noise", FaultFamily::kInmNoise},
    {"pmu_glitch", FaultFamily::kPmuGlitch},
    {"snapshot_drop", FaultFamily::kSnapshotDrop},
    {"node_dropout", FaultFamily::kNodeDropout},
    {"island_dropout", FaultFamily::kIslandDropout},
}};

FaultFamily family_of(const common::IniSection& section) {
  for (const auto& [name, family] : kFamilies) {
    if (section.name == name) return family;
  }
  throw section.error("unknown fault family '" + section.name + "'");
}

void apply(FaultSpec& f, const common::IniEntry& kv) {
  const std::string& key = kv.key;
  // Targets are an index or -1, "every node/socket/island".
  const auto target = [&] {
    return kv.integer(-1, std::numeric_limits<int>::max());
  };
  if (key == "node") {
    f.node = target();
  } else if (key == "socket") {
    f.socket = target();
  } else if (key == "island") {
    f.island = target();
  } else if (key == "start") {
    f.start_s = kv.number();
  } else if (key == "end") {
    f.end_s = kv.number();
  } else if (key == "at") {
    // One-shot shorthand (mid-run locks): active from this instant on.
    f.start_s = kv.number();
  } else if (key == "probability") {
    f.probability = kv.number();
    if (f.probability < 0.0 || f.probability > 1.0) {
      throw kv.error("probability must be in [0, 1]");
    }
  } else if (key == "magnitude") {
    f.magnitude = kv.number();
    if (f.magnitude < 0.0) throw kv.error("magnitude must be non-negative");
  } else if (key == "register") {
    f.reg = kv.integer<std::uint32_t>();
  } else {
    throw kv.error("unknown key '" + key + "'");
  }
}

void validate(const FaultSpec& f, const common::IniSection& section) {
  if (f.end_s <= f.start_s) {
    throw section.error("empty fault window (end <= start)");
  }
  if (f.family == FaultFamily::kInmNoise && f.magnitude <= 0.0) {
    throw section.error("inm_noise needs a magnitude (joules)");
  }
}

}  // namespace

const char* family_name(FaultFamily f) {
  for (const auto& [name, family] : kFamilies) {
    if (family == f) return name;
  }
  return "unknown";
}

std::size_t FaultPlan::family_count() const {
  std::set<FaultFamily> seen;
  for (const FaultSpec& f : specs) seen.insert(f.family);
  return seen.size();
}

bool FaultPlan::has_family(FaultFamily f) const {
  for (const FaultSpec& s : specs) {
    if (s.family == f) return true;
  }
  return false;
}

FaultPlan parse_fault_plan(std::istream& in) {
  FaultPlan plan;
  for (const common::IniSection& section :
       common::read_ini(in, "fault plan")) {
    FaultSpec& f = plan.specs.emplace_back();
    f.family = family_of(section);
    for (const common::IniEntry& kv : section.entries) apply(f, kv);
    validate(f, section);
  }
  if (plan.specs.empty()) throw ConfigError("fault plan defines no faults");
  return plan;
}

FaultPlan load_fault_plan(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open fault plan: " + path);
  return parse_fault_plan(in);
}

}  // namespace ear::faults
