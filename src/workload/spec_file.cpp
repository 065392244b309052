#include "workload/spec_file.hpp"

#include <fstream>
#include <string>

#include "common/error.hpp"
#include "common/ini.hpp"

namespace ear::workload {

using common::ConfigError;

namespace {

void apply(CatalogEntry& e, const common::IniEntry& kv) {
  const std::string& key = kv.key;
  const auto num = [&] { return kv.number(); };
  const auto whole = [&] { return kv.integer<std::size_t>(); };
  if (key == "description") {
    e.description = kv.value;
  } else if (key == "nodes") {
    e.nodes = whole();
  } else if (key == "ranks_per_node") {
    e.ranks_per_node = whole();
  } else if (key == "threads_per_rank") {
    e.threads_per_rank = whole();
  } else if (key == "mpi") {
    e.is_mpi = kv.boolean();
  } else if (key == "gpu_node") {
    e.node_kind = kv.boolean() ? NodeKind::kSkylake6142mGpu
                               : NodeKind::kSkylake6148;
  } else if (key == "total_seconds") {
    e.targets.total_seconds = num();
  } else if (key == "iterations") {
    e.targets.iterations = whole();
  } else if (key == "cpi") {
    e.targets.cpi = num();
  } else if (key == "gbps") {
    e.targets.gbps = num();
  } else if (key == "power") {
    e.targets.dc_power_watts = num();
  } else if (key == "vpi") {
    e.targets.vpi = num();
  } else if (key == "comm") {
    e.targets.comm_fraction = num();
  } else if (key == "relaxed") {
    e.targets.relaxed_share = num();
  } else if (key == "stall") {
    e.targets.mem_stall_share = num();
  } else if (key == "uncore_stall") {
    e.targets.uncore_stall_share = num();
  } else if (key == "gpu_fraction") {
    e.targets.gpu_fraction = num();
  } else if (key == "gpus_busy") {
    e.targets.gpus_busy = whole();
  } else if (key == "active_cores") {
    e.targets.active_cores = whole();
  } else {
    throw kv.error("unknown key '" + key + "'");
  }
}

}  // namespace

std::vector<CatalogEntry> parse_spec_file(std::istream& in) {
  std::vector<CatalogEntry> entries;
  for (const common::IniSection& section : common::read_ini(in, "spec file")) {
    CatalogEntry& e = entries.emplace_back();
    e.name = section.name;
    e.description = "user workload '" + e.name + "'";
    for (const common::IniEntry& kv : section.entries) apply(e, kv);
  }
  if (entries.empty()) throw ConfigError("spec file defines no workloads");
  return entries;
}

std::vector<CatalogEntry> load_spec_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open spec file: " + path);
  return parse_spec_file(in);
}

}  // namespace ear::workload
