// Workload spec files: define custom workloads in a small INI-style text
// format instead of recompiling the catalog. Used by the ear_sim CLI
// (--workload-file) and available as a library facility. The grammar
// (comments, sections, numbers, integers) is docs/usage.md §"Input
// files"; one section per workload, named after it:
//
//   [my-app]
//   nodes = 4              ; cluster size
//   ranks_per_node = 40
//   threads_per_rank = 1
//   mpi = true
//   gpu_node = false       ; use the GPU node type
//   total_seconds = 100    ; calibration targets (see CalibrationTargets)
//   iterations = 50
//   cpi = 0.5
//   gbps = 20
//   power = 320
//   vpi = 0.1
//   comm = 0.1
//   relaxed = 0.5
//   stall = 0.2
//   uncore_stall = 0.5
//   gpu_fraction = 0
//   gpus_busy = 0
//   active_cores = 40
#pragma once

#include <istream>
#include <vector>

#include "workload/catalog.hpp"

namespace ear::workload {

/// Parse catalog entries from the INI-style stream. Throws ConfigError on
/// syntax errors, unknown keys, or invalid values. Unspecified keys keep
/// the CalibrationTargets/CatalogEntry defaults.
[[nodiscard]] std::vector<CatalogEntry> parse_spec_file(std::istream& in);

/// Load from a file path.
[[nodiscard]] std::vector<CatalogEntry> load_spec_file(
    const std::string& path);

}  // namespace ear::workload
