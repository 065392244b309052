// The facility round loop: the executable specification sim::run_facility
// (the event core) is differentially tested against. A plain serial loop
// (cfg.sim_jobs is ignored) that steps every node one iteration at a time
// to each control-round boundary. With the UFS dither gate closed the
// event core reproduces it bitwise; otherwise within the tolerance
// docs/performance.md §6 derives.
#pragma once

#include "sim/facility.hpp"

namespace ear::sim::oracle {

[[nodiscard]] FacilityResult run_facility_reference(const FacilityConfig& cfg);

}  // namespace ear::sim::oracle
