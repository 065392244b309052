#include "digest.hpp"

#include <cstdio>

namespace perfbench {

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::uint64_t digest_facility(const ear::sim::FacilityResult& r) {
  Fnv1a h;
  h.u64(r.jobs.size());
  for (const auto& j : r.jobs) {
    h.str(j.name);
    h.u64(j.island);
    h.u64(j.nodes);
    h.f64(j.submit_s);
    h.f64(j.start_s);
    h.f64(j.end_s);
    h.f64(j.energy_j);
  }
  h.u64(r.islands.size());
  for (const auto& i : r.islands) {
    h.str(i.node_type);
    h.u64(i.nodes);
    h.f64(i.energy_j);
    h.f64(i.final_budget_w);
    h.u64(i.final_limit);
    h.u64(i.throttles);
    h.u64(i.releases);
    h.u64(i.blind_rounds);
    h.u64(i.missed_readings);
    h.u64(i.resumed_nodes);
  }
  h.f64(r.makespan_s);
  h.f64(r.facility_energy_j);
  h.f64(r.peak_power_w);
  h.f64(r.budget_w);
  h.u64(r.rounds);
  h.u64(r.cap_overrun_rounds);
  h.f64(r.worst_overrun_w);
  h.u64(r.redistributions);
  h.u64(r.facility_blind_rounds);
  h.u64(r.backfills);
  h.u64(r.peak_pending_jobs);
  h.u64(r.faults.injected());
  h.u64(r.faults.detected());
  h.u64(r.faults.recovered());
  h.u64(r.violations.size());
  for (const std::string& v : r.violations) h.str(v);
  return h.value();
}

void digest_report(Fnv1a& h, const ear::analysis::CheckReport& r) {
  h.u64(r.digest);
  h.u64(r.states);
  h.u64(r.transitions);
  h.u64(r.max_depth);
  h.u64(r.convergence_replays);
  h.u64(r.determinism_replays);
  h.u64(r.ok() ? 1 : 0);
}

}  // namespace perfbench
