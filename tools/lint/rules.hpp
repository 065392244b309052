// ear_lint per-file rules — the v2 rule set plus raw-power-scalar.
//
// Regex line rules (comment-stripped lines):
//   raw-freq-api     Frequency-valued scalars (identifiers ending in
//                    _ghz/_khz/_mhz with an arithmetic type) declared in
//                    headers. Public plumbing must use common::Freq;
//                    "per-GHz" ratio coefficients (identifiers containing
//                    `_per_`) are dimensionless slopes and are exempt.
//   raw-power-scalar Power/energy-valued scalars (identifiers ending in
//                    _w/_watts/_joules with double/float type) declared
//                    in headers. Budget and accounting plumbing must use
//                    common::Power / common::Energy (units.hpp); `_per_`
//                    slopes are exempt here too.
//   banned-call      std::rand/srand (experiments must use the seeded
//                    common/rng splitmix engine) and gettimeofday
//                    (simulated time comes from the node clock).
//   banned-io        printf/fprintf/puts/std::cout/std::cerr outside
//                    common/log and common/table.
//   include-hygiene  Deprecated C headers, non-module-qualified local
//                    includes, and <iostream>.
//   hw-mutation      Direct SimNode/MsrFile mutation outside the simhw/,
//                    eard/ and faults/ layers.
//
// Token dataflow rules (shapes that span lines):
//   nondet-iteration Range-for over an unordered_{map,set} whose body
//                    feeds an accumulator or sequence. Skipped in deep
//                    mode, where the interprocedural nondet-taint pass
//                    subsumes it.
//   hot-path-string-map
//                    std::map/std::unordered_map keyed by std::string in
//                    the hot simulation layers (sim/, dynais/).
#pragma once

#include <vector>

#include "lint/findings.hpp"
#include "lint/source.hpp"

namespace lint {

struct RuleOptions {
  /// Deep mode: the taint pass subsumes nondet-iteration, so the
  /// intraprocedural rule stays quiet to avoid double-reporting.
  bool skip_nondet_iteration = false;
};

/// Run every per-file rule over `file`, appending findings (sorted by
/// line before returning).
void scan_file(const SourceFile& file, const RuleOptions& opts,
               std::vector<Finding>* findings);

/// The intraprocedural nondet-iteration scan: range-for over an
/// unordered container whose body accumulates or appends. Pass 1
/// collects names declared (anywhere in this file) with an
/// unordered_{map,set} type; pass 2 walks every range-for and inspects
/// the loop body's token stream. Exposed so the deep taint pass can
/// subsume the rule: it re-emits these findings under the same id and
/// treats the enclosing functions as nondeterminism sources.
void scan_nondet_iteration(const std::string& rel,
                           const std::vector<Token>& t,
                           std::vector<Finding>* findings);

}  // namespace lint
