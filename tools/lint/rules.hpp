// ear_lint rules. Each one sees a single file: a rule that needs a
// second translation unit to decide is a job for the tests and the
// sanitizer builds (docs/development.md, "Lint audit by planted
// mutants").
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
//                    feeds an accumulator or sequence.
//   hot-path-string-map
//                    std::map/std::unordered_map keyed by std::string in
//                    the hot simulation layers (sim/, dynais/).
#pragma once

#include <vector>

#include "lint/findings.hpp"
#include "lint/source.hpp"

namespace lint {

/// Run every per-file rule over `file`, appending findings (sorted by
/// line before returning).
void scan_file(const SourceFile& file, std::vector<Finding>* findings);

}  // namespace lint
