// Contract macros.
//
// EAR_CHECK (common/error.hpp) guards conditions whose violation would
// silently corrupt results. The macros here express *contracts* —
// preconditions (EAR_EXPECT), postconditions (EAR_ENSURE) and invariants
// (EAR_INVARIANT) — that document the API. Both are compiled into every
// build.
//
// A violation throws common::ContractViolation (an InvariantError), so
// negative tests can assert that a contract fires.
#pragma once

#include "common/error.hpp"

namespace ear::common::detail {

[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* file, int line,
                                         const std::string& msg) {
  throw ContractViolation(std::string(kind) + " violated: " + expr + " at " +
                          file + ":" + std::to_string(line) +
                          (msg.empty() ? "" : (": " + msg)));
}

}  // namespace ear::common::detail

#define EAR_CONTRACT_IMPL_(kind, expr, msg)                               \
  do {                                                                    \
    if (!(expr))                                                          \
      ::ear::common::detail::contract_failed(kind, #expr, __FILE__,       \
                                             __LINE__, (msg));            \
  } while (false)

/// Precondition: the caller handed us arguments that satisfy the API.
#define EAR_EXPECT(expr) EAR_CONTRACT_IMPL_("precondition", expr, "")
#define EAR_EXPECT_MSG(expr, msg) EAR_CONTRACT_IMPL_("precondition", expr, (msg))

/// Postcondition: what we computed is well-formed before returning it.
#define EAR_ENSURE(expr) EAR_CONTRACT_IMPL_("postcondition", expr, "")
#define EAR_ENSURE_MSG(expr, msg) EAR_CONTRACT_IMPL_("postcondition", expr, (msg))

/// Invariant: internal state is consistent between operations.
#define EAR_INVARIANT(expr) EAR_CONTRACT_IMPL_("invariant", expr, "")
#define EAR_INVARIANT_MSG(expr, msg) \
  EAR_CONTRACT_IMPL_("invariant", expr, (msg))

/// Marks control flow that must never execute: reaching it means the
/// surrounding state machine is broken.
#define EAR_UNREACHABLE(msg)                                              \
  ::ear::common::detail::contract_failed("unreachable", "control reached", \
                                         __FILE__, __LINE__, (msg))
