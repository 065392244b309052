// Contract macros for checked builds.
//
// EAR_CHECK (common/error.hpp) stays enabled everywhere and guards
// conditions whose violation would silently corrupt results. The macros
// here express *contracts* — preconditions (EAR_EXPECT), postconditions
// (EAR_ENSURE) and invariants (EAR_INVARIANT) — that document the API and
// are verified only in checked builds: Debug, the sanitizer CI jobs, and
// any build configured with -DEAR_CONTRACTS=ON (the default). Release
// packaging builds pass -DEAR_CONTRACTS=OFF and compile the checks down
// to nothing; callees then fall back on their documented degraded
// behaviour (clamping, saturation) instead of throwing.
//
// A violation throws common::ContractViolation (an InvariantError), so
// negative tests can assert that a contract fires.
#pragma once

#include "common/error.hpp"

// Normally injected by the build system via the EAR_CONTRACTS CMake
// option; standalone header users fall back on NDEBUG.
#if !defined(EAR_CONTRACTS_ENABLED)
#if defined(NDEBUG)
#define EAR_CONTRACTS_ENABLED 0
#else
#define EAR_CONTRACTS_ENABLED 1
#endif
#endif

namespace ear::common {

/// True when contract checks are compiled in. Tests use this to skip
/// negative contract tests in builds that compile the checks out.
[[nodiscard]] constexpr bool contracts_enabled() {
  return EAR_CONTRACTS_ENABLED != 0;
}

namespace detail {
[[noreturn]] inline void contract_failed(const char* kind, const char* expr,
                                         const char* file, int line,
                                         const std::string& msg) {
  throw ContractViolation(std::string(kind) + " violated: " + expr + " at " +
                          file + ":" + std::to_string(line) +
                          (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace ear::common

#if EAR_CONTRACTS_ENABLED
#define EAR_CONTRACT_IMPL_(kind, expr, msg)                               \
  do {                                                                    \
    if (!(expr))                                                          \
      ::ear::common::detail::contract_failed(kind, #expr, __FILE__,       \
                                             __LINE__, (msg));            \
  } while (false)
#else
// Parse but never evaluate the condition, so disabling contracts cannot
// change which expressions compile.
#define EAR_CONTRACT_IMPL_(kind, expr, msg) \
  do {                                      \
    (void)sizeof(!(expr));                  \
  } while (false)
#endif

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

/// Marks control flow that must never execute. Active in every build:
/// reaching it means the surrounding state machine is broken, and there
/// is no sensible degraded behaviour to fall back on.
#define EAR_UNREACHABLE(msg)                                              \
  ::ear::common::detail::contract_failed("unreachable", "control reached", \
                                         __FILE__, __LINE__, (msg))
