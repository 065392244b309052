// Error handling helpers.
//
// The library uses exceptions for programmer errors and unrecoverable
// configuration problems (Core Guidelines E.2): simulation code is not on a
// hot path where exception cost matters, and a misconfigured experiment
// should fail loudly rather than produce silently wrong tables.
#pragma once

#include <stdexcept>
#include <string>

namespace ear::common {

/// Thrown when an experiment, workload or hardware description is invalid.
class ConfigError : public std::runtime_error {
 public:
  explicit ConfigError(const std::string& what) : std::runtime_error(what) {}
};

/// Thrown on violation of an internal invariant (a bug in the library).
class InvariantError : public std::logic_error {
 public:
  explicit InvariantError(const std::string& what) : std::logic_error(what) {}
};

/// Thrown by the contract macros (common/contracts.hpp).
/// Derives from InvariantError so callers that already handle invariant
/// failures keep working unchanged.
class ContractViolation : public InvariantError {
 public:
  explicit ContractViolation(const std::string& what) : InvariantError(what) {}
};

namespace detail {
[[noreturn]] inline void check_failed(const char* expr, const char* file,
                                      int line, const std::string& msg) {
  throw InvariantError(std::string("EAR_CHECK failed: ") + expr + " at " +
                       file + ":" + std::to_string(line) +
                       (msg.empty() ? "" : (": " + msg)));
}
}  // namespace detail

}  // namespace ear::common

/// Invariant check that stays enabled in release builds; simulation
/// correctness matters more than the branch cost.
#define EAR_CHECK(expr)                                                     \
  do {                                                                      \
    if (!(expr))                                                            \
      ::ear::common::detail::check_failed(#expr, __FILE__, __LINE__, "");   \
  } while (false)

#define EAR_CHECK_MSG(expr, msg)                                            \
  do {                                                                      \
    if (!(expr))                                                            \
      ::ear::common::detail::check_failed(#expr, __FILE__, __LINE__, (msg)); \
  } while (false)
