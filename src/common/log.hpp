// Leveled logging to stderr. Off (kWarn) by default so tests and benches
// stay quiet; EARL verbose tracing can be enabled per-experiment.
#pragma once

#include <cstdarg>

namespace ear::common {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3 };

/// Global threshold; messages below it are dropped.
void set_log_level(LogLevel level);
[[nodiscard]] LogLevel log_level();

/// printf-style logging. `tag` identifies the subsystem ("earl", "policy"...).
void logf(LogLevel level, const char* tag, const char* fmt, ...)
    __attribute__((format(printf, 3, 4)));

}  // namespace ear::common

/// Log at `level` if it passes the threshold. The arguments are
/// evaluated only then: a dropped message builds no strings.
#define EAR_LOG_AT(level, tag, ...)                               \
  do {                                                            \
    if ((level) >= ::ear::common::log_level()) {                  \
      ::ear::common::logf((level), (tag), __VA_ARGS__);           \
    }                                                             \
  } while (false)

#define EAR_LOG_DEBUG(tag, ...) \
  EAR_LOG_AT(::ear::common::LogLevel::kDebug, tag, __VA_ARGS__)
#define EAR_LOG_INFO(tag, ...) \
  EAR_LOG_AT(::ear::common::LogLevel::kInfo, tag, __VA_ARGS__)
#define EAR_LOG_WARN(tag, ...) \
  EAR_LOG_AT(::ear::common::LogLevel::kWarn, tag, __VA_ARGS__)
#define EAR_LOG_ERROR(tag, ...) \
  EAR_LOG_AT(::ear::common::LogLevel::kError, tag, __VA_ARGS__)
