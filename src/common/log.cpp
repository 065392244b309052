#include "common/log.hpp"

#include <atomic>
#include <cstdio>
#include <string>

namespace ear::common {

namespace {
std::atomic<LogLevel> g_level{LogLevel::kWarn};

const char* level_name(LogLevel l) {
  switch (l) {
    case LogLevel::kDebug: return "DEBUG";
    case LogLevel::kInfo: return "INFO";
    case LogLevel::kWarn: return "WARN";
    case LogLevel::kError: return "ERROR";
  }
  return "?";
}
}  // namespace

void set_log_level(LogLevel level) { g_level.store(level); }

LogLevel log_level() { return g_level.load(); }

void logf(LogLevel level, const char* tag, const char* fmt, ...) {
  if (level < g_level.load(std::memory_order_relaxed)) return;
  // The line is formatted whole and written in one call: stdio locks
  // stderr per call, so a line written in pieces can interleave with
  // another thread's.
  std::string line = "[";
  line += level_name(level);
  line += "] ";
  line += tag;
  line += ": ";
  std::va_list args;
  va_start(args, fmt);
  std::va_list measure;
  va_copy(measure, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, measure);
  va_end(measure);
  if (n > 0) {
    const std::size_t head = line.size();
    line.resize(head + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(line.data() + head, static_cast<std::size_t>(n) + 1, fmt,
                   args);
  } else {
    line.push_back('\0');
  }
  va_end(args);
  line.back() = '\n';  // over vsnprintf's terminator
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace ear::common
