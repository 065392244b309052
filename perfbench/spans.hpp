// In-memory span log and per-layer call counters for the traced run.
//
// Spans are recorded only from the benchmark's own code, around its calls
// into the simulator's public API; nothing here reaches inside src/. A
// span has a name, a start, an end and the span that caused it. Spans
// are kept in memory and written out once, when the run ends, so the
// write costs nothing while work is being measured.
#pragma once

#include <array>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Small dense id of the calling thread (first use assigns it).
std::uint32_t thread_index();

struct Span {
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  // 0 = root
  const char* name = "";     // string literal
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint32_t thread = 0;
};

class SpanLog {
 public:
  /// Per-call spans (one per policy call, say) are sampled: only the
  /// first kSampledLimit are kept, the rest only counted, so a traced
  /// run of millions of calls stays a few MB. Counters below cover every
  /// call regardless.
  static constexpr std::size_t kSampledLimit = 1 << 16;

  static SpanLog& instance();

  void set_enabled(bool on) { enabled_.store(on, std::memory_order_relaxed); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Parent for spans opened on a thread with no open span of its own
  /// (worker threads of a pool the workload call spawned).
  void set_thread_root(std::uint64_t id) {
    thread_root_.store(id, std::memory_order_relaxed);
  }

  [[nodiscard]] std::uint64_t next_id() {
    return next_id_.fetch_add(1, std::memory_order_relaxed);
  }
  /// False once the sampled budget is spent (the span is then counted
  /// as dropped instead of recorded).
  bool admit_sampled();
  void record(const Span& s);

  [[nodiscard]] std::size_t recorded() const;
  [[nodiscard]] std::size_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t thread_root() const {
    return thread_root_.load(std::memory_order_relaxed);
  }

  /// Write every recorded span as JSON; returns false on I/O failure.
  bool write_json(const std::string& path) const;

 private:
  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> next_id_{1};
  std::atomic<std::uint64_t> thread_root_{0};
  std::atomic<std::size_t> sampled_{0};
  std::atomic<std::size_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

/// RAII span. Does nothing while the log is disabled, so untraced runs
/// pay one relaxed load per boundary.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* name, bool sampled = false);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ScopedSpan(ScopedSpan&&) = delete;
  ScopedSpan& operator=(ScopedSpan&&) = delete;

  [[nodiscard]] std::uint64_t id() const { return span_.id; }

 private:
  Span span_;
  std::uint64_t saved_parent_ = 0;
  bool active_ = false;
};

/// Thread-safe call counter + busy-time accumulator for one layer
/// boundary. Sharded by thread index so pool workers rarely share a
/// cache line.
class CallStats {
 public:
  void add(std::int64_t ns) {
    Shard& s = shards_[thread_index() % kShards];
    s.calls.fetch_add(1, std::memory_order_relaxed);
    s.ns.fetch_add(ns, std::memory_order_relaxed);
  }
  [[nodiscard]] std::uint64_t calls() const;
  [[nodiscard]] std::int64_t ns() const;
  void reset();

 private:
  static constexpr std::size_t kShards = 64;
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::int64_t> ns{0};
  };
  std::array<Shard, kShards> shards_{};
};

}  // namespace perfbench
