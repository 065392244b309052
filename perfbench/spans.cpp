#include "spans.hpp"

#include <fstream>

namespace perfbench {

namespace {

thread_local std::uint64_t t_open_span = 0;  // innermost open span here

}  // namespace

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}

SpanLog& SpanLog::instance() {
  static SpanLog log;
  return log;
}

bool SpanLog::admit_sampled() {
  if (sampled_.fetch_add(1, std::memory_order_relaxed) < kSampledLimit) {
    return true;
  }
  dropped_.fetch_add(1, std::memory_order_relaxed);
  return false;
}

void SpanLog::record(const Span& s) {
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

std::size_t SpanLog::recorded() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  out << "{\"dropped_sampled\": " << dropped() << ", \"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << s.id
        << ", \"parent\": " << s.parent << ", \"name\": \"" << s.name
        << "\", \"start_ns\": " << s.start_ns << ", \"end_ns\": " << s.end_ns
        << ", \"thread\": " << s.thread << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(const char* name, bool sampled) {
  SpanLog& log = SpanLog::instance();
  if (!log.enabled() || (sampled && !log.admit_sampled())) return;
  active_ = true;
  saved_parent_ = t_open_span;
  span_.id = log.next_id();
  span_.parent = t_open_span != 0 ? t_open_span : log.thread_root();
  span_.name = name;
  span_.thread = thread_index();
  t_open_span = span_.id;
  span_.start_ns = now_ns();
}

ScopedSpan::~ScopedSpan() {
  if (!active_) return;
  span_.end_ns = now_ns();
  t_open_span = saved_parent_;
  SpanLog::instance().record(span_);
}

std::uint64_t CallStats::calls() const {
  std::uint64_t n = 0;
  for (const Shard& s : shards_) n += s.calls.load(std::memory_order_relaxed);
  return n;
}

std::int64_t CallStats::ns() const {
  std::int64_t n = 0;
  for (const Shard& s : shards_) n += s.ns.load(std::memory_order_relaxed);
  return n;
}

void CallStats::reset() {
  for (Shard& s : shards_) {
    s.calls.store(0, std::memory_order_relaxed);
    s.ns.store(0, std::memory_order_relaxed);
  }
}

}  // namespace perfbench
