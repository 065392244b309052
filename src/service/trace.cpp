#include "service/trace.hpp"

#include <cmath>
#include <utility>

#include "common/contracts.hpp"

namespace ear::service {

namespace {

constexpr std::string_view kMagic = "EARTRC01";
constexpr std::string_view kTailMagic = "EARTRCEN";

/// Delta state for one chunk; reset at every chunk boundary so chunks
/// decode independently.
struct DeltaState {
  std::uint64_t iteration = 0;
  std::int64_t t_us = 0;
  std::uint64_t cpu_khz = 0;
  std::uint64_t imc_khz = 0;
  std::uint64_t milliwatts = 0;
  std::uint64_t signatures = 0;
};

std::int64_t delta_u64(std::uint64_t now, std::uint64_t prev) {
  return static_cast<std::int64_t>(now) - static_cast<std::int64_t>(prev);
}

void encode_event(ByteWriter* w, const TraceEvent& e, DeltaState* st) {
  w->u8(static_cast<std::uint8_t>(e.kind));
  switch (e.kind) {
    case TraceEventKind::kPhase:
      w->varint(e.phase);
      w->varint(e.iterations);
      break;
    case TraceEventKind::kIteration:
      w->varint(e.phase);
      w->svarint(delta_u64(e.iteration, st->iteration));
      w->svarint(e.t_us - st->t_us);
      w->svarint(delta_u64(e.cpu_freq.as_khz(), st->cpu_khz));
      w->svarint(delta_u64(e.imc_freq.as_khz(), st->imc_khz));
      w->svarint(delta_u64(e.milliwatts, st->milliwatts));
      w->u8(e.earl_state);
      w->svarint(delta_u64(e.signatures, st->signatures));
      st->iteration = e.iteration;
      st->t_us = e.t_us;
      st->cpu_khz = e.cpu_freq.as_khz();
      st->imc_khz = e.imc_freq.as_khz();
      st->milliwatts = e.milliwatts;
      st->signatures = e.signatures;
      break;
    case TraceEventKind::kFault:
      // Fault events sit outside the iteration delta chain (they are
      // appended after the run, with the clock rewound); absolute time.
      w->svarint(e.t_us);
      w->varint(e.node);
      w->u8(e.family);
      break;
  }
}

TraceEvent decode_event(ByteReader* r, DeltaState* st) {
  TraceEvent e;
  const std::uint8_t kind = r->u8();
  if (kind < 1 || kind > 3) {
    throw WireError("unknown trace event kind " + std::to_string(kind));
  }
  e.kind = static_cast<TraceEventKind>(kind);
  switch (e.kind) {
    case TraceEventKind::kPhase:
      e.phase = r->varint();
      e.iterations = r->varint();
      break;
    case TraceEventKind::kIteration: {
      e.phase = r->varint();
      e.iteration = st->iteration + static_cast<std::uint64_t>(r->svarint());
      e.t_us = st->t_us + r->svarint();
      const auto khz = [](std::uint64_t prev, std::int64_t d) {
        return common::Freq::khz(prev + static_cast<std::uint64_t>(d));
      };
      e.cpu_freq = khz(st->cpu_khz, r->svarint());
      e.imc_freq = khz(st->imc_khz, r->svarint());
      e.milliwatts =
          st->milliwatts + static_cast<std::uint64_t>(r->svarint());
      e.earl_state = r->u8();
      e.signatures =
          st->signatures + static_cast<std::uint64_t>(r->svarint());
      st->iteration = e.iteration;
      st->t_us = e.t_us;
      st->cpu_khz = e.cpu_freq.as_khz();
      st->imc_khz = e.imc_freq.as_khz();
      st->milliwatts = e.milliwatts;
      st->signatures = e.signatures;
      break;
    }
    case TraceEventKind::kFault:
      e.t_us = r->svarint();
      e.node = static_cast<std::uint32_t>(r->varint());
      e.family = r->u8();
      break;
  }
  return e;
}

void append_block(std::string* file, std::string_view payload) {
  // The length field is u32; a payload over 4 GiB would silently
  // truncate and desync every offset in the directory after it.
  EAR_EXPECT(payload.size() <= 0xFFFFFFFFu);
  ByteWriter w;
  w.u32(static_cast<std::uint32_t>(payload.size()));
  w.raw(payload);
  w.u32(crc32(payload));
  file->append(w.bytes());
}

/// Read a u32-length + payload + u32-CRC block starting at `offset`.
std::string_view checked_block(std::string_view bytes, std::size_t offset,
                               const char* what) {
  ByteReader r(bytes.substr(offset));
  const std::uint32_t len = r.u32();
  // 64-bit on purpose: a corrupted length near UINT32_MAX would wrap a
  // 32-bit `len + 4` to a tiny value and sail past the truncation check.
  if (r.remaining() < static_cast<std::uint64_t>(len) + 4) {
    throw WireError(std::string(what) + " truncated");
  }
  const std::string_view payload = bytes.substr(offset + 4, len);
  ByteReader tail(bytes.substr(offset + 4 + len, 4));
  if (crc32(payload) != tail.u32()) {
    throw WireError(std::string(what) + " CRC mismatch (file corrupt)");
  }
  return payload;
}

}  // namespace

std::int64_t quantise_us(double seconds) {
  return std::llround(seconds * 1e6);
}

std::uint64_t quantise_milliwatts(common::Power p) {
  const long long mw = std::llround(p.value * 1000.0);
  return mw > 0 ? static_cast<std::uint64_t>(mw) : 0;
}

TraceWriter::TraceWriter(TraceMeta meta, std::size_t chunk_events)
    : chunk_events_(chunk_events == 0 ? 1 : chunk_events) {
  file_.append(kMagic);
  ByteWriter h;
  h.u32(kTraceFormatVersion);
  h.str(meta.stamp);
  h.str(meta.label);
  h.str(meta.app);
  h.str(meta.policy);
  h.varint(meta.point);
  h.varint(meta.run);
  h.u64(meta.seed);
  append_block(&file_, h.bytes());
}

void TraceWriter::add(const TraceEvent& e) {
  open_.push_back(e);
  if (open_.size() >= chunk_events_) seal_chunk();
}

void TraceWriter::seal_chunk() {
  if (open_.empty()) return;
  DirEntry entry;
  entry.first = total_;
  entry.count = open_.size();
  entry.offset = file_.size();
  ByteWriter w;
  w.varint(entry.first);
  w.varint(entry.count);
  DeltaState st;
  for (const TraceEvent& e : open_) encode_event(&w, e, &st);
  append_block(&file_, w.bytes());
  dir_.push_back(entry);
  total_ += open_.size();
  open_.clear();
}

std::string TraceWriter::finish() {
  seal_chunk();
  const std::uint64_t dir_offset = file_.size();
  ByteWriter d;
  d.varint(dir_.size());
  for (const DirEntry& e : dir_) {
    d.varint(e.first);
    d.varint(e.count);
    d.u64(e.offset);
  }
  append_block(&file_, d.bytes());
  ByteWriter f;
  f.u64(dir_offset);
  f.raw(kTailMagic);
  file_.append(f.bytes());
  return std::move(file_);
}

TraceReader::TraceReader(std::string bytes) : bytes_(std::move(bytes)) {
  const std::size_t footer = 16;
  if (bytes_.size() < kMagic.size() + footer ||
      std::string_view(bytes_).substr(0, kMagic.size()) != kMagic) {
    throw WireError("not a trace file (bad magic)");
  }
  if (std::string_view(bytes_).substr(bytes_.size() - kTailMagic.size()) !=
      kTailMagic) {
    throw WireError("trace footer missing (file truncated?)");
  }
  ByteReader foot(
      std::string_view(bytes_).substr(bytes_.size() - footer, 8));
  const std::uint64_t dir_offset = foot.u64();
  // Subtraction, not `dir_offset + 8 > size`: a corrupted offset near
  // UINT64_MAX would wrap the addition (size >= 24 was checked above).
  if (dir_offset < kMagic.size() || dir_offset > bytes_.size() - 8) {
    throw WireError("trace directory offset out of range");
  }

  const std::string_view header =
      checked_block(bytes_, kMagic.size(), "trace header");
  ByteReader h(header);
  const std::uint32_t format = h.u32();
  if (format != kTraceFormatVersion) {
    throw WireError("trace format v" + std::to_string(format) +
                    " (this binary reads v" +
                    std::to_string(kTraceFormatVersion) + ")");
  }
  meta_.stamp = h.str();
  meta_.label = h.str();
  meta_.app = h.str();
  meta_.policy = h.str();
  meta_.point = h.varint();
  meta_.run = h.varint();
  meta_.seed = h.u64();

  const std::string_view dir =
      checked_block(bytes_, dir_offset, "trace directory");
  ByteReader d(dir);
  const std::uint64_t chunks = d.varint();
  dir_.reserve(chunks);
  for (std::uint64_t i = 0; i < chunks; ++i) {
    DirEntry e;
    e.first = d.varint();
    e.count = d.varint();
    e.offset = d.u64();
    if (e.first != total_) {
      throw WireError("trace directory indices are not contiguous");
    }
    if (e.offset > bytes_.size() - 8) {  // subtraction: no u64 wrap
      throw WireError("trace chunk offset out of range");
    }
    total_ += e.count;
    dir_.push_back(e);
  }
}

void TraceReader::load_chunk(std::size_t idx) {
  const DirEntry& entry = dir_[idx];
  const std::string_view payload =
      checked_block(bytes_, entry.offset, "trace chunk");
  ByteReader r(payload);
  if (r.varint() != entry.first || r.varint() != entry.count) {
    throw WireError("trace chunk header disagrees with the directory");
  }
  std::vector<TraceEvent> events;
  events.reserve(entry.count);
  DeltaState st;
  for (std::uint64_t i = 0; i < entry.count; ++i) {
    events.push_back(decode_event(&r, &st));
  }
  if (!r.at_end()) {
    throw WireError("trace chunk has trailing garbage");
  }
  cache_ = std::move(events);
  cached_chunk_ = idx;
}

const TraceEvent& TraceReader::at(std::uint64_t i) {
  if (i >= total_) {
    throw WireError("trace event index " + std::to_string(i) +
                    " out of range (have " + std::to_string(total_) + ")");
  }
  if (cached_chunk_ == SIZE_MAX || i < dir_[cached_chunk_].first ||
      i >= dir_[cached_chunk_].first + dir_[cached_chunk_].count) {
    // Binary search the directory for the chunk containing i.
    std::size_t lo = 0;
    std::size_t hi = dir_.size();
    while (lo + 1 < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (dir_[mid].first <= i) {
        lo = mid;
      } else {
        hi = mid;
      }
    }
    load_chunk(lo);
  }
  return cache_[i - dir_[cached_chunk_].first];
}

std::string describe_event(const TraceEvent& e) {
  switch (e.kind) {
    case TraceEventKind::kPhase:
      return "phase " + std::to_string(e.phase) + " begin (" +
             std::to_string(e.iterations) + " iterations)";
    case TraceEventKind::kIteration:
      return "iter " + std::to_string(e.iteration) + " phase " +
             std::to_string(e.phase) + " t=" + std::to_string(e.t_us) +
             "us cpu=" + e.cpu_freq.str() + " imc=" + e.imc_freq.str() +
             " p=" + std::to_string(e.milliwatts) +
             "mW state=" + std::to_string(e.earl_state) +
             " sig=" + std::to_string(e.signatures);
    case TraceEventKind::kFault:
      return "fault family=" + std::to_string(e.family) + " node=" +
             std::to_string(e.node) + " t=" + std::to_string(e.t_us) + "us";
  }
  return "?";
}

namespace {

void describe_field_diffs(const TraceEvent& a, const TraceEvent& b,
                          std::string* out) {
  const auto field = [out](const char* name, std::uint64_t va,
                           std::uint64_t vb) {
    if (va == vb) return;
    if (!out->empty()) *out += ", ";
    *out += std::string(name) + " " + std::to_string(va) + " vs " +
            std::to_string(vb);
  };
  field("kind", static_cast<std::uint64_t>(a.kind),
        static_cast<std::uint64_t>(b.kind));
  field("phase", a.phase, b.phase);
  field("iterations", a.iterations, b.iterations);
  field("iteration", a.iteration, b.iteration);
  if (a.t_us != b.t_us) {
    if (!out->empty()) *out += ", ";
    *out += "t_us " + std::to_string(a.t_us) + " vs " +
            std::to_string(b.t_us);
  }
  field("cpu_khz", a.cpu_freq.as_khz(), b.cpu_freq.as_khz());
  field("imc_khz", a.imc_freq.as_khz(), b.imc_freq.as_khz());
  field("milliwatts", a.milliwatts, b.milliwatts);
  field("earl_state", a.earl_state, b.earl_state);
  field("signatures", a.signatures, b.signatures);
  field("node", a.node, b.node);
  field("family", a.family, b.family);
}

}  // namespace

TraceDiff diff_traces(TraceReader& a, TraceReader& b, std::size_t limit) {
  TraceDiff d;
  d.a_events = a.event_count();
  d.b_events = b.event_count();
  TraceMeta ma = a.meta();
  TraceMeta mb = b.meta();
  // Stamp differences are the cross-version use case, not a divergence.
  ma.stamp.clear();
  mb.stamp.clear();
  d.meta_differs = !(ma == mb);
  const std::uint64_t n = d.a_events < d.b_events ? d.a_events : d.b_events;
  for (std::uint64_t i = 0; i < n && d.entries.size() < limit; ++i) {
    const TraceEvent& ea = a.at(i);
    const TraceEvent& eb = b.at(i);
    if (ea == eb) continue;
    std::string what;
    describe_field_diffs(ea, eb, &what);
    d.entries.push_back(TraceDiffEntry{.index = i, .what = what});
  }
  if (d.a_events != d.b_events && d.entries.size() < limit) {
    d.entries.push_back(TraceDiffEntry{
        .index = n, .what = "stream lengths differ: " +
                                std::to_string(d.a_events) + " vs " +
                                std::to_string(d.b_events) + " events"});
  }
  return d;
}

void TraceRecorder::phase_begin(std::size_t phase, std::size_t iterations) {
  phase_ = phase;
  TraceEvent e;
  e.kind = TraceEventKind::kPhase;
  e.phase = phase;
  e.iterations = iterations;
  events_.push_back(e);
}

void TraceRecorder::iteration(const IterationSample& sample) {
  TraceEvent e;
  e.kind = TraceEventKind::kIteration;
  e.phase = sample.phase;
  e.iteration = sample.iteration;
  e.t_us = quantise_us(sample.t_s);
  e.cpu_freq = sample.cpu_freq;
  e.imc_freq = sample.imc_freq;
  e.milliwatts = quantise_milliwatts(sample.dc_power);
  e.earl_state = sample.earl_state;
  e.signatures = sample.signatures;
  events_.push_back(e);
}

void TraceRecorder::add_fault_events(
    const std::vector<faults::FaultEvent>& events) {
  for (const faults::FaultEvent& f : events) {
    TraceEvent e;
    e.kind = TraceEventKind::kFault;
    e.t_us = quantise_us(f.t_s);
    e.node = f.node;
    e.family = static_cast<std::uint8_t>(f.family);
    events_.push_back(e);
  }
}

std::string TraceRecorder::serialize(const TraceMeta& meta,
                                     std::size_t chunk_events) const {
  TraceWriter w(meta, chunk_events);
  for (const TraceEvent& e : events_) w.add(e);
  return w.finish();
}

}  // namespace ear::service
