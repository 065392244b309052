#include "simhw/msr.hpp"

#include "common/contracts.hpp"

namespace ear::simhw {

namespace {
// UNCORE_RATIO_LIMIT expresses frequencies as multiples of 100 MHz.
constexpr std::uint64_t kRatioUnitKhz = 100'000;
// Each ratio occupies a 7-bit field (SDM vol. 4: bits 6:0 and 14:8).
constexpr std::uint64_t kRatioMask = 0x7F;
// All bits software may set in MSR 0x620; the rest are reserved.
constexpr std::uint64_t kUncoreRatioWritableBits =
    (kRatioMask << 8) | kRatioMask;
// IA32_ENERGY_PERF_BIAS carries a 4-bit hint (0 = performance, 15 =
// energy) in bits 3:0.
constexpr std::uint64_t kEpbMax = 15;

std::uint64_t to_ratio(Freq f) { return f.as_khz() / kRatioUnitKhz; }
Freq from_ratio(std::uint64_t r) { return Freq::khz(r * kRatioUnitKhz); }
}  // namespace

std::uint64_t UncoreRatioLimit::encode() const {
  const std::uint64_t max_ratio = to_ratio(max_freq);
  const std::uint64_t min_ratio = to_ratio(min_freq);
  // A ratio over 7 bits would spill into the neighbouring field.
  EAR_EXPECT_MSG(max_ratio <= kRatioMask && min_ratio <= kRatioMask,
                 "uncore ratio exceeds 7-bit field");
  EAR_EXPECT_MSG(min_freq <= max_freq, "uncore min must not exceed max");
  return (min_ratio << 8) | max_ratio;
}

UncoreRatioLimit UncoreRatioLimit::decode(std::uint64_t raw) {
  EAR_EXPECT_MSG((raw & ~kUncoreRatioWritableBits) == 0,
                 "reserved bits set in UNCORE_RATIO_LIMIT value");
  return UncoreRatioLimit{
      .max_freq = from_ratio(raw & kRatioMask),
      .min_freq = from_ratio((raw >> 8) & kRatioMask),
  };
}

const MsrFile::SideEntry* MsrFile::find_side(std::uint32_t addr) const {
  for (const SideEntry& e : side_) {
    if (e.addr == addr) return &e;
  }
  return nullptr;
}

MsrFile::SideEntry& MsrFile::side_entry(std::uint32_t addr) {
  for (SideEntry& e : side_) {
    if (e.addr == addr) return e;
  }
  return side_.emplace_back(SideEntry{.addr = addr});
}

std::uint64_t MsrFile::read(std::uint32_t addr) const {
  if (addr == kMsrUncoreRatioLimit) return uncore_raw_;
  if (addr == kMsrEnergyPerfBias) return epb_raw_;
  const SideEntry* e = find_side(addr);
  return e == nullptr ? 0 : e->value;
}

void MsrFile::write(std::uint32_t addr, std::uint64_t value) {
  // Model the SDM-documented layout of the registers we emulate: a write
  // that sets reserved bits is a driver bug the real hardware would #GP
  // on or silently mangle, so it is refused.
  switch (addr) {
    case kMsrUncoreRatioLimit:
      EAR_EXPECT_MSG((value & ~kUncoreRatioWritableBits) == 0,
                     "reserved bits set in UNCORE_RATIO_LIMIT write");
      break;
    case kMsrEnergyPerfBias:
      EAR_EXPECT_MSG(value <= kEpbMax,
                     "ENERGY_PERF_BIAS hint exceeds 4-bit range");
      break;
    default:
      break;
  }
  ++writes_;
  // Fault hook after validation: an injected drop models a write that was
  // issued but never landed, indistinguishable (to software) from a lock.
  if (interceptor_ != nullptr && !interceptor_->allow_write(addr, value)) {
    return;
  }
  if (is_locked(addr)) return;  // silently dropped
  if (addr == kMsrUncoreRatioLimit) {
    uncore_raw_ = value;
  } else if (addr == kMsrEnergyPerfBias) {
    epb_raw_ = value;
  } else {
    side_entry(addr).value = value;
  }
}

void MsrFile::lock(std::uint32_t addr) { side_entry(addr).locked = true; }

bool MsrFile::is_locked(std::uint32_t addr) const {
  const SideEntry* e = find_side(addr);
  return e != nullptr && e->locked;
}

UncoreRatioLimit MsrFile::uncore_limit() const {
  return UncoreRatioLimit::decode(uncore_raw_);
}

void MsrFile::set_uncore_limit(const UncoreRatioLimit& limit) {
  EAR_EXPECT_MSG(limit.min_freq <= limit.max_freq,
                 "uncore min must not exceed max");
  write(kMsrUncoreRatioLimit, limit.encode());
}

}  // namespace ear::simhw
