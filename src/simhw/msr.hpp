// Model Specific Register (MSR) emulation.
//
// The real EAR daemon writes uncore limits through /dev/cpu/*/msr. We
// emulate the per-socket register file and in particular MSR 0x620
// (UNCORE_RATIO_LIMIT): bits 6:0 hold the *maximum* uncore ratio and bits
// 14:8 the *minimum* uncore ratio, in units of 100 MHz (SDM vol. 4).
// Setting min == max pins the uncore clock; leaving a range lets the
// hardware UFS control loop pick a value inside it.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.hpp"

namespace ear::simhw {

using common::Freq;

/// Well-known MSR addresses used by the library.
inline constexpr std::uint32_t kMsrUncoreRatioLimit = 0x620;
inline constexpr std::uint32_t kMsrEnergyPerfBias = 0x1B0;  // IA32_ENERGY_PERF_BIAS

/// Decoded view of UNCORE_RATIO_LIMIT.
struct UncoreRatioLimit {
  Freq max_freq;  // bits 6:0  * 100 MHz
  Freq min_freq;  // bits 14:8 * 100 MHz

  /// Packs the limits into the register layout. Ratios that do not fit
  /// the 7-bit fields (or an inverted window) are a contract violation.
  [[nodiscard]] std::uint64_t encode() const;
  /// Unpacks a register value; reserved bits must be clear.
  [[nodiscard]] static UncoreRatioLimit decode(std::uint64_t raw);
  friend bool operator==(const UncoreRatioLimit&,
                         const UncoreRatioLimit&) = default;
};

/// Fault-injection hook: when installed, every validated write is offered
/// to the interceptor, which may swallow it (the fault layer models flaky
/// MSR access this way). Null by default — the unarmed hot path costs a
/// single pointer test.
class MsrWriteInterceptor {
 public:
  virtual ~MsrWriteInterceptor() = default;
  /// Return false to drop the write (it still counts as issued, exactly
  /// like a write to a locked register).
  [[nodiscard]] virtual bool allow_write(std::uint32_t addr,
                                         std::uint64_t value) = 0;
};

/// Per-socket register file. Unknown registers read as 0, like a freshly
/// cleared MSR; writes create them. Registers may be *locked* (as BIOSes
/// lock UNCORE_RATIO_LIMIT on some platforms): writes to a locked
/// register are silently dropped — software must read back to notice.
///
/// The two registers the simulator models (UNCORE_RATIO_LIMIT and
/// ENERGY_PERF_BIAS) live inline; any other register and every lock go
/// to a side table that stays empty in normal runs, so a register file
/// owns no heap memory unless a test or a fault plan asks for more.
class MsrFile {
 public:
  [[nodiscard]] std::uint64_t read(std::uint32_t addr) const;
  void write(std::uint32_t addr, std::uint64_t value);

  /// BIOS-style lock: subsequent writes to `addr` are ignored.
  void lock(std::uint32_t addr);
  [[nodiscard]] bool is_locked(std::uint32_t addr) const;

  /// Install (or clear, with nullptr) the fault-injection write hook.
  /// The interceptor must outlive its installation.
  void set_interceptor(MsrWriteInterceptor* interceptor) {
    interceptor_ = interceptor;
  }

  /// Typed accessors for the uncore limit register.
  [[nodiscard]] UncoreRatioLimit uncore_limit() const;
  void set_uncore_limit(const UncoreRatioLimit& limit);

  /// Number of write operations performed (the paper's daemon counts MSR
  /// traffic; useful for overhead benches).
  [[nodiscard]] std::uint64_t write_count() const { return writes_; }

 private:
  /// An unmodelled register's value, or a lock (on any register).
  struct SideEntry {
    std::uint32_t addr = 0;
    bool locked = false;
    std::uint64_t value = 0;  // unused for the two inline registers
  };
  [[nodiscard]] const SideEntry* find_side(std::uint32_t addr) const;
  SideEntry& side_entry(std::uint32_t addr);

  // The modelled registers. The governor and stretch paths read them once
  // per control step, so UNCORE_RATIO_LIMIT is also kept decoded. Zero
  // initial values match the "unknown registers read as 0" contract.
  std::uint64_t uncore_raw_ = 0;
  UncoreRatioLimit uncore_decoded_{};
  std::uint64_t epb_raw_ = 0;
  std::uint64_t writes_ = 0;
  MsrWriteInterceptor* interceptor_ = nullptr;
  std::vector<SideEntry> side_;
};

}  // namespace ear::simhw
