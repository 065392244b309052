#include "simhw/dither_lanes.hpp"

#include <algorithm>

#include "common/error.hpp"

// The vector variants use GCC vector extensions and x86 target
// attributes; any other build runs the scalar loop alone.
#if defined(__x86_64__) && defined(__GNUC__)
#define EAR_DITHER_VECTOR 1
#else
#define EAR_DITHER_VECTOR 0
#endif

namespace ear::simhw {

namespace {

/// The per-stream loop: xoshiro256** one draw at a time. A lane whose
/// count nobody reads only steps its stream up to the last draw.
void scalar_lanes(std::span<DitherLane> lanes) {
  for (DitherLane& lane : lanes) {
    if (lane.periods == 0) continue;
    common::Rng rng = common::Rng::resume(lane.state);
    std::uint64_t dithers = 0;
    if (lane.counted) {
      // The last draw is kept raw, so it is taken out of the loop: the
      // loop body then needs no copy of each draw.
      for (std::uint64_t i = 1; i < lane.periods; ++i) {
        dithers += draw_dithers(rng.next_u64(), lane.threshold) ? 1 : 0;
      }
    } else {
      rng.discard(lane.periods - 1);
    }
    lane.last = rng.next_u64();
    if (lane.counted) {
      lane.dithers =
          dithers + (draw_dithers(lane.last, lane.threshold) ? 1 : 0);
    }
    lane.state = rng.state();
  }
}

#if EAR_DITHER_VECTOR
/// W lanes of T in one GCC vector.
template <typename T, std::size_t W>
struct Vector {
  typedef T type __attribute__((vector_size(sizeof(T) * W)));
};

/// The vector body, written once for W lanes per vector. Inlined into
/// each target-specific entry below, so it is compiled for that ISA, and
/// no vector value crosses a function boundary (the ABI of a vector
/// argument depends on the ISA, which -Wpsabi warns about).
///
/// Lanes run in groups of W; a last, partial group is padded with idle
/// lanes whose results are dropped. Each lane is xoshiro256** written out
/// with shifts and adds (s1 * 5 and r * 9 as shift-and-add: AVX-512F and
/// AVX2 have no 64-bit multiply). The group's shortest period count runs
/// unmasked; only the longer lanes' tail is masked.
template <std::size_t W>
[[gnu::always_inline]] inline void vector_lanes(std::span<DitherLane> lanes) {
  using U = typename Vector<std::uint64_t, W>::type;
  using S = typename Vector<std::int64_t, W>::type;
  for (std::size_t first = 0; first < lanes.size(); first += W) {
    DitherLane* const group = lanes.data() + first;
    const std::size_t used = std::min(W, lanes.size() - first);
    U s0{}, s1{}, s2{}, s3{}, threshold{}, periods{};
    std::uint64_t shortest = group[0].periods;
    std::uint64_t longest = 0;
    for (std::size_t j = 0; j < used; ++j) {
      s0[j] = group[j].state[0];
      s1[j] = group[j].state[1];
      s2[j] = group[j].state[2];
      s3[j] = group[j].state[3];
      threshold[j] = group[j].threshold;
      periods[j] = group[j].periods;
      shortest = std::min(shortest, group[j].periods);
      longest = std::max(longest, group[j].periods);
    }
    // Draw values and thresholds are below 2^53, periods below 2^63: the
    // signed compares AVX2 has are exact for them.
    const S limit = reinterpret_cast<S>(threshold);
    S count{};
    U last{};
    std::uint64_t i = 0;
    for (; i < shortest; ++i) {
      const U x = (s1 << 2) + s1;
      const U r = (x << 7) | (x >> 57);
      last = (r << 3) + r;
      count -= reinterpret_cast<S>(last >> 11) < limit;
      // The state step with its xor chains written out (three-input xors
      // fold into one AVX-512 ternary-logic instruction each).
      const U n1 = s1 ^ s2 ^ s0;
      const U n0 = s0 ^ s3 ^ s1;
      const U n3 = s3 ^ s1;
      s2 = s2 ^ s0 ^ (s1 << 17);
      s3 = (n3 << 45) | (n3 >> 19);
      s1 = n1;
      s0 = n0;
    }
    for (; i < longest; ++i) {
      // All ones in the lanes that still draw, zero in the others; a
      // lane that is done keeps its state, count and last draw.
      const U live = reinterpret_cast<U>(reinterpret_cast<S>(U{} + i) <
                                         reinterpret_cast<S>(periods));
      const U x = (s1 << 2) + s1;
      const U r = (x << 7) | (x >> 57);
      const U out = (r << 3) + r;
      count -= reinterpret_cast<S>(live) &
               (reinterpret_cast<S>(out >> 11) < limit);
      last = (out & live) | (last & ~live);
      const U t = s1 << 17;
      const U d0 = s3 ^ s1;   // s0 ^= s3 after s3 ^= s1
      const U d1 = s2 ^ s0;   // s1 ^= s2 after s2 ^= s0
      const U n3 = s3 ^ s1;
      const U d3 = ((n3 << 45) | (n3 >> 19)) ^ s3;
      s2 ^= (s0 ^ t) & live;
      s1 ^= d1 & live;
      s0 ^= d0 & live;
      s3 ^= d3 & live;
    }
    for (std::size_t j = 0; j < used; ++j) {
      DitherLane& lane = group[j];
      if (lane.periods == 0) continue;
      lane.state = common::Rng::State{s0[j], s1[j], s2[j], s3[j]};
      lane.dithers = static_cast<std::uint64_t>(count[j]);
      lane.last = last[j];
    }
  }
}

[[gnu::target("avx2")]] void avx2_lanes(std::span<DitherLane> lanes) {
  vector_lanes<4>(lanes);
}

[[gnu::target("avx512f")]] void avx512_lanes(std::span<DitherLane> lanes) {
  vector_lanes<8>(lanes);
}
#endif

/// What the CPU offers, read once.
struct CpuVectors {
  bool avx2 = false;
  bool avx512 = false;
};

const CpuVectors& cpu_vectors() {
  static const CpuVectors cpu = [] {
    CpuVectors c;
#if EAR_DITHER_VECTOR
    __builtin_cpu_init();
    c.avx2 = __builtin_cpu_supports("avx2");
    c.avx512 = __builtin_cpu_supports("avx512f");
#endif
    return c;
  }();
  return cpu;
}

constexpr std::size_t kAvx2Lanes = 4;
constexpr std::size_t kAvx512Lanes = 8;

}  // namespace

std::string_view dither_variant_name(DitherVariant variant) {
  switch (variant) {
    case DitherVariant::kScalar: return "scalar";
    case DitherVariant::kAvx2: return "avx2";
    case DitherVariant::kAvx512: return "avx512";
  }
  return "?";
}

std::vector<DitherVariant> supported_dither_variants() {
  std::vector<DitherVariant> out{DitherVariant::kScalar};
  if (cpu_vectors().avx2) out.push_back(DitherVariant::kAvx2);
  if (cpu_vectors().avx512) out.push_back(DitherVariant::kAvx512);
  return out;
}

DitherVariant dither_variant(std::size_t lanes) {
  if (lanes < kAvx2Lanes) return DitherVariant::kScalar;
  const CpuVectors& cpu = cpu_vectors();
  if (lanes >= kAvx512Lanes && cpu.avx512) return DitherVariant::kAvx512;
  if (cpu.avx2) return DitherVariant::kAvx2;
  return DitherVariant::kScalar;
}

void dither_lanes(std::span<DitherLane> lanes) {
  dither_lanes(lanes, dither_variant(lanes.size()));
}

void dither_lanes(std::span<DitherLane> lanes, DitherVariant variant) {
  switch (variant) {
    case DitherVariant::kScalar:
      scalar_lanes(lanes);
      return;
#if EAR_DITHER_VECTOR
    case DitherVariant::kAvx2:
      EAR_CHECK_MSG(cpu_vectors().avx2, "this CPU has no AVX2");
      avx2_lanes(lanes);
      return;
    case DitherVariant::kAvx512:
      EAR_CHECK_MSG(cpu_vectors().avx512, "this CPU has no AVX-512F");
      avx512_lanes(lanes);
      return;
#else
    case DitherVariant::kAvx2:
    case DitherVariant::kAvx512:
      break;
#endif
  }
  EAR_CHECK_MSG(false, "dither variant not built for this architecture");
}

}  // namespace ear::simhw
