#include "simhw/dither_lanes.hpp"

#include <algorithm>

#include "common/error.hpp"

// The vector variants use GCC vector extensions and x86 target
// attributes; any other build runs the scalar loops alone.
#if defined(__x86_64__) && defined(__GNUC__)
#define EAR_LANE_VECTOR 1
#else
#define EAR_LANE_VECTOR 0
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

/// The per-stream noise loop: Rng::normal() itself.
void scalar_noise(std::span<NoiseLane> lanes) {
  for (NoiseLane& lane : lanes) {
    common::Rng rng = common::Rng::resume(lane.state);
    for (std::size_t k = 0; k < lane.pairs; ++k) {
      lane.normals[k][0] = rng.normal();
      lane.normals[k][1] = rng.normal();
      lane.after[k] = rng.state();
    }
  }
}

#if EAR_LANE_VECTOR
/// W lanes of T in one GCC vector.
template <typename T, std::size_t W>
struct Vector {
  typedef T type __attribute__((vector_size(sizeof(T) * W)));
};

/// One xoshiro256** draw in every lane: `out` takes the outputs and the
/// state steps. s1 * 5 and r * 9 are shift-and-add (AVX-512F and AVX2
/// have no 64-bit multiply), and the xor chains are written out, so
/// three-input xors fold into one AVX-512 ternary-logic instruction each.
template <typename U>
[[gnu::always_inline]] inline void draw(U& out, U& s0, U& s1, U& s2, U& s3) {
  const U x = (s1 << 2) + s1;
  const U r = (x << 7) | (x >> 57);
  out = (r << 3) + r;
  const U n1 = s1 ^ s2 ^ s0;
  const U n0 = s0 ^ s3 ^ s1;
  const U n3 = s3 ^ s1;
  s2 = s2 ^ s0 ^ (s1 << 17);
  s3 = (n3 << 45) | (n3 >> 19);
  s1 = n1;
  s0 = n0;
}

/// The vector body, written once for W lanes per vector. Inlined into
/// each target-specific entry below, so it is compiled for that ISA, and
/// no vector value crosses a function boundary (the ABI of a vector
/// argument depends on the ISA, which -Wpsabi warns about).
///
/// Lanes run in groups of W; a last, partial group is padded with idle
/// lanes whose results are dropped. The group's shortest period count
/// runs unmasked; only the longer lanes' tail is masked.
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
      draw(last, s0, s1, s2, s3);
      count -= reinterpret_cast<S>(last >> 11) < limit;
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

/// The noise body, written once for W lanes per vector and inlined like
/// vector_lanes. A group draws its deepest row's pairs in every lane;
/// a lane stores only the pairs its row asked for (its extra draws come
/// from its own stream and are dropped), and the idle lanes that pad a
/// partial last group step an all-zero state, which stays zero. Each
/// uniform is the draw's top 53 bits converted to double and scaled by
/// 2^-53, which is exact, so a fused multiply-add cannot change the sum;
/// the twelve uniforms of a normal are summed in Rng::normal()'s order.
template <std::size_t W>
[[gnu::always_inline]] inline void vector_noise(std::span<NoiseLane> lanes) {
  using U = typename Vector<std::uint64_t, W>::type;
  using S = typename Vector<std::int64_t, W>::type;
  using D = typename Vector<double, W>::type;
  for (std::size_t first = 0; first < lanes.size(); first += W) {
    NoiseLane* const group = lanes.data() + first;
    const std::size_t used = std::min(W, lanes.size() - first);
    U s0{}, s1{}, s2{}, s3{};
    std::size_t depth = 0;
    for (std::size_t j = 0; j < used; ++j) {
      s0[j] = group[j].state[0];
      s1[j] = group[j].state[1];
      s2[j] = group[j].state[2];
      s3[j] = group[j].state[3];
      depth = std::max(depth, group[j].pairs);
    }
    for (std::size_t k = 0; k < depth; ++k) {
      D pair[2];
      for (D& z : pair) {
        D acc{};
        for (int i = 0; i < 12; ++i) {
          U out{};
          draw(out, s0, s1, s2, s3);
          // Below 2^53, so the signed convert (AVX-512DQ) is exact.
          acc += __builtin_convertvector(reinterpret_cast<S>(out >> 11), D) *
                 0x1p-53;
        }
        z = acc - 6.0;
      }
      for (std::size_t j = 0; j < used; ++j) {
        NoiseLane& lane = group[j];
        if (k >= lane.pairs) continue;
        lane.normals[k] = {pair[0][j], pair[1][j]};
        lane.after[k] = common::Rng::State{s0[j], s1[j], s2[j], s3[j]};
      }
    }
  }
}

[[gnu::target("avx2")]] void avx2_lanes(std::span<DitherLane> lanes) {
  vector_lanes<4>(lanes);
}

[[gnu::target("avx512f")]] void avx512_lanes(std::span<DitherLane> lanes) {
  vector_lanes<8>(lanes);
}

[[gnu::target("avx512f,avx512dq")]] void avx512_noise(
    std::span<NoiseLane> lanes) {
  vector_noise<8>(lanes);
}
#endif

/// What the CPU offers, read once.
struct CpuVectors {
  bool avx2 = false;
  bool avx512 = false;    // AVX-512F
  bool avx512dq = false;  // AVX-512F and AVX-512DQ
};

const CpuVectors& cpu_vectors() {
  static const CpuVectors cpu = [] {
    CpuVectors c;
#if EAR_LANE_VECTOR
    __builtin_cpu_init();
    c.avx2 = __builtin_cpu_supports("avx2");
    c.avx512 = __builtin_cpu_supports("avx512f");
    c.avx512dq = c.avx512 && __builtin_cpu_supports("avx512dq");
#endif
    return c;
  }();
  return cpu;
}

constexpr std::size_t kAvx2Lanes = 4;
constexpr std::size_t kAvx512Lanes = 8;
constexpr std::size_t kAvx512NoiseLanes = 3;

}  // namespace

std::string_view lane_variant_name(LaneVariant variant) {
  switch (variant) {
    case LaneVariant::kScalar: return "scalar";
    case LaneVariant::kAvx2: return "avx2";
    case LaneVariant::kAvx512: return "avx512";
  }
  return "?";
}

std::vector<LaneVariant> supported_dither_variants() {
  std::vector<LaneVariant> out{LaneVariant::kScalar};
  if (cpu_vectors().avx2) out.push_back(LaneVariant::kAvx2);
  if (cpu_vectors().avx512) out.push_back(LaneVariant::kAvx512);
  return out;
}

LaneVariant dither_variant(std::size_t lanes) {
  if (lanes < kAvx2Lanes) return LaneVariant::kScalar;
  const CpuVectors& cpu = cpu_vectors();
  if (lanes >= kAvx512Lanes && cpu.avx512) return LaneVariant::kAvx512;
  if (cpu.avx2) return LaneVariant::kAvx2;
  return LaneVariant::kScalar;
}

void dither_lanes(std::span<DitherLane> lanes) {
  dither_lanes(lanes, dither_variant(lanes.size()));
}

void dither_lanes(std::span<DitherLane> lanes, LaneVariant variant) {
  switch (variant) {
    case LaneVariant::kScalar:
      scalar_lanes(lanes);
      return;
#if EAR_LANE_VECTOR
    case LaneVariant::kAvx2:
      EAR_CHECK_MSG(cpu_vectors().avx2, "this CPU has no AVX2");
      avx2_lanes(lanes);
      return;
    case LaneVariant::kAvx512:
      EAR_CHECK_MSG(cpu_vectors().avx512, "this CPU has no AVX-512F");
      avx512_lanes(lanes);
      return;
#else
    case LaneVariant::kAvx2:
    case LaneVariant::kAvx512:
      break;
#endif
  }
  EAR_CHECK_MSG(false, "dither variant not built for this architecture");
}

std::vector<LaneVariant> supported_noise_variants() {
  std::vector<LaneVariant> out{LaneVariant::kScalar};
  if (cpu_vectors().avx512dq) out.push_back(LaneVariant::kAvx512);
  return out;
}

LaneVariant noise_variant(std::size_t lanes) {
  return lanes >= kAvx512NoiseLanes && cpu_vectors().avx512dq
             ? LaneVariant::kAvx512
             : LaneVariant::kScalar;
}

void noise_lanes(std::span<NoiseLane> lanes) {
  noise_lanes(lanes, noise_variant(lanes.size()));
}

void noise_lanes(std::span<NoiseLane> lanes, LaneVariant variant) {
  for (const NoiseLane& lane : lanes) {
    EAR_CHECK_MSG(lane.pairs <= kNoisePairs, "a noise row holds kNoisePairs");
  }
  switch (variant) {
    case LaneVariant::kScalar:
      scalar_noise(lanes);
      return;
#if EAR_LANE_VECTOR
    case LaneVariant::kAvx512:
      EAR_CHECK_MSG(cpu_vectors().avx512dq,
                    "this CPU has no AVX-512F with AVX-512DQ");
      avx512_noise(lanes);
      return;
#else
    case LaneVariant::kAvx512:
      break;
#endif
    case LaneVariant::kAvx2:
      break;
  }
  EAR_CHECK_MSG(false, "noise variant not built for this architecture");
}

}  // namespace ear::simhw
