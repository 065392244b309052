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

/// One xoshiro256** state step in every lane, without its output. Each
/// word is read before it is overwritten, so the three-input xors fold
/// into one AVX-512 ternary-logic instruction each and need no copies.
template <typename U>
[[gnu::always_inline]] inline void step(U& s0, U& s1, U& s2, U& s3) {
  const U t = s1 << 17;
  s3 ^= s1;
  s1 = s1 ^ s2 ^ s0;
  s2 = s2 ^ s0 ^ t;
  s0 ^= s3;
  s3 = (s3 << 45) | (s3 >> 19);
}

/// step() in the lanes that still draw after draw `i`, those with more
/// than `i` periods (`now` is i in every lane; period counts are below
/// 2^63, so AVX2's signed compare is exact); the others keep their state.
/// Each word's choice is written with the comparison itself as the
/// condition, which AVX-512 turns into one merge-masked instruction (GCC
/// 12 scalarises a condition kept in a variable, or a conditional nested
/// in another).
template <typename U, typename S>
[[gnu::always_inline]] inline void masked_step(const S& now, const S& periods,
                                               U& s0, U& s1, U& s2, U& s3) {
  const U t = s1 << 17;
  const U n3 = s3 ^ s1;
  s1 = now < periods ? s1 ^ s2 ^ s0 : s1;
  s2 = now < periods ? s2 ^ s0 ^ t : s2;
  s0 = now < periods ? s0 ^ n3 : s0;
  s3 = now < periods ? (n3 << 45) | (n3 >> 19) : s3;
}

/// The output of the next draw in every lane: rotl(s1 * 5, 7) * 9, the
/// multiplies as shift-and-add (AVX-512F and AVX2 have no 64-bit
/// multiply).
template <typename U>
[[gnu::always_inline]] inline void output(const U& s1, U& out) {
  const U x = (s1 << 2) + s1;
  const U r = (x << 7) | (x >> 57);
  out = (r << 3) + r;
}

/// One xoshiro256** draw in every lane: `out` takes the outputs and the
/// state steps.
template <typename U>
[[gnu::always_inline]] inline void draw(U& out, U& s0, U& s1, U& s2, U& s3) {
  output(s1, out);
  step(s0, s1, s2, s3);
}

/// Whether a lane's count is read and can be non-zero: a counted lane
/// at threshold 0 dithers on no draw, so it only steps its stream.
[[gnu::always_inline]] inline bool counts(const DitherLane& lane) {
  return lane.counted && lane.threshold != 0;
}

/// One group of W lanes, the first `used` filled and the rest idle (a
/// zero state stays zero). Every lane goes through all but its last
/// draw, the first shortest - 1 draws unmasked and the longer lanes' rest
/// masked, and then every lane's last draw is made at once, so no draw
/// before it is kept.
///
/// A counting group (kCount) compares every draw: a draw dithers when it
/// is at most (threshold << 11) - 1 unsigned, which is (draw >> 11) <
/// threshold without shifting the draw (threshold 2^53 wraps to all
/// ones, every draw). It counts the draws above that limit, a compare
/// AVX2 makes without negating it, so a lane's count is its periods less
/// those; its spare slots may hold uncounted lanes, whose counts are
/// dropped. A step-only group makes each draw but the last as the state
/// update alone, without the output.
template <std::size_t W, bool kCount>
[[gnu::always_inline]] inline void run_group(
    const std::array<DitherLane*, W>& group, std::size_t used) {
  using U = typename Vector<std::uint64_t, W>::type;
  using S = typename Vector<std::int64_t, W>::type;
  U s0{}, s1{}, s2{}, s3{}, periods{}, limit{};
  std::uint64_t shortest = group[0]->periods;
  std::uint64_t longest = 0;
  for (std::size_t j = 0; j < used; ++j) {
    const DitherLane& lane = *group[j];
    s0[j] = lane.state[0];
    s1[j] = lane.state[1];
    s2[j] = lane.state[2];
    s3[j] = lane.state[3];
    periods[j] = lane.periods;
    if constexpr (kCount) limit[j] = (lane.threshold << 11) - 1;
    shortest = std::min(shortest, lane.periods);
    longest = std::max(longest, lane.periods);
  }
  const S speriods = reinterpret_cast<S>(periods);
  S above{};
  U out{};
  std::uint64_t i = 1;
  for (; i < shortest; ++i) {
    if constexpr (kCount) {
      draw(out, s0, s1, s2, s3);
      above -= out > limit;
    } else {
      step(s0, s1, s2, s3);
    }
  }
  for (; i < longest; ++i) {
    const S now = S{} + static_cast<std::int64_t>(i);
    if constexpr (kCount) {
      output(s1, out);
      above = now < speriods ? above - (out > limit) : above;
    }
    masked_step(now, speriods, s0, s1, s2, s3);
  }
  draw(out, s0, s1, s2, s3);
  if constexpr (kCount) above -= out > limit;
  for (std::size_t j = 0; j < used; ++j) {
    DitherLane& lane = *group[j];
    lane.state = common::Rng::State{s0[j], s1[j], s2[j], s3[j]};
    lane.last = out[j];
    if (lane.counted) {
      lane.dithers =
          counts(lane) ? lane.periods - static_cast<std::uint64_t>(above[j])
                       : 0;
    }
  }
}

/// The vector pass, written once for W lanes per vector. Inlined into
/// each target-specific entry below, so it is compiled for that ISA, and
/// no vector value crosses a function boundary (the ABI of a vector
/// argument depends on the ISA, which -Wpsabi warns about).
///
/// Lanes without periods are skipped. The lanes whose counts are read
/// run first, in groups of W; uncounted lanes fill the last such group's
/// spare slots, and the uncounted lanes left run in step-only groups. A
/// last, partial group is padded with idle slots whose results are
/// dropped.
template <std::size_t W>
[[gnu::always_inline]] inline void vector_lanes(std::span<DitherLane> lanes) {
  std::size_t next_counted = 0;
  std::size_t next_uncounted = 0;
  // The next lane with periods whose counts() is `want`, from `cursor`.
  const auto take = [&](std::size_t& cursor, bool want) -> DitherLane* {
    for (; cursor < lanes.size(); ++cursor) {
      DitherLane& lane = lanes[cursor];
      if (lane.periods != 0 && counts(lane) == want) {
        ++cursor;
        return &lane;
      }
    }
    return nullptr;
  };
  // Fill `group` from `used` on with lanes of `want`; returns the count.
  const auto fill = [&](std::array<DitherLane*, W>& group, std::size_t used,
                        std::size_t& cursor, bool want) {
    for (; used < W; ++used) {
      group[used] = take(cursor, want);
      if (group[used] == nullptr) break;
    }
    return used;
  };
  std::array<DitherLane*, W> group;
  for (;;) {
    const std::size_t used = fill(group, 0, next_counted, true);
    if (used == 0) break;
    run_group<W, true>(group, fill(group, used, next_uncounted, false));
  }
  for (;;) {
    const std::size_t used = fill(group, 0, next_uncounted, false);
    if (used == 0) break;
    run_group<W, false>(group, used);
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
  for (const DitherLane& lane : lanes) {
    EAR_CHECK_MSG(lane.threshold <= kMaxDitherThreshold,
                  "a dither threshold is at most 2^53");
  }
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
