// Batched draws of the simulator's per-stream random numbers.
//
// Every stream is xoshiro256** (common::Rng). One stream's state update
// is a serial chain, so one stream cannot fill vector lanes, but
// different streams are independent: each kernel here steps any number
// of them in one pass, each in its own lane, and leaves every lane
// exactly as the per-stream scalar loop would.
//  * dither_lanes: the hardware UFS loop's dither draws, one per ~10 ms
//    control period per socket (hw_ufs.hpp).
//  * noise_lanes: a node's run-to-run noise, one pair of normal draws
//    (time, then power) per iteration (SimNode::run_governors and
//    SimNode::execute_stretches).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "common/rng.hpp"

namespace ear::simhw {

/// A period dithers when its draw's top 53 bits are below `threshold`:
/// the integer form of `uniform() < p`, with threshold = ceil(p * 2^53)
/// (dither_threshold in hw_ufs.cpp).
[[nodiscard]] constexpr bool draw_dithers(std::uint64_t draw,
                                          std::uint64_t threshold) {
  return (draw >> 11) < threshold;
}

/// The largest threshold, p >= 1: every draw dithers.
inline constexpr std::uint64_t kMaxDitherThreshold = std::uint64_t{1} << 53;

/// One stream's share of a dither pass. No member has a default, so a
/// stack array of lanes costs nothing until a pass fills it; a
/// designated initialiser zeroes the members it does not name.
struct DitherLane {
  common::Rng::State state;   // in: the stream; out: after the draws
  std::uint64_t periods;      // in: draws to make (below 2^63)
  std::uint64_t threshold;    // in: see draw_dithers (at most 2^53)
  /// In: false when nobody reads `dithers`. Every variant then only
  /// steps the stream up to the last draw and leaves `dithers` as it is.
  bool counted;
  std::uint64_t dithers;      // out: draws that dither (counted lanes)
  std::uint64_t last;         // out: the last draw
};

/// The deepest noise row: the pairs one NoiseLane holds.
inline constexpr std::size_t kNoisePairs = 8;

/// One stream's share of a noise pass: its next `pairs` pairs of
/// Rng::normal() draws, and the stream after each pair, so a reader that
/// uses fewer pairs resumes where its last one left the stream. No
/// member has a default, like DitherLane.
struct NoiseLane {
  common::Rng::State state;   // in: the stream before the first pair
  std::size_t pairs;          // in: pairs to draw, at most kNoisePairs
  /// Out, for each pair k below `pairs`: its two normal() values in
  /// draw order, and the stream after them.
  std::array<std::array<double, 2>, kNoisePairs> normals;
  std::array<common::Rng::State, kNoisePairs> after;
};

/// The implementations of the lane kernels. The vector ones share one
/// body per kernel, built for 4 lanes per instruction (AVX2) and 8
/// (AVX-512), and exist on x86-64 builds only. noise_lanes has no AVX2
/// variant: AVX2 has no 64-bit integer to double convert, and its build
/// of the noise body ran within 10 % of the scalar loop.
enum class LaneVariant : std::uint8_t { kScalar, kAvx2, kAvx512 };

[[nodiscard]] std::string_view lane_variant_name(LaneVariant variant);

/// The dither_lanes variants this build can run on this CPU, scalar
/// first.
[[nodiscard]] std::vector<LaneVariant> supported_dither_variants();

/// The variant dither_lanes runs for `lanes` lanes: AVX-512F from 8 lanes
/// and AVX2 from 4, when the CPU has them; scalar otherwise. A vector
/// variant never runs on fewer lanes than one vector holds, and never
/// without AVX2 (the same body built for baseline SSE2 is slower than
/// the scalar loop).
[[nodiscard]] LaneVariant dither_variant(std::size_t lanes);

/// Make every lane's draws: `periods` draws from `state`, keeping the
/// last and, in a counted lane, counting those that dither. A lane with
/// no periods is left as it is. Bitwise the same for every variant. The
/// vector variants run the counted lanes in groups of their own and the
/// uncounted ones, past the last counted group's spare slots, in groups
/// that only step their streams.
void dither_lanes(std::span<DitherLane> lanes);
/// dither_lanes with a chosen variant, which must be supported (tests
/// and benches compare the variants).
void dither_lanes(std::span<DitherLane> lanes, LaneVariant variant);

/// The noise_lanes variants this build can run on this CPU, scalar
/// first: AVX-512 needs AVX-512F and AVX-512DQ (the 64-bit convert).
[[nodiscard]] std::vector<LaneVariant> supported_noise_variants();

/// The variant noise_lanes runs for `lanes` lanes: AVX-512 from 3 lanes
/// when the CPU has it (a group of 8 costs about as much as 2 streams
/// drawn one at a time), scalar otherwise.
[[nodiscard]] LaneVariant noise_variant(std::size_t lanes);

/// Draw every lane's pairs: pair k's two values are what two
/// Rng::normal() calls return, twelve uniforms each summed in order, and
/// after[k] is the stream after them. Entries from `pairs` on, and the
/// lane's `state`, are left as they are. Bitwise the same for every
/// variant.
void noise_lanes(std::span<NoiseLane> lanes);
/// noise_lanes with a chosen variant, which must be supported.
void noise_lanes(std::span<NoiseLane> lanes, LaneVariant variant);

}  // namespace ear::simhw
