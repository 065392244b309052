// Batched dither draws of the hardware UFS loop (hw_ufs.hpp).
//
// The loop draws once per ~10 ms control period per socket, from the
// socket's own xoshiro256** stream. One stream's state update is a serial
// chain, so one stream cannot fill vector lanes, but different sockets'
// streams are independent: dither_lanes steps any number of them in one
// pass, each in its own lane with its own period count, and leaves every
// lane exactly as the per-stream scalar loop would.
#pragma once

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

/// One stream's share of a dither pass.
struct DitherLane {
  common::Rng::State state{};   // in: the stream; out: after the draws
  std::uint64_t periods = 0;    // in: draws to make (below 2^63)
  std::uint64_t threshold = 0;  // in: see draw_dithers (at most 2^53)
  /// In: false when nobody reads `dithers`; the scalar path then only
  /// steps the stream up to the last draw.
  bool counted = true;
  std::uint64_t dithers = 0;    // out: draws that dither (counted lanes)
  std::uint64_t last = 0;       // out: the last draw
};

/// The implementations of dither_lanes. The vector ones share one body,
/// built for 4 lanes per instruction (AVX2) and 8 (AVX-512F), and exist
/// on x86-64 builds only.
enum class DitherVariant : std::uint8_t { kScalar, kAvx2, kAvx512 };

[[nodiscard]] std::string_view dither_variant_name(DitherVariant variant);

/// The variants this build can run on this CPU, scalar first.
[[nodiscard]] std::vector<DitherVariant> supported_dither_variants();

/// The variant dither_lanes runs for `lanes` lanes: AVX-512 from 8 lanes
/// and AVX2 from 4, when the CPU has them; scalar otherwise. A vector
/// variant never runs on fewer lanes than one vector holds, and never
/// without AVX2 (the same body built for baseline SSE2 is slower than
/// the scalar loop).
[[nodiscard]] DitherVariant dither_variant(std::size_t lanes);

/// Make every lane's draws: `periods` draws from `state`, counting those
/// that dither and keeping the last. A lane with no periods is left as
/// it is. Bitwise the same for every variant.
void dither_lanes(std::span<DitherLane> lanes);
/// dither_lanes with a chosen variant, which must be supported (tests
/// and benches compare the variants).
void dither_lanes(std::span<DitherLane> lanes, DitherVariant variant);

}  // namespace ear::simhw
