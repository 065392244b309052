#include "simhw/rapl.hpp"

#include "common/error.hpp"

namespace ear::simhw {

Joules RaplCounter::delta(std::uint32_t before, std::uint32_t after) {
  const std::uint64_t diff =
      after >= before
          ? static_cast<std::uint64_t>(after - before)
          : kWrap - before + after;  // exactly one wrap assumed
  return Joules{static_cast<double>(diff) * kJoulesPerUnit};
}

RaplDomains::RaplDomains(std::size_t sockets) : sockets_(sockets) {
  EAR_CHECK_MSG(sockets <= kMaxSockets, "more sockets than kMaxSockets");
}

const RaplCounter& RaplDomains::pkg(std::size_t socket) const {
  EAR_CHECK(socket < sockets_);
  return pkg_[socket];
}

}  // namespace ear::simhw
