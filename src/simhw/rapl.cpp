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

void RaplDomains::deposit_pkg(std::size_t socket, Joules e) {
  EAR_CHECK(socket < sockets_);
  pkg_[socket].deposit(e);
}

void RaplDomains::add_pkg(std::size_t socket, std::uint64_t counts) {
  EAR_CHECK(socket < sockets_);
  pkg_[socket].add(counts);
}

void RaplDomains::deposit_dram(Joules e) { dram_.deposit(e); }

const RaplCounter& RaplDomains::pkg(std::size_t socket) const {
  EAR_CHECK(socket < sockets_);
  return pkg_[socket];
}

}  // namespace ear::simhw
