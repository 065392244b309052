#include "simhw/rapl.hpp"

#include "common/error.hpp"

namespace ear::simhw {

void RaplCounter::deposit(Joules e) {
  EAR_CHECK_MSG(e.value >= 0.0, "energy cannot decrease");
  const double units = e.value / kJoulesPerUnit + residue_;
  const auto whole = static_cast<std::uint64_t>(units);
  residue_ = units - static_cast<double>(whole);
  units_ += whole;
}

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

void RaplDomains::deposit_dram(Joules e) { dram_.deposit(e); }

const RaplCounter& RaplDomains::pkg(std::size_t socket) const {
  EAR_CHECK(socket < sockets_);
  return pkg_[socket];
}

}  // namespace ear::simhw
