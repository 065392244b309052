#include "common/table.hpp"

#include <algorithm>
#include <cmath>

#include "common/error.hpp"

namespace ear::common {

void AsciiTable::columns(std::vector<std::string> names,
                         std::vector<Align> aligns) {
  EAR_CHECK_MSG(rows_.empty(), "columns() must precede add_row()");
  header_ = std::move(names);
  if (aligns.empty()) {
    aligns_.assign(header_.size(), Align::kRight);
    if (!aligns_.empty()) aligns_.front() = Align::kLeft;
  } else {
    EAR_CHECK(aligns.size() == header_.size());
    aligns_ = std::move(aligns);
  }
}

void AsciiTable::add_row(std::vector<std::string> fields) {
  EAR_CHECK_MSG(fields.size() == header_.size(),
                "row width must match header");
  rows_.push_back({std::move(fields), false});
}

void AsciiTable::add_separator() {
  if (!rows_.empty()) rows_.back().separator = true;
}

std::string AsciiTable::render() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& r : rows_) {
    for (std::size_t c = 0; c < r.fields.size(); ++c) {
      widths[c] = std::max(widths[c], r.fields[c].size());
    }
  }

  auto hline = [&] {
    std::string s = "+";
    for (auto w : widths) s += std::string(w + 2, '-') + "+";
    s += '\n';
    return s;
  };
  auto line = [&](const std::vector<std::string>& fields) {
    std::string s = "|";
    for (std::size_t c = 0; c < fields.size(); ++c) {
      const auto& f = fields[c];
      const std::size_t pad = widths[c] - f.size();
      s += ' ';
      if (aligns_[c] == Align::kLeft) {
        s += f;
        s.append(pad, ' ');
      } else {
        s.append(pad, ' ');
        s += f;
      }
      s += " |";
    }
    s += '\n';
    return s;
  };

  std::string out;
  if (!title_.empty()) out += title_ + "\n";
  out += hline();
  out += line(header_);
  out += hline();
  for (std::size_t i = 0; i < rows_.size(); ++i) {
    out += line(rows_[i].fields);
    // The closing rule below covers a trailing separator.
    if (rows_[i].separator && i + 1 < rows_.size()) out += hline();
  }
  out += hline();
  return out;
}

void AsciiTable::print(std::FILE* out) const {
  const std::string s = render();
  std::fwrite(s.data(), 1, s.size(), out);
}

std::string AsciiTable::num(double v, int precision) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string AsciiTable::pct(double v, int precision) {
  if (!std::isfinite(v)) return "n/a";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%+.*f%%", precision, v);
  return buf;
}

std::string AsciiTable::ghz(double v) { return num(v, 2); }

}  // namespace ear::common
