#include "common/ini.hpp"

#include <cmath>
#include <cstdlib>

namespace ear::common {

namespace {

std::string trim(const std::string& s) {
  const auto b = s.find_first_not_of(" \t\r");
  if (b == std::string::npos) return "";
  const auto e = s.find_last_not_of(" \t\r");
  return s.substr(b, e - b + 1);
}

}  // namespace

double parse_number(const std::string& text, const std::string& subject) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (text.empty() || end != text.c_str() + text.size() ||
      !std::isfinite(v)) {
    throw ConfigError(subject + " expects a finite number, got '" + text +
                      "'");
  }
  return v;
}

std::vector<std::string> split_list(const std::string& text) {
  std::vector<std::string> out;
  std::size_t from = 0;
  while (from <= text.size()) {
    const std::size_t comma = text.find(',', from);
    std::string item = trim(text.substr(from, comma - from));
    if (!item.empty()) out.push_back(std::move(item));
    if (comma == std::string::npos) break;
    from = comma + 1;
  }
  return out;
}

ConfigError IniPlace::error(const std::string& message) const {
  return ConfigError(what + " line " + std::to_string(line) + ": " + message);
}

bool IniEntry::boolean() const {
  if (value == "true" || value == "yes" || value == "1") return true;
  if (value == "false" || value == "no" || value == "0") return false;
  throw ConfigError(subject() + " expects true/false, got '" + value + "'");
}

std::string IniEntry::subject() const {
  return what + " line " + std::to_string(line) + ": key '" + key + "'";
}

std::vector<IniSection> read_ini(std::istream& in, const std::string& what) {
  std::vector<IniSection> sections;
  std::string raw;
  int line = 0;
  while (std::getline(in, raw)) {
    const IniPlace here{what, ++line};
    const std::string s = trim(raw.substr(0, raw.find_first_of("#;")));
    if (s.empty()) continue;

    if (s.front() == '[') {
      const std::string name =
          s.back() == ']' ? trim(s.substr(1, s.size() - 2)) : "";
      if (name.empty()) {
        throw here.error("malformed section header '" + s + "'");
      }
      sections.push_back({here, name, {}});
      continue;
    }

    if (sections.empty()) throw here.error("key before any [section]");
    const auto eq = s.find('=');
    const std::string key = eq == std::string::npos ? "" : trim(s.substr(0, eq));
    if (key.empty()) throw here.error("expected 'key = value'");
    IniEntry entry{here, key, trim(s.substr(eq + 1))};
    if (entry.value.empty()) {
      throw here.error("key '" + key + "' has an empty value");
    }
    sections.back().entries.push_back(std::move(entry));
  }
  return sections;
}

}  // namespace ear::common
