#include "common/args.hpp"

#include "common/error.hpp"
#include "common/ini.hpp"

namespace ear::common {

ArgParser::ArgParser(int argc, const char* const* argv,
                     std::set<std::string> flags) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    const std::string body = arg.substr(2);
    if (body.empty()) {
      throw ConfigError("bare '--' is not a valid option");
    }
    const auto eq = body.find('=');
    std::string name, value;
    if (eq != std::string::npos) {
      name = body.substr(0, eq);
      value = body.substr(eq + 1);
    } else {
      name = body;
      // "--key value" form: consume the next token unless this option is
      // a declared flag or the next token is itself an option.
      if (flags.count(name) == 0 && i + 1 < argc &&
          std::string(argv[i + 1]).rfind("--", 0) != 0) {
        value = argv[++i];
      }
    }
    if (name.empty()) throw ConfigError("malformed option: " + arg);
    if (options_.count(name) != 0) {
      throw ConfigError("repeated option: --" + name);
    }
    options_[name] = value;
  }
}

std::string ArgParser::positional_or(std::size_t index,
                                     const std::string& def) const {
  return index < positional_.size() ? positional_[index] : def;
}

bool ArgParser::has(const std::string& name) const {
  return options_.count(name) != 0;
}

bool ArgParser::flag(const std::string& name) const {
  const auto it = options_.find(name);
  return it != options_.end() && it->second.empty();
}

std::string ArgParser::get(const std::string& name,
                           const std::string& def) const {
  const auto it = options_.find(name);
  return it == options_.end() ? def : it->second;
}

double ArgParser::get(const std::string& name, double def) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return def;
  return parse_number(it->second, "option --" + name);
}

std::int64_t ArgParser::get(const std::string& name, std::int64_t def) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return def;
  return parse_integer<std::int64_t>(it->second, "option --" + name);
}

std::uint64_t ArgParser::get(const std::string& name,
                             std::uint64_t def) const {
  const auto it = options_.find(name);
  if (it == options_.end() || it->second.empty()) return def;
  return parse_integer<std::uint64_t>(it->second, "option --" + name);
}

void ArgParser::require_known(const std::set<std::string>& known) const {
  for (const auto& [name, value] : options_) {
    if (known.count(name) == 0) throw ConfigError("unknown option --" + name);
  }
}

}  // namespace ear::common
