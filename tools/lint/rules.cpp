#include "lint/rules.hpp"

#include <algorithm>
#include <regex>
#include <set>
#include <string>

namespace lint {

namespace {

const std::regex kRawFreqDecl(
    R"(\b(?:double|float|(?:std::)?u?int(?:8|16|32|64)_t|(?:std::)?size_t|unsigned(?:\s+long)?|long(?:\s+long)?)\s+((?:[A-Za-z_]\w*)?_(?:ghz|khz|mhz))\b)");
// Power/energy scalars use SI doubles only; the narrower type list keeps
// integral counters like `overrun_rounds_w`-style names (none today) out
// of scope until someone actually declares a watt-valued integer.
const std::regex kRawPowerDecl(
    R"(\b(?:double|float)\s+((?:[A-Za-z_]\w*)?_(?:w|watts|joules))\b)");
const std::regex kBannedCall(R"(\b(?:std::rand\b|srand\s*\(|gettimeofday\s*\())");
const std::regex kBannedIo(
    R"((?:\b(?:printf|fprintf|puts)\s*\(|std::c(?:out|err)\b))");
const std::regex kCHeader(
    R"(#\s*include\s*<(assert|ctype|errno|limits|math|signal|stdarg|stddef|stdint|stdio|stdlib|string|time)\.h>)");
const std::regex kLocalInclude(R"re(#\s*include\s*"([^"]+)")re");
const std::regex kQuotedInclude(R"re(#\s*include\s*")re");
const std::regex kIostream(R"(#\s*include\s*<iostream>)");
// Hardware mutators: the SimNode control surface and raw MSR file
// writes/locks (`msr(s).write(...)`, `node.msr(0).lock(...)`). The msr
// pattern requires the member-call shape so `lock.lock()` on a mutex or
// `locked_.insert` never match.
const std::regex kHwMutation(
    R"(\b(?:set_cpu_pstate|set_cpu_freq|set_uncore_limit(?:_all)?)\s*\(|\bmsrs?(?:\s*\([^()]*\))?\s*\.\s*(?:write|lock)\s*\()");

/// Layers allowed to touch the hardware directly: the hardware model
/// itself, the privileged daemon, and the fault injector.
bool hw_layer_file(const std::string& rel) {
  return rel.rfind("simhw/", 0) == 0 || rel.rfind("eard/", 0) == 0 ||
         rel.rfind("faults/", 0) == 0;
}

/// Files that *are* the sanctioned output layer; banned-io does not apply.
bool io_layer_file(const std::string& rel) {
  return rel.rfind("common/log", 0) == 0 || rel.rfind("common/table", 0) == 0;
}

}  // namespace

void scan_nondet_iteration(const std::string& rel,
                           const std::vector<Token>& t,
                           std::vector<Finding>* findings) {
  std::set<std::string> unordered_names;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        (t[i].text != "unordered_map" && t[i].text != "unordered_set"))
      continue;
    std::size_t j = i + 1;
    if (j < t.size() && t[j].text == "<") {
      j = skip_template_args(t, j);
      if (j == kNpos) continue;
    }
    while (j < t.size() &&
           (t[j].text == "*" || t[j].text == "&" || t[j].text == "const"))
      ++j;
    if (j < t.size() && t[j].kind == Token::Kind::kIdent)
      unordered_names.insert(t[j].text);
  }

  static const std::set<std::string> kCompound = {
      "+=", "-=", "*=", "/=", "%=", "|=", "&=", "^=", "<<=", ">>="};
  static const std::set<std::string> kAppend = {"push_back", "emplace_back",
                                                "append"};
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].text != "for" || t[i + 1].text != "(") continue;
    const std::size_t close = match_forward(t, i + 1);
    if (close == kNpos) continue;
    // The range-for colon sits at parenthesis depth 1 (":" is a distinct
    // token from "::", and "?:" does not appear in a for-range header).
    std::size_t colon = kNpos;
    std::size_t depth = 0;
    for (std::size_t k = i + 1; k < close; ++k) {
      if (t[k].text == "(")
        ++depth;
      else if (t[k].text == ")")
        --depth;
      else if (t[k].text == ":" && depth == 1) {
        colon = k;
        break;
      }
    }
    if (colon == kNpos) continue;  // classic for
    bool unordered = false;
    for (std::size_t k = colon + 1; k < close; ++k) {
      if (t[k].kind == Token::Kind::kIdent &&
          (unordered_names.count(t[k].text) != 0 ||
           t[k].text == "unordered_map" || t[k].text == "unordered_set"))
        unordered = true;
    }
    if (!unordered) continue;
    // Loop body: a compound statement or everything up to the next ';'.
    std::size_t body_begin = close + 1;
    std::size_t body_end;
    if (body_begin < t.size() && t[body_begin].text == "{") {
      body_end = match_forward(t, body_begin);
      if (body_end == kNpos) continue;
    } else {
      body_end = body_begin;
      while (body_end < t.size() && t[body_end].text != ";") ++body_end;
    }
    for (std::size_t k = body_begin; k < body_end; ++k) {
      const bool accumulates = kCompound.count(t[k].text) != 0;
      const bool appends = t[k].kind == Token::Kind::kIdent &&
                           kAppend.count(t[k].text) != 0 &&
                           k + 1 < body_end && t[k + 1].text == "(";
      if (accumulates || appends) {
        findings->push_back(
            {rel, t[i].line, "nondet-iteration",
             "range-for over an unordered container feeds `" + t[k].text +
                 "`; iteration order is hash-seed dependent — iterate a "
                 "sorted copy to keep reductions bitwise deterministic"});
        break;
      }
    }
  }
}

/// hot-path-string-map: a map keyed by std::string declared in the hot
/// simulation layers. The shape is `map|unordered_map < [std ::] string ,`
/// on the token stream, so multi-line declarations and both qualified and
/// unqualified spellings are caught.
void scan_hot_string_map(const std::string& rel,
                         const std::vector<Token>& t,
                         std::vector<Finding>* findings) {
  if (rel.rfind("sim/", 0) != 0 && rel.rfind("dynais/", 0) != 0) return;
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    if (t[i].kind != Token::Kind::kIdent ||
        (t[i].text != "map" && t[i].text != "unordered_map") ||
        t[i + 1].text != "<")
      continue;
    std::size_t j = i + 2;
    if (j + 1 < t.size() && t[j].text == "std" && t[j + 1].text == "::")
      j += 2;
    if (j + 1 < t.size() && t[j].text == "string" && t[j + 1].text == ",") {
      findings->push_back(
          {rel, t[i].line, "hot-path-string-map",
           "`" + t[i].text +
               "` keyed by std::string in a hot simulation layer; string "
               "hashing/compares dominate small lookups — key on an "
               "interned id, or allowlist if the map is provably cold"});
    }
  }
}

void scan_file(const SourceFile& file, const RuleOptions& opts,
               std::vector<Finding>* findings) {
  const std::string& rel = file.rel;
  const bool is_header = file.is_header();
  const std::vector<std::string> lines = split_lines(file.stripped);
  for (std::size_t i = 0; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::string& raw =
        i < file.raw_lines.size() ? file.raw_lines[i] : line;
    const std::size_t lineno = i + 1;
    std::smatch m;

    if (is_header && std::regex_search(line, m, kRawFreqDecl)) {
      const std::string name = m[1].str();
      if (name.find("_per_") == std::string::npos) {
        findings->push_back({rel, lineno, "raw-freq-api",
                             "raw frequency scalar `" + name +
                                 "` in a header; use common::Freq"});
      }
    }
    if (is_header && std::regex_search(line, m, kRawPowerDecl)) {
      const std::string name = m[1].str();
      if (name.find("_per_") == std::string::npos) {
        findings->push_back(
            {rel, lineno, "raw-power-scalar",
             "raw power/energy scalar `" + name +
                 "` in a header; use common::Power / common::Energy"});
      }
    }
    if (std::regex_search(line, m, kBannedCall)) {
      findings->push_back({rel, lineno, "banned-call",
                           "banned call `" + m[0].str() +
                               "`; use common/rng or the simulated clock"});
    }
    if (!io_layer_file(rel) && std::regex_search(line, m, kBannedIo)) {
      findings->push_back({rel, lineno, "banned-io",
                           "direct output `" + m[0].str() +
                               "`; route through common/log or common/table"});
    }
    if (!hw_layer_file(rel) && std::regex_search(line, m, kHwMutation)) {
      findings->push_back(
          {rel, lineno, "hw-mutation",
           "direct hardware mutation `" + m[0].str() +
               "`; go through eard::NodeDaemon (or the fault injector)"});
    }
    if (std::regex_search(line, m, kCHeader)) {
      findings->push_back({rel, lineno, "include-hygiene",
                           "C header <" + m[1].str() + ".h>; use <c" +
                               m[1].str() + ">"});
    } else if (std::regex_search(line, m, kIostream)) {
      findings->push_back({rel, lineno, "include-hygiene",
                           "<iostream> is banned in src/; use common/log"});
    } else if (std::regex_search(line, kQuotedInclude) &&
               std::regex_search(raw, m, kLocalInclude)) {
      // The stripper blanks string contents, so gate on the stripped
      // line (a commented-out include must stay quiet) but read the
      // path from the raw one.
      const std::string inc = m[1].str();
      if (inc.find('/') == std::string::npos) {
        findings->push_back({rel, lineno, "include-hygiene",
                             "local include \"" + inc +
                                 "\" must be module-qualified "
                                 "(e.g. \"common/" +
                                 inc + "\")"});
      }
    }
  }

  // The dataflow rules walk the token stream of the whole file.
  if (!opts.skip_nondet_iteration) {
    scan_nondet_iteration(rel, file.tokens, findings);
  }
  scan_hot_string_map(rel, file.tokens, findings);
  std::stable_sort(findings->begin(), findings->end(),
                   [](const Finding& a, const Finding& b) {
                     return a.line < b.line;
                   });
}

}  // namespace lint
