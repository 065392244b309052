// ear_lint token layer: comment/string stripping and a C++ tokenizer.
//
// The linter's rules walk token streams, not raw text, because the
// shapes they match (a range-for header on one line, its accumulator
// three lines below; a declaration split across lines) span lines. The
// stripper blanks comments and literal *contents* while keeping the
// line structure intact, so every token still carries a real line
// number for findings.
//
// The stripper understands the two constructs that broke the v2
// single-TU scanner:
//   * raw string literals `R"delim(...)delim"` (any prefix of u8R/uR/LR)
//     — the contents may hold quotes, backslashes and `//`, none of
//     which may change scanner state;
//   * digit separators (`1'000'000`) — an apostrophe inside a pp-number
//     is not the start of a char literal.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace lint {

struct Token {
  enum class Kind { kIdent, kNumber, kPunct };
  Kind kind;
  std::string text;
  std::size_t line;
};

/// Replace comments and string/char literal contents with spaces,
/// keeping line structure intact so findings carry real line numbers.
[[nodiscard]] std::string strip_comments_and_strings(const std::string& text);

/// Lex comment- and string-stripped text into identifier/number/
/// punctuator tokens with 1-based line numbers.
[[nodiscard]] std::vector<Token> tokenize(const std::string& stripped);

[[nodiscard]] std::vector<std::string> split_lines(const std::string& text);

inline constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// Index of the token matching the opener at `open` ('(', '[' or '{'),
/// or kNpos. Counts only the same bracket kind, which is all the rules
/// need.
[[nodiscard]] std::size_t match_forward(const std::vector<Token>& t,
                                        std::size_t open);

/// Skip a balanced template argument list starting at the '<' at `open`;
/// returns the index just past the closing '>'. The tokenizer emits
/// `>>` as one token, which in template context closes two levels.
[[nodiscard]] std::size_t skip_template_args(const std::vector<Token>& t,
                                             std::size_t open);

}  // namespace lint
