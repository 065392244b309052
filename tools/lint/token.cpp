#include "lint/token.hpp"

#include <cctype>
#include <sstream>

namespace lint {

namespace {

bool ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// Is the `"` at position `i` the opening quote of a raw string literal?
/// If so return the length of the encoding-prefix+R run directly before
/// it (1 for `R`, 2 for `uR`/`LR`, 3 for `u8R`); 0 otherwise. The prefix
/// must be a complete identifier (`FooR"..."` is a macro name followed
/// by an ordinary string, not a raw literal).
std::size_t raw_prefix_len(const std::string& s, std::size_t i) {
  static const char* kPrefixes[] = {"u8R", "uR", "LR", "R"};
  for (const char* p : kPrefixes) {
    const std::size_t n = std::char_traits<char>::length(p);
    if (i >= n && s.compare(i - n, n, p) == 0 &&
        (i == n || !ident_char(s[i - n - 1]))) {
      return n;
    }
  }
  return 0;
}

/// Is the `'` at position `i` a digit separator rather than the start of
/// a char literal? True iff it sits inside a pp-number: the maximal run
/// of [alnum_'.] characters ending just before it starts with a digit
/// (so `1'000` and `0x1F'ab` qualify, `u8'a'` does not).
bool is_digit_separator(const std::string& s, std::size_t i) {
  if (i == 0 || i + 1 >= s.size()) return false;
  if (!ident_char(s[i + 1])) return false;
  std::size_t b = i;
  while (b > 0 && (ident_char(s[b - 1]) || s[b - 1] == '\'' ||
                   s[b - 1] == '.')) {
    --b;
  }
  return b < i && std::isdigit(static_cast<unsigned char>(s[b]));
}

}  // namespace

std::string strip_comments_and_strings(const std::string& text) {
  std::string out = text;
  enum class St { kCode, kLineComment, kBlockComment, kString, kChar };
  St st = St::kCode;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const char c = out[i];
    const char next = i + 1 < out.size() ? out[i + 1] : '\0';
    switch (st) {
      case St::kCode:
        if (c == '/' && next == '/') {
          st = St::kLineComment;
          out[i] = ' ';
        } else if (c == '/' && next == '*') {
          st = St::kBlockComment;
          out[i] = ' ';
        } else if (c == '"' && raw_prefix_len(text, i) > 0) {
          // Raw string literal: read the delimiter up to '(' and blank
          // everything (newlines excepted) through `)delim"`. No escape
          // processing applies inside.
          std::size_t d = i + 1;
          while (d < text.size() && text[d] != '(' && text[d] != '\n' &&
                 d - i - 1 <= 16) {
            ++d;
          }
          if (d >= text.size() || text[d] != '(') break;  // ill-formed; skip
          const std::string closer =
              ")" + text.substr(i + 1, d - i - 1) + "\"";
          const std::size_t end = text.find(closer, d + 1);
          const std::size_t stop = end == std::string::npos
                                       ? text.size()
                                       : end + closer.size();
          for (std::size_t k = i + 1; k < stop - 1 && k < out.size(); ++k) {
            if (out[k] != '\n') out[k] = ' ';
          }
          i = stop - 1;  // leave the closing quote as the literal's end
        } else if (c == '"') {
          st = St::kString;
        } else if (c == '\'' && !is_digit_separator(text, i)) {
          st = St::kChar;
        }
        break;
      case St::kLineComment:
        if (c == '\n')
          st = St::kCode;
        else
          out[i] = ' ';
        break;
      case St::kBlockComment:
        if (c == '*' && next == '/') {
          out[i] = ' ';
          out[i + 1] = ' ';
          ++i;
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kString:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '"') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
      case St::kChar:
        if (c == '\\' && next != '\0') {
          out[i] = ' ';
          if (next != '\n') out[i + 1] = ' ';
          ++i;
        } else if (c == '\'') {
          st = St::kCode;
        } else if (c != '\n') {
          out[i] = ' ';
        }
        break;
    }
  }
  return out;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

std::vector<Token> tokenize(const std::string& stripped) {
  static const char* kPunct3[] = {"<<=", ">>=", "->*", "..."};
  static const char* kPunct2[] = {"::", "->", "+=", "-=", "*=", "/=",
                                  "%=", "|=", "&=", "^=", "==", "!=",
                                  "<=", ">=", "&&", "||", "++", "--",
                                  "<<", ">>"};
  std::vector<Token> toks;
  std::size_t line = 1;
  const std::size_t n = stripped.size();
  std::size_t i = 0;
  const auto ident_start = [](char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  };
  while (i < n) {
    const char c = stripped[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (ident_start(c)) {
      std::size_t j = i + 1;
      while (j < n && ident_char(stripped[j])) ++j;
      toks.push_back({Token::Kind::kIdent, stripped.substr(i, j - i), line});
      i = j;
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(stripped[i + 1])))) {
      // pp-number: digits, identifier chars, digit separators, dots and
      // exponent signs. A pp-number may also *begin* with `.digit`
      // (`.5e-3`); without this start rule a leading-dot float lexes as
      // punct + number and every downstream expression walk misparses.
      std::size_t j = i + 1;
      while (j < n) {
        const char d = stripped[j];
        if (ident_char(d) || d == '.' || d == '\'') {
          ++j;
        } else if ((d == '+' || d == '-') &&
                   (stripped[j - 1] == 'e' || stripped[j - 1] == 'E' ||
                    stripped[j - 1] == 'p' || stripped[j - 1] == 'P')) {
          ++j;
        } else {
          break;
        }
      }
      toks.push_back({Token::Kind::kNumber, stripped.substr(i, j - i), line});
      i = j;
      continue;
    }
    bool matched = false;
    for (const char* p : kPunct3) {
      if (stripped.compare(i, 3, p) == 0) {
        toks.push_back({Token::Kind::kPunct, p, line});
        i += 3;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    for (const char* p : kPunct2) {
      if (stripped.compare(i, 2, p) == 0) {
        toks.push_back({Token::Kind::kPunct, p, line});
        i += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    toks.push_back({Token::Kind::kPunct, std::string(1, c), line});
    ++i;
  }
  return toks;
}

std::size_t match_forward(const std::vector<Token>& t, std::size_t open) {
  const std::string& o = t[open].text;
  const std::string close = o == "(" ? ")" : (o == "[" ? "]" : "}");
  std::size_t depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    if (t[i].text == o)
      ++depth;
    else if (t[i].text == close && --depth == 0)
      return i;
  }
  return kNpos;
}

std::size_t skip_template_args(const std::vector<Token>& t, std::size_t open) {
  std::size_t depth = 0;
  for (std::size_t i = open; i < t.size(); ++i) {
    const std::string& x = t[i].text;
    if (x == "<") {
      ++depth;
    } else if (x == ">") {
      if (--depth == 0) return i + 1;
    } else if (x == ">>") {
      if (depth <= 2) return i + 1;
      depth -= 2;
    } else if (x == "(" || x == "[") {
      const std::size_t m = match_forward(t, i);
      if (m == kNpos) return kNpos;
      i = m;
    } else if (x == ";" || x == "{") {
      return kNpos;  // not a template argument list after all
    }
  }
  return kNpos;
}

}  // namespace lint
