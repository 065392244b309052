// Unit tests for the ear_lint tokenizer (tools/lint/token.*): the
// fixes that motivated v3 (raw strings, digit separators) and v4
// (leading-dot and hex-float pp-numbers). The rules themselves are
// proven end to end by the LINT-EXPECT fixtures in tests/lint_fixtures/.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/token.hpp"

namespace {

// ---------------------------------------------------------------------------
// Tokenizer
// ---------------------------------------------------------------------------

TEST(LintToken, RawStringContentsAreBlanked) {
  // The raw-string body holds a quote, a comment opener and a brace —
  // none may leak into the token stream or change scanner state.
  const std::string src =
      "const char* s = R\"(quote \" slash // brace { )\";\n"
      "int after = 1;\n";
  const std::string stripped = lint::strip_comments_and_strings(src);
  EXPECT_EQ(stripped.find('{'), std::string::npos);
  EXPECT_EQ(stripped.find("//"), std::string::npos);
  const std::vector<lint::Token> t = lint::tokenize(stripped);
  const auto has = [&](const std::string& text) {
    return std::any_of(t.begin(), t.end(), [&](const lint::Token& tok) {
      return tok.text == text;
    });
  };
  EXPECT_TRUE(has("after"));  // the scanner recovered after the literal
  EXPECT_FALSE(has("quote"));
  EXPECT_FALSE(has("slash"));
}

TEST(LintToken, RawStringCustomDelimiterAndPrefixes) {
  const std::string src =
      "auto a = u8R\"x(not \" done )\" still)x\";\n"
      "auto b = LR\"(two\nlines)\";\n"
      "int tail = 2;\n";
  const std::vector<lint::Token> t =
      lint::tokenize(lint::strip_comments_and_strings(src));
  // `tail` must survive on line 4: the embedded `)\"` did not close the
  // x-delimited literal, and the multi-line literal kept line numbers
  // (its body claims lines 2-3).
  const auto it = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.text == "tail";
  });
  ASSERT_NE(it, t.end());
  EXPECT_EQ(it->line, 4U);
}

TEST(LintToken, DigitSeparatorsStayOneNumber) {
  const std::vector<lint::Token> t =
      lint::tokenize(lint::strip_comments_and_strings(
          "std::size_t n = 1'000'000; char c = 'x'; int m = 2;\n"));
  const auto it = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.kind == lint::Token::Kind::kNumber && tok.text == "1'000'000";
  });
  EXPECT_NE(it, t.end()) << "digit separators must not split the literal";
  // The real char literal right after is still stripped.
  const auto cx = std::find_if(t.begin(), t.end(), [](const lint::Token& tok) {
    return tok.text == "x";
  });
  EXPECT_EQ(cx, t.end());
}

// ---------------------------------------------------------------------------
// Tokenizer: pp-number edge cases (v4)
// ---------------------------------------------------------------------------

std::vector<lint::Token> toks_of(const std::string& src) {
  return lint::tokenize(lint::strip_comments_and_strings(src));
}

bool has_number(const std::vector<lint::Token>& t, const std::string& text) {
  return std::any_of(t.begin(), t.end(), [&](const lint::Token& tok) {
    return tok.kind == lint::Token::Kind::kNumber && tok.text == text;
  });
}

TEST(LintToken, HexFloatLiteralsAreOneToken) {
  const std::vector<lint::Token> t =
      toks_of("double a = 0x1.8p3; double b = 0x.4p-2; double c = 0xA.Bp+1;");
  EXPECT_TRUE(has_number(t, "0x1.8p3"));
  EXPECT_TRUE(has_number(t, "0x.4p-2"));
  EXPECT_TRUE(has_number(t, "0xA.Bp+1"));
}

TEST(LintToken, LeadingDotFloatsAreOneToken) {
  // `.5e-3` is a pp-number even though it starts with `.`; before v4 it
  // lexed as punct `.` + number `5e-3` and broke expression parsing.
  const std::vector<lint::Token> t = toks_of("double a = .5e-3; int b = 1;");
  EXPECT_TRUE(has_number(t, ".5e-3"));
  // A member access right after must still be punct + idents.
  const std::vector<lint::Token> m = toks_of("int x = obj.field;");
  EXPECT_FALSE(has_number(m, ".field"));
}

}  // namespace
