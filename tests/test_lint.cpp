// Unit tests for the ear_lint library (tools/lint/): the tokenizer
// fixes that motivated v3 (raw strings, digit separators) and v4
// (leading-dot and hex-float pp-numbers), the cross-TU call graph, the
// nondet-taint junction logic, the shard-ownership pass — including
// the facility serial-merge mutant the annotations exist to catch —
// and the SARIF output and per-pass expectation tags the deep passes
// feed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/deep.hpp"
#include "lint/findings.hpp"
#include "lint/index.hpp"
#include "lint/rules.hpp"
#include "lint/source.hpp"
#include "lint/token.hpp"

namespace {

using lint::Program;

std::vector<lint::Finding> deep_findings(const Program& program) {
  const lint::Index index = lint::build_index(program);
  const lint::CallGraph cg = lint::build_callgraph(program, index);
  std::vector<lint::Finding> findings;
  lint::run_deep_passes(program, index, cg, &findings);
  lint::sort_findings(&findings);
  return findings;
}

std::size_t count_rule(const std::vector<lint::Finding>& fs,
                       const std::string& rule) {
  return static_cast<std::size_t>(
      std::count_if(fs.begin(), fs.end(),
                    [&](const lint::Finding& f) { return f.rule == rule; }));
}

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
// Cross-TU call graph + taint
// ---------------------------------------------------------------------------

TEST(LintDeep, TaintCrossesTranslationUnits) {
  const Program program = Program::from_memory({
      {"a/shared.hpp",
       "#pragma once\n"
       "namespace fx { double jitter(); }\n"},
      {"a/producer.cpp",
       "#include \"a/shared.hpp\"\n"
       "#include <random>\n"
       "namespace fx {\n"
       "double jitter() { std::random_device rd; return rd() * 1.0; }\n"
       "}\n"},
      {"a/consumer.cpp",
       "#include \"a/shared.hpp\"\n"
       "namespace fx {\n"
       "double mean() { double x = jitter(); return reduce_runs(x); }\n"
       "}\n"},
  });
  const std::vector<lint::Finding> fs = deep_findings(program);
  ASSERT_EQ(count_rule(fs, "nondet-taint"), 1U);
  const auto it = std::find_if(fs.begin(), fs.end(), [](const lint::Finding& f) {
    return f.rule == "nondet-taint";
  });
  EXPECT_EQ(it->file, "a/consumer.cpp");
  EXPECT_NE(it->message.find("random_device"), std::string::npos);
  EXPECT_NE(it->message.find("reduce_runs"), std::string::npos);
}

TEST(LintDeep, NamespaceCollisionAddsNoEdge) {
  // Same-named helper in two namespaces: the unqualified call must bind
  // to the enclosing namespace's overload, so beta::use stays clean
  // even though alpha::scale is tainted.
  const Program program = Program::from_memory({
      {"b/collide.hpp",
       "#pragma once\n"
       "namespace alpha { double scale(); }\n"
       "namespace beta { double scale(); }\n"},
      {"b/alpha.cpp",
       "#include \"b/collide.hpp\"\n"
       "#include <random>\n"
       "namespace alpha {\n"
       "double scale() { std::random_device rd; return rd() * 1.0; }\n"
       "}\n"},
      {"b/beta.cpp",
       "#include \"b/collide.hpp\"\n"
       "namespace beta {\n"
       "double scale() { return 0.5; }\n"
       "double use() { double x = scale(); return reduce_runs(x); }\n"
       "}\n"},
  });
  EXPECT_EQ(count_rule(deep_findings(program), "nondet-taint"), 0U);
}

TEST(LintDeep, SubsumedIterationRuleKeepsItsId) {
  const std::string body =
      "#include <unordered_map>\n"
      "#include <string>\n"
      "double total(const std::unordered_map<std::string, double>& m) {\n"
      "  double sum = 0.0;\n"
      "  for (const auto& [k, v] : m) {\n"
      "    sum += v;\n"
      "  }\n"
      "  return sum;\n"
      "}\n";
  const Program program = Program::from_memory({{"c/iter.cpp", body}});

  // Shallow: the per-file rule fires.
  std::vector<lint::Finding> shallow;
  lint::scan_file(program.files()[0], {}, &shallow);
  ASSERT_EQ(count_rule(shallow, "nondet-iteration"), 1U);

  // Deep: the taint pass re-emits the identical finding (same rule id,
  // same line), so fixtures and allowlists survive the subsumption.
  const std::vector<lint::Finding> deep = deep_findings(program);
  ASSERT_EQ(count_rule(deep, "nondet-iteration"), 1U);
  const auto at = [](const std::vector<lint::Finding>& fs) {
    return std::find_if(fs.begin(), fs.end(), [](const lint::Finding& f) {
             return f.rule == "nondet-iteration";
           })
        ->line;
  };
  EXPECT_EQ(at(shallow), at(deep));
}

// ---------------------------------------------------------------------------
// Shard ownership: the facility serial-merge mutant
// ---------------------------------------------------------------------------

namespace mutant {

// A miniature of a facility round: per-slot readings are written from
// the parallel region, then merged serially. `serial` toggles whether
// the merge stays outside the region (the event core's shape) or is
// hoisted into it (the mutant the annotation must catch).
std::string facility_round(bool serial) {
  const std::string merge =
      "    readings[g] = slots[g];\n"
      "    total_w += readings[g];\n";
  std::string region =
      "  parallel_for(n, [&](std::size_t g) {\n"
      "    slots[g] = advance(g);\n";
  if (!serial) {
    region += merge;  // the mutant: merge hoisted into the region
  }
  region += "  });\n";
  std::string tail;
  if (serial) {
    tail = "  for (std::size_t g = 0; g < n; ++g) {\n" + merge + "  }\n";
  }
  return
      "#include <cstddef>\n"
      "#include <vector>\n"
      "double advance(std::size_t g);\n"
      "void round(std::size_t n) {\n"
      "  EAR_SHARD_LOCAL std::vector<double> slots(n, 0.0);\n"
      "  EAR_REDUCED_SERIAL std::vector<double> readings(n, 0.0);\n"
      "  double total_w = 0.0;\n" +
      region + tail +
      "  publish(total_w);\n"
      "}\n";
}

}  // namespace mutant

TEST(LintDeep, FacilitySerialMergeStaysQuiet) {
  const Program program =
      Program::from_memory({{"d/round.cpp", mutant::facility_round(true)}});
  EXPECT_EQ(count_rule(deep_findings(program), "shard-ownership"), 0U);
}

TEST(LintDeep, FacilityParallelMergeMutantIsCaught) {
  const Program program =
      Program::from_memory({{"d/round.cpp", mutant::facility_round(false)}});
  EXPECT_GE(count_rule(deep_findings(program), "shard-ownership"), 1U);
}

TEST(LintDeep, GuardedByRequiresTheDeclaredMutex) {
  const std::string src =
      "#include <mutex>\n"
      "#include <vector>\n"
      "void tally(std::size_t n) {\n"
      "  std::mutex mu;\n"
      "  std::mutex other;\n"
      "  EAR_GUARDED_BY(mu) std::vector<double> acc(4, 0.0);\n"
      "  parallel_for(n, [&](std::size_t i) {\n"
      "    std::lock_guard<std::mutex> lock(other);\n"
      "    acc[i % 4] += 1.0;\n"
      "  });\n"
      "}\n";
  const Program program = Program::from_memory({{"e/tally.cpp", src}});
  EXPECT_EQ(count_rule(deep_findings(program), "shard-ownership"), 1U);
}

TEST(LintDeep, AnnotationsAreCollectedWithVariableNames) {
  const Program program = Program::from_memory(
      {{"f/state.hpp",
        "#pragma once\n"
        "#include <vector>\n"
        "struct S {\n"
        "  EAR_REDUCED_SERIAL std::vector<double> budgets_;\n"
        "  EAR_GUARDED_BY(mu_) std::vector<double> seconds_;\n"
        "};\n"}});
  const std::vector<lint::Annotation> annots =
      lint::collect_annotations(program);
  ASSERT_EQ(annots.size(), 2U);
  EXPECT_EQ(annots[0].var, "budgets_");
  EXPECT_EQ(annots[1].var, "seconds_");
  EXPECT_EQ(annots[1].lock, "mu_");
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

// ---------------------------------------------------------------------------
// SARIF output and expectation tags for the deep passes
// ---------------------------------------------------------------------------

TEST(LintFindings, SarifCarriesStableRuleIdsAndLines) {
  const std::vector<lint::Finding> fs = {
      {"src/a.cpp", 42, "shard-ownership", "`readings` mutated in a region"},
      {"src/b.cpp", 7, "nondet-taint", "clock read reaches reduce_runs"},
      {"src/a.cpp", 50, "shard-ownership", "another"},
  };
  const std::string path =
      std::string(::testing::TempDir()) + "/ear_lint_sarif_test.json";
  std::string error;
  ASSERT_TRUE(lint::write_sarif(path, fs, &error)) << error;
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string sarif = ss.str();
  std::remove(path.c_str());
  // Rule ids are stable, deduplicated and referenced by index.
  EXPECT_NE(sarif.find("\"id\": \"shard-ownership\""), std::string::npos);
  EXPECT_NE(sarif.find("\"id\": \"nondet-taint\""), std::string::npos);
  EXPECT_EQ(sarif.find("\"id\": \"shard-ownership\""),
            sarif.rfind("\"id\": \"shard-ownership\""));
  // Physical locations carry the finding's file and 1-based line.
  EXPECT_NE(sarif.find("\"startLine\": 42"), std::string::npos);
  EXPECT_NE(sarif.find("\"startLine\": 7"), std::string::npos);
  EXPECT_NE(sarif.find("\"uri\": \"src/b.cpp\""), std::string::npos);
  EXPECT_NE(sarif.find("sarif-2.1.0.json"), std::string::npos);
}

TEST(LintFindings, ExpectationTagsAreHonouredPerPass) {
  const Program program = Program::from_memory({{"t/x.cpp",
      "int f();  // LINT-EXPECT: some-rule\n"
      "int g();  // LINT-EXPECT-DEEP: nondet-taint\n"}});
  const std::vector<lint::Finding> fs = {
      {"t/x.cpp", 1, "some-rule", "m"},
      {"t/x.cpp", 2, "nondet-taint", "m"},
  };
  // Without the DEEP tag its annotation is not collected, so the second
  // finding counts as unexpected; with the tag everything lines up.
  EXPECT_EQ(lint::check_expectations(program.files()[0], fs,
                                     {"LINT-EXPECT:"}),
            1U);
  EXPECT_EQ(lint::check_expectations(program.files()[0], fs,
                                     {"LINT-EXPECT:", "LINT-EXPECT-DEEP:"}),
            0U);
}

}  // namespace
