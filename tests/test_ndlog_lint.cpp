// Tests for the multi-pass diagnostics engine: one clean program asserting
// zero diagnostics, one minimal trigger per diagnostic code (asserting code,
// severity, and line number), sink behavior (all findings collected, sorted),
// renderer output, and the located throwing wrappers.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string>

#include "core/protocols.hpp"
#include "ndlog/analysis.hpp"
#include "ndlog/diagnostics.hpp"
#include "ndlog/lint.hpp"
#include "ndlog/parser.hpp"

namespace fvn::ndlog {
namespace {

std::vector<Diagnostic> lint_source(const std::string& source) {
  DiagnosticSink sink;
  lint_program(parse_program(source), sink);
  return sink.diagnostics();
}

/// Non-note diagnostics with the given code (notes ride along with the
/// finding they annotate and share its code).
std::vector<Diagnostic> with_code(const std::vector<Diagnostic>& diags,
                                  std::string_view code) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.code == code && d.severity != Severity::Note) out.push_back(d);
  }
  return out;
}

TEST(Lint, CleanProgramHasZeroDiagnostics) {
  // Line-numbered so any regression names a position. `_C` marks the unused
  // cost column; both predicates are materialized and reachable is read.
  const auto diags = lint_source(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C).\n"
      "t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).\n");
  EXPECT_TRUE(diags.empty()) << render_human(diags);
}

TEST(Lint, PaperProtocolsAreErrorFree) {
  for (const auto& program :
       {core::path_vector_program(), core::distance_vector_program(),
        core::link_state_program(), core::reachable_program(),
        core::policy_path_vector_program(), core::spanning_tree_program()}) {
    DiagnosticSink sink;
    lint_program(program, sink);
    EXPECT_EQ(sink.count(Severity::Error), 0u)
        << program.name << ":\n"
        << render_human(sink.diagnostics());
  }
}

TEST(Lint, ND0002ArityMismatch) {
  const auto diags = lint_source(
      "materialize(q, infinity, infinity, keys(1)).\n"
      "materialize(p, infinity, infinity, keys(1)).\n"
      "materialize(r, infinity, infinity, keys(1)).\n"
      "a1 p(@X) :- q(@X).\n"
      "a2 r(@Y) :- q(@Y,_Z).\n");
  const auto hits = with_code(diags, "ND0002");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Error);
  EXPECT_EQ(hits[0].span.begin.line, 5);
}

TEST(Lint, ND0003UnboundVariable) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X).\n");
  const auto hits = with_code(diags, "ND0003");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Error);
  EXPECT_EQ(hits[0].span.begin.line, 3);
  EXPECT_NE(hits[0].message.find("'Y'"), std::string::npos);
}

TEST(Lint, ND0004UnknownFunction) {
  // An unknown name, and a builtin called with the wrong argument count.
  for (const auto& [call, message] :
       {std::pair{"f_nosuch(X)", "unknown function 'f_nosuch'"},
        std::pair{"f_init(X)", "f_init takes 2 arguments, got 1"}}) {
    const auto diags = lint_source(
        std::string("materialize(b, infinity, infinity, keys(1)).\n"
                    "materialize(a, infinity, infinity, keys(1,2)).\n"
                    "r1 a(@X,Y) :- b(@X), Y=") +
        call + ".\n");
    const auto hits = with_code(diags, "ND0004");
    ASSERT_EQ(hits.size(), 1u) << render_human(diags);
    EXPECT_EQ(hits[0].severity, Severity::Error);
    EXPECT_EQ(hits[0].span.begin.line, 3);
    EXPECT_NE(hits[0].message.find(message), std::string::npos) << hits[0].message;
  }
}

TEST(Lint, ND0005NotStratifiable) {
  const auto diags = lint_source(
      "materialize(q, infinity, infinity, keys(1)).\n"
      "materialize(p, infinity, infinity, keys(1)).\n"
      "r1 p(@X) :- q(@X), !p(@X).\n");
  const auto hits = with_code(diags, "ND0005");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Error);
  EXPECT_EQ(hits[0].span.begin.line, 3);
}

TEST(Lint, ND0006UnusedPredicate) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "r1 a(@X) :- b(@X).\n");
  const auto hits = with_code(diags, "ND0006");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 2);
  EXPECT_NE(hits[0].message.find("'a'"), std::string::npos);
}

TEST(Lint, ND0007UnderivablePredicate) {
  const auto diags = lint_source(
      "materialize(c, infinity, infinity, keys(1)).\n"
      "r1 c(@X) :- b(@X).\n");
  const auto hits = with_code(diags, "ND0007");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 2);
  EXPECT_NE(hits[0].message.find("'b'"), std::string::npos);
}

TEST(Lint, ND0007ExemptsPeriodicAndMaterialized) {
  const auto diags = lint_source(
      "materialize(beat, infinity, infinity, keys(1)).\n"
      "r1 beat(@N) :- periodic(@N,_I).\n");
  EXPECT_TRUE(with_code(diags, "ND0007").empty()) << render_human(diags);
}

TEST(Lint, ND0008DuplicateRule) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(a, infinity, infinity, keys(1)).\n"
      "r1 a(@X) :- b(@X).\n"
      "r2 a(@X) :- b(@X).\n");
  const auto hits = with_code(diags, "ND0008");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 4);  // the later duplicate is flagged
  EXPECT_NE(hits[0].message.find("r1"), std::string::npos);
}

TEST(Lint, ND0009SingletonVariable) {
  const auto diags = lint_source(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(r, infinity, infinity, keys(1,2)).\n"
      "r1 r(@S,D) :- link(@S,D,C).\n");
  const auto hits = with_code(diags, "ND0009");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 3);
  EXPECT_NE(hits[0].message.find("'C'"), std::string::npos);
  EXPECT_NE(hits[0].hint.find("_C"), std::string::npos);
}

TEST(Lint, ND0009UnderscorePrefixSuppresses) {
  const auto diags = lint_source(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(r, infinity, infinity, keys(1,2)).\n"
      "r1 r(@S,D) :- link(@S,D,_C).\n");
  EXPECT_TRUE(with_code(diags, "ND0009").empty()) << render_human(diags);
}

TEST(Lint, ND0010CartesianProductBody) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(c, infinity, infinity, keys(1)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X), c(@Y).\n");
  const auto hits = with_code(diags, "ND0010");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 4);
}

TEST(Lint, ND0010ComparisonJoinsAtoms) {
  // X<Y correlates the two atoms into a theta-join: no warning.
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(c, infinity, infinity, keys(1)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X), c(@Y), X<Y.\n");
  EXPECT_TRUE(with_code(diags, "ND0010").empty()) << render_human(diags);
}

TEST(Lint, ND0011AggregateOverGuardedBody) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1,2)).\n"
      "materialize(m, infinity, infinity, keys(1)).\n"
      "r1 m(@X,min<C>) :- b(@X,C), C<10.\n");
  const auto hits = with_code(diags, "ND0011");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 3);
  EXPECT_NE(hits[0].message.find("min<C>"), std::string::npos);
}

TEST(Lint, ND0012NonLocalizableRule) {
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1,2,3)).\n"
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "materialize(d, infinity, infinity, keys(1,2)).\n"
      "materialize(a, infinity, infinity, keys(1)).\n"
      "r1 a(@X) :- b(@X,Y,Z), c(@Y,X), d(@Z,X).\n");
  const auto hits = with_code(diags, "ND0012");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 5);
  EXPECT_NE(hits[0].message.find("3 location"), std::string::npos);
}

TEST(Lint, ND0013NotLinkRestricted) {
  // Two locations, but neither atom carries the other's location variable —
  // the runtime localizer would reject this at execution time; the lint
  // reports it statically, at the rule's position.
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1,2)).\n"
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X,W), c(@Y,W).\n");
  const auto hits = with_code(diags, "ND0013");
  ASSERT_EQ(hits.size(), 1u) << render_human(diags);
  EXPECT_EQ(hits[0].severity, Severity::Warning);
  EXPECT_EQ(hits[0].span.begin.line, 4);
  EXPECT_NE(hits[0].message.find("link-restricted"), std::string::npos);
}

TEST(Lint, ND0013SilentOnLinkRestrictedRule) {
  // The paper's r2: link(@S,Z,...) carries Z, so shipping link to @Z is a
  // valid orientation — localizable, no ND0013.
  const auto diags = lint_source(core::path_vector_source());
  EXPECT_TRUE(with_code(diags, "ND0013").empty()) << render_human(diags);
  // And a rule the localizer handles by shipping the *other* way.
  const auto diags2 = lint_source(
      "materialize(b, infinity, infinity, keys(1,2)).\n"
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X,Y), c(@Y,X).\n");
  EXPECT_TRUE(with_code(diags2, "ND0013").empty()) << render_human(diags2);
}

TEST(Lint, ND0013NotEmittedForThreeLocationRules) {
  // > 2 locations is ND0012's finding; ND0013 must not double-report it.
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1,2,3)).\n"
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "materialize(d, infinity, infinity, keys(1,2)).\n"
      "materialize(a, infinity, infinity, keys(1)).\n"
      "r1 a(@X) :- b(@X,Y,Z), c(@Y,X), d(@Z,X).\n");
  EXPECT_TRUE(with_code(diags, "ND0013").empty()) << render_human(diags);
}

TEST(Lint, CollectsEveryFindingNotJustTheFirst) {
  // Two unbound variables in two different rules plus an arity clash: the
  // sink must surface all of them in one run, sorted by line.
  const auto diags = lint_source(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "materialize(e, infinity, infinity, keys(1,2)).\n"
      "r1 a(@X,Y) :- b(@X).\n"
      "r2 e(@X,Y) :- b(@X).\n"
      "r3 a(@X) :- b(@X).\n");
  std::size_t errors = 0;
  for (const auto& d : diags) {
    if (d.severity == Severity::Error) ++errors;
  }
  EXPECT_GE(errors, 3u) << render_human(diags);
  // Sorted by location.
  int last_line = 0;
  for (const auto& d : diags) {
    if (!d.span.valid()) continue;
    EXPECT_GE(d.span.begin.line, last_line);
    last_line = d.span.begin.line;
  }
}

TEST(Lint, CatalogCoversEveryEmittedCode) {
  const auto& catalog = diagnostic_catalog();
  auto has = [&](std::string_view code) {
    return std::any_of(catalog.begin(), catalog.end(),
                       [&](const DiagnosticCodeInfo& c) { return c.code == code; });
  };
  for (int i = 1; i <= 12; ++i) {
    char code[8];
    std::snprintf(code, sizeof(code), "ND%04d", i);
    EXPECT_TRUE(has(code)) << code;
  }
}

// ---------------------------------------------------------------------------
// Throwing wrappers keep their API but gain source positions.
// ---------------------------------------------------------------------------

TEST(Lint, AnalyzeStillThrowsOnFirstErrorWithLocation) {
  auto program = parse_program(
      "materialize(b, infinity, infinity, keys(1)).\n"
      "r1 a(@X,Y) :- b(@X).\n");
  try {
    analyze(program);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_NE(std::string(e.what()).find("'Y'"), std::string::npos) << e.what();
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos) << e.what();
  }
}

TEST(Lint, SyntheticRulesCarryNoLocation) {
  // Programmatically-built rules (loc 0) must not fabricate positions.
  Program program;
  Rule rule;
  rule.name = "g1";
  rule.head.predicate = "a";
  rule.head.args.push_back(HeadArg::plain(Term::var("X")));
  program.rules.push_back(rule);
  DiagnosticSink sink;
  check_safety(program, sink);
  ASSERT_TRUE(sink.has_errors());
  EXPECT_FALSE(sink.first_error()->span.valid());
  try {
    check_safety(program);
    FAIL() << "expected AnalysisError";
  } catch (const AnalysisError& e) {
    EXPECT_EQ(std::string(e.what()).find("line"), std::string::npos) << e.what();
  }
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

TEST(Diagnostics, HumanRenderingIncludesFilePositionAndHint) {
  DiagnosticSink sink;
  sink.error("ND0003", "variable 'Y' in head is not bound",
             SourceSpan::token({3, 7}, 1))
      .hint = "bind 'Y'";
  const std::string text = render_human(sink.diagnostics(), "prog.ndlog");
  EXPECT_NE(text.find("prog.ndlog:3:7: error: ND0003:"), std::string::npos) << text;
  EXPECT_NE(text.find("hint: bind 'Y'"), std::string::npos) << text;
}

TEST(Diagnostics, JsonRenderingEscapesAndCarriesSpan) {
  DiagnosticSink sink;
  sink.warning("ND0009", "message with \"quotes\"\nand newline",
               SourceSpan::token({2, 5}, 4));
  const std::string json = render_json(sink.diagnostics());
  EXPECT_NE(json.find("\"severity\":\"warning\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"code\":\"ND0009\""), std::string::npos) << json;
  EXPECT_NE(json.find("\\\"quotes\\\"\\nand newline"), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\":2,\"column\":5,\"end_line\":2,\"end_column\":9"),
            std::string::npos)
      << json;
}

TEST(Diagnostics, SinkCountsBySeverity) {
  DiagnosticSink sink;
  sink.error("ND0002", "e1");
  sink.warning("ND0009", "w1");
  sink.warning("ND0010", "w2");
  sink.note("ND0002", "n1");
  EXPECT_EQ(sink.count(Severity::Error), 1u);
  EXPECT_EQ(sink.count(Severity::Warning), 2u);
  EXPECT_EQ(sink.count(Severity::Note), 1u);
  EXPECT_TRUE(sink.has_errors());
  EXPECT_EQ(sink.first_error()->message, "e1");
}

// ---------------------------------------------------------------------------
// Shared localization helper (reused by runtime/localize).
// ---------------------------------------------------------------------------

TEST(Lint, BodyLocationVarsMatchesPaperRule) {
  auto program = core::path_vector_program();
  const auto& r2 = program.rules[1];
  EXPECT_EQ(body_location_vars(r2), (std::set<std::string>{"S", "Z"}));
}

// ---------------------------------------------------------------------------
// docs/DIAGNOSTICS.md stays in sync with the registered catalog
// ---------------------------------------------------------------------------

TEST(Catalog, DiagnosticsDocCoversEveryRegisteredCodeExactly) {
  std::ifstream in(std::string(FVN_SOURCE_DIR) + "/docs/DIAGNOSTICS.md");
  ASSERT_TRUE(in.good()) << "docs/DIAGNOSTICS.md missing";
  std::ostringstream os;
  os << in.rdbuf();
  const std::string doc = os.str();

  // Every registered code has a table row with the registered severity and
  // summary, byte-for-byte.
  for (const auto& info : diagnostic_catalog()) {
    std::string severity;
    switch (info.severity) {
      case Severity::Error: severity = "error"; break;
      case Severity::Warning: severity = "warning"; break;
      case Severity::Note: severity = "note"; break;
    }
    const std::string row = "| " + std::string(info.code) + " | " + severity +
                            " | " + std::string(info.summary) + " |";
    EXPECT_NE(doc.find(row), std::string::npos)
        << "docs/DIAGNOSTICS.md is missing or has a stale row for "
        << info.code << "\nexpected: " << row;
  }
  // Retired codes stay reserved: the registry never registers one again,
  // and the doc names them only in its "Retired codes" section.
  const std::set<std::string> retired = {"ND0022", "ND0023", "ND0024", "ND0025"};
  const std::size_t retired_begin = doc.find("\n## Retired codes\n");
  ASSERT_NE(retired_begin, std::string::npos) << "no Retired codes section";
  const std::size_t retired_end = doc.find("\n## ", retired_begin + 1);
  const auto in_retired_section = [&](std::size_t pos) {
    return pos > retired_begin && pos < retired_end;
  };
  std::set<std::string> registered;
  for (const auto& info : diagnostic_catalog()) {
    registered.emplace(info.code);
    EXPECT_EQ(retired.count(std::string(info.code)), 0u)
        << info.code << " is retired and must not be registered again";
  }
  for (const auto& code : retired) {
    const std::size_t pos = doc.find("| " + code + " |");
    EXPECT_TRUE(pos != std::string::npos && in_retired_section(pos))
        << "docs/DIAGNOSTICS.md does not list retired code " << code
        << " under Retired codes";
  }
  // And the doc mentions no unregistered ND codes (catches typos and rows
  // for codes that were renumbered away).
  for (std::size_t pos = doc.find("ND00"); pos != std::string::npos;
       pos = doc.find("ND00", pos + 1)) {
    const std::string code = doc.substr(pos, 6);
    EXPECT_TRUE(registered.count(code) == 1 ||
                (retired.count(code) == 1 && in_retired_section(pos)))
        << "docs/DIAGNOSTICS.md mentions unregistered code " << code;
  }
}

// ---------------------------------------------------------------------------
// Folding ship-rule findings onto their origin rule (a localized program fed
// back through lint/analyze must not report the same defect twice).
// ---------------------------------------------------------------------------

// A localized-shape program: `link_sh_r1_0` is the generated ship rule for
// r1 (runtime::localize naming), and its body variable C is a singleton —
// the ND0009 lands on the ship rule and must be folded back onto r1.
const char* kShipSingleton =
    "materialize(link, infinity, infinity, keys(1,2)).\n"
    "materialize(link_sh_r1_0, infinity, infinity, keys(1,2)).\n"
    "materialize(reach, infinity, infinity, keys(1,2)).\n"
    "link_sh_r1_0 link_sh_r1_0(S,@Z) :- link(@S,Z,C).\n"
    "r1 reach(@Z,S) :- link_sh_r1_0(S,@Z).\n";

TEST(LintDedupe, ShipRuleFindingRetargetsToOriginRule) {
  auto program = parse_program(kShipSingleton);
  const auto diags = lint_source(kShipSingleton);
  const auto nd9 = with_code(diags, "ND0009");
  ASSERT_EQ(nd9.size(), 1u) << render_human(diags);
  // Retargeted: span, rule index and predicate all name r1, not the ship.
  EXPECT_EQ(nd9[0].span.begin.line, 5);
  EXPECT_EQ(nd9[0].rule_index, 1);
  EXPECT_EQ(nd9[0].predicate, "reach");
  for (const auto& d : diags) {
    EXPECT_EQ(d.predicate.find("_sh_"), std::string::npos) << render_human({d});
    if (d.rule_index >= 0) {
      EXPECT_EQ(program.rules.at(static_cast<std::size_t>(d.rule_index))
                    .name.find("_sh_"),
                std::string::npos)
          << render_human({d});
    }
  }
}

TEST(LintDedupe, ShipFindingDuplicatingOriginFindingIsDropped) {
  // Both the ship rule and r1 itself have a singleton (C and S): only r1's
  // own finding survives; the retargeted ship copy is the duplicate.
  const auto diags = lint_source(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(link_sh_r1_0, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1)).\n"
      "link_sh_r1_0 link_sh_r1_0(S,@Z) :- link(@S,Z,C).\n"
      "r1 reach(@Z) :- link_sh_r1_0(S,@Z).\n");
  const auto nd9 = with_code(diags, "ND0009");
  ASSERT_EQ(nd9.size(), 1u) << render_human(diags);
  EXPECT_EQ(nd9[0].rule_index, 1);
  EXPECT_EQ(nd9[0].predicate, "reach");
}

TEST(LintDedupe, ProgramsWithoutShipRulesAreUntouched) {
  // Same defects, no ship naming: nothing may be folded or dropped.
  const auto diags = lint_source(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(relay, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1)).\n"
      "h1 relay(S,@Z) :- link(@S,Z,C).\n"
      "r1 reach(@Z) :- relay(S,@Z).\n");
  EXPECT_EQ(with_code(diags, "ND0009").size(), 2u) << render_human(diags);
}

}  // namespace
}  // namespace fvn::ndlog
