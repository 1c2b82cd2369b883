// fvn::ltl unit tests: spec parsing and diagnostics, NNF rewriting, Büchi
// construction, LTL model checking over the NDlog transition system, and the
// compiled runtime monitor (including the recorded-trace decoder).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <sstream>
#include <tuple>

#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "ltl/buchi.hpp"
#include "ltl/checker.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/parser.hpp"
#include "obs/trace.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;
using namespace fvn::ltl;

// ---------------------------------------------------------------------------
// Parser
// ---------------------------------------------------------------------------

TEST(LtlParser, SpecWithNamedAndUnnamedProperties) {
  const auto spec = parse_spec(
      "// comment\n"
      "reach: F bestPath(@n0, n2, _, _).\n"
      "G !path(@n0, n0, _, _).\n",
      "t.ltl");
  ASSERT_EQ(spec.properties.size(), 2u);
  EXPECT_EQ(spec.properties[0].name, "reach");
  EXPECT_EQ(spec.properties[0].formula->op, Op::Eventually);
  EXPECT_EQ(spec.properties[1].name, "p2");  // auto-named by 1-based index
  EXPECT_EQ(spec.properties[1].formula->op, Op::Always);
}

TEST(LtlParser, PrecedenceUnaryBindsTighterThanBinary) {
  // F binds to the atom only; && then joins the two temporal subformulas.
  const auto f = parse_formula("F p(a) && G q(b)");
  ASSERT_EQ(f->op, Op::And);
  EXPECT_EQ(f->lhs->op, Op::Eventually);
  EXPECT_EQ(f->rhs->op, Op::Always);
}

TEST(LtlParser, UntilIsRightAssociative) {
  const auto f = parse_formula("p(a) U q(b) U r(c)");
  ASSERT_EQ(f->op, Op::Until);
  EXPECT_EQ(f->lhs->op, Op::Atom);
  EXPECT_EQ(f->rhs->op, Op::Until);
}

TEST(LtlParser, PatternArgsConstantsAndWildcards) {
  const auto f = parse_formula("bestPath(@n0, n2, X, _)");
  ASSERT_EQ(f->op, Op::Atom);
  const Pattern& p = f->pattern;
  EXPECT_EQ(p.predicate, "bestPath");
  ASSERT_EQ(p.args.size(), 4u);
  EXPECT_FALSE(p.args[0].wildcard);  // @n0 with a concrete name is ground
  EXPECT_FALSE(p.args[1].wildcard);  // n2 constant
  EXPECT_TRUE(p.args[2].wildcard);   // upper-case variable
  EXPECT_TRUE(p.args[3].wildcard);   // _

  // List constants read as a fact line reads them and render back, so the
  // pattern is its own AP identity.
  const Pattern route = parse_formula("route(@b, [a,b], 1)")->pattern;
  ASSERT_EQ(route.args.size(), 3u);
  EXPECT_FALSE(route.args[1].wildcard);
  EXPECT_EQ(route.args[1].value, Value::list({Value::addr("a"), Value::addr("b")}));
  EXPECT_EQ(route.to_string(), "route(b,[a,b],1)");
  const Pattern nested = parse_formula("p([], [[a], [true, -2, 2.5, \"s\"]])")->pattern;
  ASSERT_EQ(nested.args.size(), 2u);
  EXPECT_EQ(nested.args[0].value, Value::list({}));
  EXPECT_EQ(nested.args[1].value,
            ndlog::parse_fact("p([[a], [true, -2, 2.5, \"s\"]])").at(0));
  EXPECT_EQ(nested.to_string(), "p([],[[a],[true,-2,2.5,\"s\"]])");
  EXPECT_EQ(parse_formula(nested.to_string())->pattern.to_string(), nested.to_string());
  for (const char* bad : {"p([X])", "p([_])", "p([a,])", "p([a b])", "p([a)", "p([f(a)])"}) {
    EXPECT_THROW(parse_formula(bad), ndlog::ParseError) << bad;
  }
}

TEST(LtlParser, PatternMatchingSemantics) {
  const auto f = parse_formula("link(n0, n1)");
  const Pattern& p = f->pattern;
  // Trailing arguments beyond the pattern are unconstrained.
  EXPECT_TRUE(p.matches(
      Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(7)})));
  EXPECT_FALSE(p.matches(
      Tuple("link", {Value::addr("n0"), Value::addr("n9"), Value::integer(7)})));
  EXPECT_FALSE(p.matches(Tuple("hop", {Value::addr("n0"), Value::addr("n1")})));
  // Identifier constants match both Addr and Str spellings of the same text.
  EXPECT_TRUE(p.matches(Tuple("link", {Value::str("n0"), Value::str("n1")})));

  // A list constant matches an equal list only: same items, same order,
  // same kinds.
  const Pattern route = parse_formula("route(@b, [a,b], 1)")->pattern;
  const auto row = [](std::vector<Value> path) {
    return Tuple("route", {Value::addr("b"), Value::list(std::move(path)), Value::integer(1)});
  };
  EXPECT_TRUE(route.matches(row({Value::addr("a"), Value::addr("b")})));
  EXPECT_FALSE(route.matches(row({Value::addr("b"), Value::addr("a")})));
  EXPECT_FALSE(route.matches(row({Value::addr("a")})));
  EXPECT_FALSE(route.matches(row({Value::addr("a"), Value::addr("b"), Value::addr("c")})));
  EXPECT_FALSE(route.matches(row({Value::str("a"), Value::str("b")})));
  EXPECT_TRUE(parse_formula("route(_, [])")->pattern.matches(row({})));
}

TEST(LtlParser, CanonicalApIdentityMergesWildcardSpellings) {
  ApSet aps;
  to_nnf(parse_formula("p(X, _) || p(_, Y)"), aps);
  EXPECT_EQ(aps.aps.size(), 1u);  // both render as p(_,_)
}

TEST(LtlParser, ParseErrorsCarryPositions) {
  try {
    parse_spec("reach: F bestPath(@n0\n", "bad.ltl");
    FAIL() << "expected ParseError";
  } catch (const ndlog::ParseError& e) {
    EXPECT_GE(e.line(), 1);
    EXPECT_GE(e.column(), 1);
  }
  EXPECT_THROW(parse_spec("p: F .\n"), ndlog::ParseError);
  EXPECT_THROW(parse_spec("p: G q(a)\n"), ndlog::ParseError);  // missing dot
}

TEST(LtlParser, CheckSpecDiagnostics) {
  const auto program = core::path_vector_program();
  const auto catalog = ndlog::Catalog::from_program(program);
  const auto spec = parse_spec(
      "a: F nosuch(n0).\n"                    // LT0002 unknown predicate
      "b: G link(@n0, n1, 1, extra).\n"       // LT0003 arity overflow
      "c: X bestPath(@n0, n1, _, _).\n"       // LT0004 X stutter note
      "d: F G stable(nosuchrel).\n",          // LT0005 unknown stable target
      "diag.ltl");
  ndlog::DiagnosticSink sink;
  check_spec(spec, catalog, sink);
  auto has = [&](const char* code) {
    for (const auto& d : sink.diagnostics())
      if (d.code == code) return true;
    return false;
  };
  EXPECT_TRUE(has("LT0002"));
  EXPECT_TRUE(has("LT0003"));
  EXPECT_TRUE(has("LT0004"));
  EXPECT_TRUE(has("LT0005"));
  EXPECT_EQ(sink.count(ndlog::Severity::Error), 0u);  // warnings never block
  // Codes, positions and messages, as the CLI prints them.
  EXPECT_EQ(ndlog::render_human(sink.diagnostics(), "diag.ltl"),
            "diag.ltl:1:6: warning: LT0002: pattern predicate 'nosuch' is not declared or "
            "derived by the program\n"
            "diag.ltl:2:6: warning: LT0003: pattern link(n0,n1,1,extra) has 4 arguments but "
            "'link' has arity 3\n"
            "diag.ltl:3:4: note: LT0004: X is not stutter-invariant: the model checker steps "
            "per message delivery but the monitor steps per tuple event, so mc and monitor "
            "verdicts may disagree under X\n"
            "diag.ltl:4:8: warning: LT0005: stable() names predicate 'nosuchrel' which the "
            "program never stores\n");
}

// ---------------------------------------------------------------------------
// What every shipped spec reads as: the name and rendering of each property,
// and a clean check against its program.
// ---------------------------------------------------------------------------

struct PinnedSpec {
  std::string file;  ///< under examples/ndlog/
  std::vector<std::pair<std::string, std::string>> properties;  ///< name, to_string()
};

const std::vector<PinnedSpec>& pinned_specs() {
  static const std::vector<PinnedSpec> specs = {
      {"distance_vector.ltl",
       {{"reach", "F bestHop(n0,n2,n1,_)"},
        {"no_backward", "G !hop(n2,n0,_,_)"},
        {"converges", "F G stable(bestHop)"}}},
      {"distance_vector_violated.ltl", {{"never_reaches", "G !hop(n0,n2,_,_)"}}},
      {"link_state.ltl",
       {{"flooded", "F lsdb(n1,n0,n1,400)"},
        {"best_cost", "F lsBestCost(n0,n0,n1,400)"},
        {"converges", "F G stable(lsdb)"}}},
      {"link_state_violated.ltl", {{"never_floods", "G !lsdb(n1,n0,n1,_)"}}},
      {"path_vector.ltl",
       {{"reach", "F bestPath(n0,n2,_,_)"},
        {"no_self_route", "G !path(n0,n0,_,_)"},
        {"converges", "F G stable(bestPath)"}}},
      {"path_vector_violated.ltl", {{"never_reaches", "G !bestPath(n0,n2,_,_)"}}},
      {"policy_path_vector.ltl",
       {{"reach", "F bestRoute(n0,n1,_,_,_)"}, {"converges", "F G stable(bestRoute)"}}},
      {"policy_path_vector_violated.ltl", {{"never_routes", "G !bestRoute(n0,n1,_,_,_)"}}},
      {"reachable.ltl",
       {{"reach", "F reachable(n0,n2)"},
        {"bounded", "G !reachable(n0,n9)"},
        {"converges", "F G stable(reachable)"}}},
      {"reachable_violated.ltl", {{"never_reaches", "G !reachable(n0,n2)"}}},
      {"spanning_tree.ltl",
       {{"elects_min_root", "F root(n1,n0)"}, {"converges", "F G stable(root)"}}},
      {"spanning_tree_violated.ltl", {{"never_elects", "G !root(n1,n0)"}}},
  };
  return specs;
}

std::string slurp_example(const std::string& file) {
  std::ifstream in(std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" / file);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void expect_reads_as(const Spec& spec,
                     const std::vector<std::pair<std::string, std::string>>& expected) {
  ASSERT_EQ(spec.properties.size(), expected.size()) << spec.name;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_EQ(spec.properties[i].name, expected[i].first) << spec.name;
    EXPECT_EQ(spec.properties[i].formula->to_string(), expected[i].second) << spec.name;
  }
}

TEST(LtlParser, ShippedSpecsReadAsPinned) {
  for (const auto& pinned : pinned_specs()) {
    expect_reads_as(parse_spec(slurp_example(pinned.file), pinned.file), pinned.properties);
  }
}

TEST(LtlParser, ShippedSpecsCheckCleanAgainstTheirPrograms) {
  for (const auto& pinned : pinned_specs()) {
    std::string name = pinned.file.substr(0, pinned.file.find('.'));
    if (const auto cut = name.find("_violated"); cut != std::string::npos) name.resize(cut);
    const auto catalog = ndlog::Catalog::from_program(crossval::example_program(name));
    ndlog::DiagnosticSink sink;
    check_spec(parse_spec(slurp_example(pinned.file), pinned.file), catalog, sink);
    EXPECT_EQ(ndlog::render_human(sink.diagnostics(), pinned.file), "") << pinned.file;
  }
}

TEST(LtlParser, BenchmarkSpecShapesReadAsPinned) {
  // The converge and verify workloads' specs, as the benchmark builds them.
  expect_reads_as(parse_spec("delivers: F bestPath(@n0, n15, _, _).\n"
                             "converges: F G stable(bestPath).\n",
                             "converge.ltl"),
                  {{"delivers", "F bestPath(n0,n15,_,_)"},
                   {"converges", "F G stable(bestPath)"}});
  expect_reads_as(parse_spec("reach: F bestPath(@n0, n3, _, _).\n"
                             "wrong: G !bestPath(@n0, n3, _, _).\n",
                             "verify.ltl"),
                  {{"reach", "F bestPath(n0,n3,_,_)"}, {"wrong", "G !bestPath(n0,n3,_,_)"}});
}

TEST(LtlParser, NegativeAndDoubleConstantsMatchTheStoredFacts) {
  // A pattern constant reads as the fact line that stores it, so the
  // property holds once that fact is installed.
  const std::vector<std::tuple<std::string, std::string, std::string>> cases = {
      {"F link(@n0, n1, -1)", "F link(n0,n1,-1)", "link(@n0,n1,-1)"},
      {"F weight(@n0, 2.5)", "F weight(n0,2.5)", "weight(@n0,2.5)"},
  };
  for (const auto& [text, rendered, fact] : cases) {
    const auto spec = parse_spec("p: " + text + ".\n");
    EXPECT_EQ(spec.properties.at(0).formula->to_string(), rendered);
    MonitorSet monitors(spec);
    EXPECT_FALSE(monitors.all_satisfied()) << text;
    monitors.on_event(TupleEvent::Kind::Install, ndlog::parse_fact(fact));
    EXPECT_TRUE(monitors.all_satisfied()) << text;
  }
}

TEST(LtlParser, OutOfRangeIntegerIsALocatedParseError) {
  // NDlog's integers are int64; a longer literal is a parse error at the
  // literal, in a spec as in a program.
  try {
    parse_spec("p1: F path(@n0, 99999999999999999999).\n", "big.ltl");
    FAIL() << "expected ParseError";
  } catch (const ndlog::ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 17);
    EXPECT_EQ(std::string(e.what()), "bad integer literal '99999999999999999999'");
  }
}

TEST(LtlParser, StringEscapesReadAsTheProgramStoresThem) {
  // `\n` in a quoted constant is a newline, as in an NDlog fact or program.
  const auto f = parse_formula("path(@n0, \"a\\nb\")");
  ASSERT_EQ(f->op, Op::Atom);
  ASSERT_EQ(f->pattern.args.size(), 2u);
  EXPECT_TRUE(f->pattern.args[1].value.is_str());
  EXPECT_EQ(f->pattern.args[1].value.as_text(), "a\nb");
  EXPECT_TRUE(f->pattern.matches(ndlog::parse_fact("path(@n0, \"a\\nb\")")));
}

// ---------------------------------------------------------------------------
// Every reader (program, spec, fact line, query goal) rejects malformed text
// with a located ParseError and nothing else.
// ---------------------------------------------------------------------------

/// `text` with one to three byte-level edits: replace, delete or insert a
/// byte, or insert a run of 15-40 digits (most past int64's 19).
std::string mutate(std::string text, std::mt19937_64& rng) {
  const int edits = 1 + static_cast<int>(rng() % 3);
  for (int m = 0; m < edits; ++m) {
    if (text.empty()) text = "x";
    const std::size_t pos = rng() % text.size();
    switch (rng() % 4) {
      case 0: text[pos] = static_cast<char>(rng() & 0xFF); break;
      case 1: text.erase(pos, 1); break;
      case 2: text.insert(pos, 1, static_cast<char>(rng() & 0xFF)); break;
      default: {
        std::string digits(15 + rng() % 26, '0');
        for (char& d : digits) d = static_cast<char>('0' + rng() % 10);
        text.insert(pos, digits);
      }
    }
  }
  return text;
}

TEST(ReaderMutation, EveryReaderThrowsOnlyLocatedParseErrors) {
  std::vector<std::string> inputs = {"link(@n0,n1,-1)", "path(@n0,n2,[n0,n1,n2],2.5).",
                                     "name(@n0,\"a\\nb\")", "bestPath(@n0, D, P, C)"};
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(std::filesystem::path(FVN_SOURCE_DIR) / "examples" /
                                           "ndlog")) {
    const auto ext = entry.path().extension();
    if (ext == ".ndlog" || ext == ".ltl") files.push_back(entry.path().filename());
  }
  std::sort(files.begin(), files.end());  // one mutant sequence per seed
  for (const auto& file : files) inputs.push_back(slurp_example(file));
  ASSERT_EQ(inputs.size(), 4u + 6u + 12u);
  const std::vector<std::pair<const char*, void (*)(const std::string&)>> readers = {
      {"parse_program", [](const std::string& s) { (void)ndlog::parse_program(s); }},
      {"parse_spec", [](const std::string& s) { (void)parse_spec(s); }},
      {"parse_fact", [](const std::string& s) { (void)ndlog::parse_fact(s); }},
      {"parse_atom", [](const std::string& s) { (void)ndlog::parse_atom(s); }},
  };
  std::mt19937_64 rng(7);
  std::size_t parsed = 0;
  std::size_t rejected = 0;
  for (const std::string& input : inputs) {
    for (int round = 0; round < 100; ++round) {
      const std::string mutant = mutate(input, rng);
      for (const auto& [name, read] : readers) {
        try {
          read(mutant);
          ++parsed;
        } catch (const ndlog::ParseError& e) {
          ++rejected;
          ASSERT_GE(e.line(), 1) << name << ": " << e.what() << "\n" << mutant;
          ASSERT_GE(e.column(), 1) << name << ": " << e.what() << "\n" << mutant;
        } catch (const std::exception& e) {
          FAIL() << name << " threw " << e.what() << " on:\n" << mutant;
        }
      }
    }
  }
  EXPECT_GT(parsed, 0u);
  EXPECT_GT(rejected, 0u);
}

// ---------------------------------------------------------------------------
// NNF + Büchi
// ---------------------------------------------------------------------------

TEST(LtlNnf, NegationPushesThroughTemporalOperators) {
  ApSet aps;
  // ¬(F p) = G ¬p = false R ¬p.
  const auto nnf = to_nnf(parse_formula("F p(a)"), aps, /*negated=*/true);
  ASSERT_EQ(nnf->kind, Nnf::Kind::Release);
  EXPECT_EQ(nnf->lhs->kind, Nnf::Kind::False);
  ASSERT_EQ(nnf->rhs->kind, Nnf::Kind::Lit);
  EXPECT_FALSE(nnf->rhs->positive);
}

TEST(LtlNnf, ImplicationRewrites) {
  ApSet aps;
  // p -> q  ==  ¬p ∨ q.
  const auto nnf = to_nnf(parse_formula("p(a) -> q(b)"), aps);
  ASSERT_EQ(nnf->kind, Nnf::Kind::Or);
  EXPECT_FALSE(nnf->lhs->positive);
  EXPECT_TRUE(nnf->rhs->positive);
}

TEST(LtlBuchi, EventuallyAutomatonShape) {
  ApSet aps;
  const auto nnf = to_nnf(parse_formula("F p(a)"), aps);
  const Buchi b = build_buchi(nnf, aps.aps.size());
  ASSERT_FALSE(b.states.empty());
  ASSERT_FALSE(b.initial.empty());
  bool any_accepting = false;
  for (const auto& s : b.states) any_accepting |= s.accepting;
  EXPECT_TRUE(any_accepting);
  // Some state must require p (the obligation is eventually discharged).
  bool requires_p = false;
  for (const auto& s : b.states) requires_p |= (s.must_true & 1) != 0;
  EXPECT_TRUE(requires_p);
  EXPECT_FALSE(b.to_dot(aps).empty());
}

TEST(LtlBuchi, AdmitsRespectsLiteralMasks) {
  ApSet aps;
  const auto nnf = to_nnf(parse_formula("G p(a)"), aps);
  const Buchi b = build_buchi(nnf, aps.aps.size());
  // G p: every (non-trivial) state requires p; valuation 0 must be rejected
  // somewhere on every path. The initial states all require p.
  for (std::size_t i : b.initial) {
    EXPECT_TRUE(b.states[i].admits(1));
    EXPECT_FALSE(b.states[i].admits(0));
  }
}

// ---------------------------------------------------------------------------
// Model checker over the NDlog transition system
// ---------------------------------------------------------------------------

std::vector<Tuple> line2_links() {
  return {Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)}),
          Tuple("link", {Value::addr("n1"), Value::addr("n0"), Value::integer(1)})};
}

TEST(LtlChecker, LivenessHoldsOnReachable) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec(
      "reach: F reachable(@n0, n1).\n"
      "converges: F G stable(reachable).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  ASSERT_EQ(result.properties.size(), 2u);
  EXPECT_TRUE(result.all_hold());
  EXPECT_TRUE(result.exhausted());
  for (const auto& p : result.properties) {
    EXPECT_GT(p.product_states, 0u);
    EXPECT_TRUE(p.stem.empty());
  }
}

TEST(LtlChecker, ViolationYieldsLassoWithSnapshots) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("bad: G !reachable(@n0, n1).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  ASSERT_EQ(result.properties.size(), 1u);
  const auto& p = result.properties[0];
  EXPECT_FALSE(p.holds);
  ASSERT_FALSE(p.stem.empty());
  ASSERT_FALSE(p.cycle.empty());
  // The lasso closes: the cycle ends back at the loop head.
  EXPECT_EQ(p.cycle.back().state, p.stem.back().state);
  // Snapshots are full states: the final stem state stores the offending
  // tuple at n0.
  const auto& last = p.stem.back().state;
  bool found = false;
  for (const auto& [node, tuples] : last.stored) {
    for (const auto& t : tuples) {
      if (t.predicate() == "reachable") found = true;
    }
  }
  EXPECT_TRUE(found);
  // Rendering includes per-node tables and marks the cycle.
  const std::string text = render_counterexample(p);
  EXPECT_NE(text.find("node n0"), std::string::npos);
  EXPECT_NE(text.find("cycle"), std::string::npos);
  EXPECT_NE(text.find("reachable(n0,n1)"), std::string::npos);
}

TEST(LtlChecker, CounterexampleExportsAsChromeTrace) {
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("bad: G !reachable(@n0, n1).\n");
  const auto result = check_ltl(ts, ts.initial(line2_links()), spec);
  obs::Trace trace;
  counterexample_to_trace(result.properties[0], trace);
  bool saw_ltl = false, saw_state = false;
  for (const auto& e : trace.events()) {
    if (e.cat == "ltl") saw_ltl = true;
    if (e.cat == "ltl-state") saw_state = true;
  }
  EXPECT_TRUE(saw_ltl);
  EXPECT_TRUE(saw_state);
}

TEST(LtlChecker, BudgetExhaustionIsReported) {
  mc::NdlogTransitionSystem ts(core::path_vector_program());
  const auto spec = parse_spec("conv: F G stable(bestPath).\n");
  CheckOptions options;
  options.max_product_states = 3;
  const auto result =
      check_ltl(ts, ts.initial(core::link_facts(core::line_topology(3))), spec);
  const auto bounded = check_ltl(
      ts, ts.initial(core::link_facts(core::line_topology(3))), spec, options);
  EXPECT_TRUE(result.exhausted());
  EXPECT_FALSE(bounded.exhausted());
  EXPECT_TRUE(bounded.all_hold());  // no violation found within the budget
}

TEST(LtlChecker, StableIsTrueInitiallyAndAfterQuiescence) {
  // On an empty-step system (no facts) stable() holds immediately: the
  // stutter self-loop keeps every relation unchanged forever.
  mc::NdlogTransitionSystem ts(core::reachable_program());
  const auto spec = parse_spec("s: G stable(reachable).\n");
  const auto result = check_ltl(ts, ts.initial({}), spec);
  EXPECT_TRUE(result.all_hold());
}

TEST(LtlChecker, GoldenCounterexampleIsStable) {
  // Rendered lassos are pinned byte for byte: any change to the search order,
  // state encoding, or renderer shows up as a golden diff. One directed link
  // => a deterministic 3-step stem. The path-vector line makes the search
  // revisit node tables and drop messages the destination already stores.
  struct Case {
    ndlog::Program program;
    const char* spec;
    std::vector<Tuple> facts;
    const char* golden;
  };
  const std::vector<Case> cases = {
      {core::reachable_program(), "never_reaches: G !reachable(@n0, n1).\n",
       {Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)})},
       "reachable_never.txt"},
      {core::path_vector_program(), "never_best: G !bestPath(@n0, n2, _, _).\n",
       core::link_facts(core::line_topology(3)), "path_vector_never.txt"},
  };
  for (const auto& c : cases) {
    mc::NdlogTransitionSystem ts(c.program);
    const auto result = check_ltl(ts, ts.initial(c.facts), parse_spec(c.spec));
    ASSERT_FALSE(result.all_hold()) << c.golden;
    const std::string text = render_counterexample(result.properties[0]);

    const auto golden_path =
        std::filesystem::path(FVN_SOURCE_DIR) / "tests" / "golden" / "ltl" / c.golden;
    std::ifstream in(golden_path);
    ASSERT_TRUE(in.good()) << golden_path;
    std::ostringstream os;
    os << in.rdbuf();
    EXPECT_EQ(text, os.str()) << c.golden;
  }
}

TEST(LtlChecker, PathVectorSearchSizeIsPinned) {
  // The product explored for two holding properties on a 3-node path-vector
  // line: a change that alters which states or edges the search visits moves
  // these counts.
  mc::NdlogTransitionSystem ts(core::path_vector_program());
  const auto spec = parse_spec(
      "reach: F bestPath(@n0, n2, _, _).\n"
      "conv: F G stable(bestPath).\n");
  const auto result =
      check_ltl(ts, ts.initial(core::link_facts(core::line_topology(3))), spec);
  ASSERT_EQ(result.properties.size(), 2u);
  EXPECT_TRUE(result.all_hold());
  EXPECT_TRUE(result.exhausted());
  EXPECT_EQ(result.properties[0].product_states, 99u);
  EXPECT_EQ(result.properties[0].transitions, 534u);
  EXPECT_EQ(result.properties[1].product_states, 226u);
  EXPECT_EQ(result.properties[1].transitions, 1832u);
  // Both explore all 121 system states; the local-step cache runs one
  // fixpoint per distinct (node, table, delivered tuple) the search reaches.
  for (const auto& p : result.properties) EXPECT_EQ(p.system_states, 121u) << p.name;
  EXPECT_EQ(result.properties[0].local_steps, 45u);
  EXPECT_EQ(result.properties[1].local_steps, 46u);
}

/// What one property's search did: a change to which states or edges the
/// product search visits, or to which local fixpoints it runs, moves one.
struct SearchSize {
  std::size_t product_states;
  std::size_t transitions;
  std::size_t system_states;
  std::size_t local_steps;
  std::size_t lasso_steps;  ///< stem plus cycle; 0 when the property holds

  bool operator==(const SearchSize&) const = default;
};

SearchSize search_size(const PropertyResult& p) {
  return {p.product_states, p.transitions, p.system_states, p.local_steps,
          p.stem.size() + p.cycle.size()};
}

void PrintTo(const SearchSize& s, std::ostream* os) {
  *os << s.product_states << "/" << s.transitions << "/" << s.system_states << "/"
      << s.local_steps << " lasso " << s.lasso_steps;
}

TEST(LtlChecker, VerifyWorkloadSearchSizeIsPinned) {
  // The shape the verify benchmark checks: path-vector on a 4-node line, one
  // property that holds (the whole product) and one violated (first lasso).
  mc::NdlogTransitionSystem ts(core::path_vector_program());
  const auto spec = parse_spec(
      "reach: F bestPath(@n0, n3, _, _).\n"
      "wrong: G !bestPath(@n0, n3, _, _).\n");
  const auto result =
      check_ltl(ts, ts.initial(core::link_facts(core::line_topology(4))), spec);
  ASSERT_EQ(result.properties.size(), 2u);
  EXPECT_TRUE(result.properties[0].holds);
  EXPECT_FALSE(result.properties[1].holds);
  EXPECT_TRUE(result.exhausted());
  EXPECT_EQ(search_size(result.properties[0]), (SearchSize{1845, 15276, 2025, 130, 0}));
  EXPECT_EQ(search_size(result.properties[1]), (SearchSize{19, 73, 71, 30, 20}));
}

TEST(LtlChecker, EqualCostTriangleSearchSizeIsPinned) {
  // n0-n1 and n1-n2 cost 1, n0-n2 cost 2, every link both ways: n0 reaches
  // n2 at cost 2 two ways, so which path bestPath keeps depends on the
  // delivery order. The runs end in 4 distinct quiescent states.
  mc::NdlogTransitionSystem ts(core::path_vector_program());
  const auto facts = core::link_facts(
      {{"n0", "n1", 1}, {"n1", "n0", 1}, {"n1", "n2", 1}, {"n2", "n1", 1},
       {"n0", "n2", 2}, {"n2", "n0", 2}});
  const auto initial = ts.initial(facts);
  const auto quiescence = ts.check_quiescent_states(
      initial, [](const mc::NetState&) { return true; });
  EXPECT_TRUE(quiescence.exhausted);
  EXPECT_EQ(quiescence.quiescent_states, 4u);
  EXPECT_FALSE(quiescence.confluent);

  const auto spec = parse_spec(
      "reach: F bestPath(@n0, n2, _, _).\n"
      "conv: F G stable(bestPath).\n"
      "never: G !bestPath(@n0, n2, _, _).\n");
  const auto result = check_ltl(ts, initial, spec);
  ASSERT_EQ(result.properties.size(), 3u);
  EXPECT_TRUE(result.properties[0].holds);
  EXPECT_TRUE(result.properties[1].holds);
  EXPECT_FALSE(result.properties[2].holds);
  EXPECT_TRUE(result.exhausted());
  EXPECT_EQ(search_size(result.properties[0]), (SearchSize{515, 3420, 1169, 113, 0}));
  EXPECT_EQ(search_size(result.properties[1]), (SearchSize{6923, 78160, 3687, 276, 0}));
  EXPECT_EQ(search_size(result.properties[2]), (SearchSize{19, 84, 81, 36, 20}));
}

// ---------------------------------------------------------------------------
// Runtime monitor
// ---------------------------------------------------------------------------

TupleEvent ev(TupleEvent::Kind kind, const char* node, Tuple tuple,
              std::uint64_t ts_us = 0) {
  TupleEvent e;
  e.kind = kind;
  e.node = node;
  e.tuple = std::move(tuple);
  e.ts_us = ts_us;
  return e;
}

Tuple p_a() { return Tuple("p", {Value::addr("a")}); }

TEST(LtlMonitor, SafetyViolationFiresMidTrace) {
  const auto spec = parse_spec("never: G !p(a).\n");
  MonitorSet monitors(spec);
  monitors.on_event(ev(TupleEvent::Kind::Install, "n0",
                       Tuple("q", {Value::addr("x")})));
  EXPECT_TRUE(monitors.all_satisfied());
  monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
  const auto verdicts = monitors.finish();
  ASSERT_EQ(verdicts.size(), 1u);
  EXPECT_FALSE(verdicts[0].satisfied);
  EXPECT_TRUE(verdicts[0].fired);
  EXPECT_EQ(verdicts[0].violation_event, 2u);  // 1-based ordinal
  EXPECT_NE(render_verdicts(verdicts).find("VIOLATED"), std::string::npos);
  EXPECT_NE(render_verdicts(verdicts).find("fired at event 2"), std::string::npos);
}

TEST(LtlMonitor, LivenessSatisfiedOnceWitnessed) {
  const auto spec = parse_spec("reach: F p(a).\n");
  MonitorSet monitors(spec);
  // Unsatisfied at end of an empty trace: the stutter extension never
  // produces p(a).
  EXPECT_FALSE(monitors.all_satisfied());
  monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
  // Even after a retraction, F p was witnessed — still satisfied.
  monitors.on_event(ev(TupleEvent::Kind::Retract, "n0", p_a()));
  const auto verdicts = monitors.finish();
  EXPECT_TRUE(verdicts[0].satisfied);
  EXPECT_FALSE(verdicts[0].fired);
}

TEST(LtlMonitor, PersistenceTracksFinalState) {
  // F G p(a): satisfied iff p(a) is stored at end of trace (stutter
  // extension holds it forever).
  const auto spec = parse_spec("hold: F G p(a).\n");
  {
    MonitorSet monitors(spec);
    monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
    EXPECT_TRUE(monitors.all_satisfied());
  }
  {
    MonitorSet monitors(spec);
    monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
    monitors.on_event(ev(TupleEvent::Kind::Retract, "n0", p_a()));
    EXPECT_FALSE(monitors.all_satisfied());
  }
}

TEST(LtlMonitor, ExpiryCountsAsRemoval) {
  const auto spec = parse_spec("hold: F G p(a).\n");
  MonitorSet monitors(spec);
  monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
  monitors.on_event(ev(TupleEvent::Kind::Expire, "n0", p_a()));
  EXPECT_FALSE(monitors.all_satisfied());
}

TEST(LtlMonitor, StablePredicateOverEvents) {
  // F G stable(p): satisfied at end of any finite trace (stutter extension
  // stops changing p), but an event stream where p keeps changing only
  // becomes stable at the end.
  const auto spec = parse_spec("conv: F G stable(p).\n");
  MonitorSet monitors(spec);
  monitors.on_event(ev(TupleEvent::Kind::Install, "n0", p_a()));
  monitors.on_event(ev(TupleEvent::Kind::Retract, "n0", p_a()));
  EXPECT_TRUE(monitors.all_satisfied());
}

}  // namespace
}  // namespace fvn
