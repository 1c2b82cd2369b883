// Cross-validation of the semantic analyzer against the runtime — the
// headline guarantee of DESIGN.md §11. Every static verdict is checked
// against actual executions:
//
//   * a divergence verdict (ND0015) must reproduce as the evaluator's
//     DivergenceError on a cyclic topology;
//   * programs the analyzer calls convergent must reach a fixpoint under the
//     centralized evaluator and quiesce under both simulator engines;
//   * every order-sensitivity flag (ND0016/ND0017) must be witnessed by two
//     seeded simulator schedules producing different fixpoints;
//   * programs with no order flags must be seed-invariant under the same
//     delay jitter that exposes the racy ones.
//
// Witness topologies are chosen so the racing derivation chains traverse the
// same number of message hops — jitter multiplies each hop's delay by
// [1, 1+j], so equal-hop races flip arrival order with usable probability
// while unequal-hop ones almost never do.
//
// Also here (it needs fvn_runtime): agreement between the static
// localizability check (ND0012/ND0013's engine) and runtime::localize.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ndlog/analysis.hpp"
#include "ndlog/diagnostics.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/lint.hpp"
#include "ndlog/parser.hpp"
#include "ndlog/semantic.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"

namespace fvn::ndlog {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Program load_example(const std::string& stem) {
  return parse_program(
      slurp(std::string(FVN_SOURCE_DIR) + "/examples/ndlog/" + stem +
            ".ndlog"),
      stem);
}

std::vector<Tuple> facts(const std::vector<std::string>& lines) {
  std::vector<Tuple> out;
  out.reserve(lines.size());
  for (const auto& l : lines) out.push_back(parse_fact(l));
  return out;
}

SemanticReport analyze(const Program& program,
                       std::vector<Diagnostic>* diags_out = nullptr) {
  DiagnosticSink sink;
  auto report = analyze_semantics(program, sink);
  if (diags_out != nullptr) *diags_out = sink.diagnostics();
  return report;
}

bool has_code(const std::vector<Diagnostic>& diags, std::string_view code) {
  for (const auto& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// Run the simulator to quiescence and return the merged database dump —
/// the "fixpoint" two seeds are compared on.
std::string sim_fixpoint(const Program& program,
                         const std::vector<Tuple>& base, std::uint64_t seed) {
  runtime::SimOptions options;
  options.seed = seed;
  options.delay_jitter = 0.9;
  runtime::Simulator sim(program, options);
  sim.inject_all(base);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced) << program.name << " seed " << seed;
  std::ostringstream os;
  for (const auto& row : sim.merged_database().dump()) os << row << "\n";
  return os.str();
}

// A bidirectional triangle: enough topology to exercise every example's
// recursion while staying cheap for the slow-converging ones (link_state
// needs ~1000 evaluator rounds here).
const std::vector<std::string> kTriangle = {
    "link(@n0,n1,1)", "link(@n1,n0,1)", "link(@n1,n2,1)",
    "link(@n2,n1,1)", "link(@n2,n0,2)", "link(@n0,n2,2)"};

// The same triangle with coarse costs, for link_state under the simulator:
// its lspath recursion is bounded by C < 1000, so unit costs make it
// enumerate ~1000 cost levels (millions of messages) while coarse costs hit
// the bound after three hops.
const std::vector<std::string> kCoarseTriangle = {
    "link(@n0,n1,300)", "link(@n1,n0,300)", "link(@n1,n2,300)",
    "link(@n2,n1,300)", "link(@n2,n0,600)", "link(@n0,n2,600)"};

// ---------------------------------------------------------------------------
// Divergence verdicts vs the evaluator
// ---------------------------------------------------------------------------

TEST(CrossVal, DistanceVectorDivergenceReproducesUnderEvaluator) {
  const auto program = load_example("distance_vector");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(has_code(diags, "ND0015")) << render_human(diags);
  ASSERT_TRUE(report.divergent_predicates.count("hop"));
  // The predicted divergence is real: on a directed cycle the hop costs grow
  // without bound and the evaluator burns its whole round budget.
  EvalOptions options;
  options.max_iterations = 500;
  Evaluator eval;
  EXPECT_THROW(eval.run(program,
                        facts({"link(@n0,n1,1)", "link(@n1,n2,1)",
                               "link(@n2,n0,1)"}),
                        options),
               DivergenceError);
}

TEST(CrossVal, CleanVerdictsConvergeUnderEvaluator) {
  struct Case {
    const char* stem;
    std::vector<std::string> extra;  // base facts beyond the links
  };
  const std::vector<Case> cases = {
      {"path_vector", {}},
      {"link_state", {}},
      {"reachable", {}},
      {"spanning_tree", {"node(@n0)", "node(@n1)", "node(@n2)"}},
      {"policy_path_vector",
       {"node(@n0)", "node(@n1)", "node(@n2)", "importPref(@n0,n1,100)",
        "importPref(@n0,n2,100)", "importPref(@n1,n0,100)",
        "importPref(@n1,n2,100)", "importPref(@n2,n0,100)",
        "importPref(@n2,n1,100)"}},
  };
  for (const auto& c : cases) {
    const auto program = load_example(c.stem);
    std::vector<Diagnostic> diags;
    analyze(program, &diags);
    EXPECT_FALSE(has_code(diags, "ND0015"))
        << c.stem << ":\n"
        << render_human(diags);
    auto base = facts(c.extra);
    for (const auto& f : facts(kTriangle)) base.push_back(f);
    EvalOptions options;
    options.max_iterations = 5000;
    Evaluator eval;
    EXPECT_NO_THROW(eval.run(program, base, options)) << c.stem;
  }
}

TEST(CrossVal, CleanProgramsQuiesceUnderBothEngines) {
  // Both executors reach a fixpoint on the same base facts: the centralized
  // evaluator within its round budget, the simulator by quiescing.
  for (const char* stem : {"path_vector", "link_state", "reachable"}) {
    const auto program = load_example(stem);
    const auto base =
        facts(stem == std::string("link_state") ? kCoarseTriangle : kTriangle);
    EvalOptions options;
    options.max_iterations = 5000;
    Evaluator eval;
    EXPECT_NO_THROW(eval.run(program, base, options)) << stem;
    // sim_fixpoint asserts stats.quiesced internally.
    EXPECT_FALSE(sim_fixpoint(program, base, 1).empty()) << stem;
  }
}

// ---------------------------------------------------------------------------
// Order-sensitivity flags vs seeded schedules
// ---------------------------------------------------------------------------

TEST(CrossVal, DistanceVectorOrderFlagWitnessed) {
  const auto program = load_example("distance_vector");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(report.order_sensitive_predicates.count("hop"));
  ASSERT_TRUE(report.order_sensitive_predicates.count("bestHop"));
  // Two equal-hop-count routes b→x→d (cost 2) and b→y→d (cost 4): the hop
  // tuple keyed (a,d,b) is overwritten with 3 or 5 depending on which of
  // b's advertisements reaches a last.
  const auto base = facts({"link(@a,b,1)", "link(@b,x,1)", "link(@x,d,1)",
                           "link(@b,y,1)", "link(@y,d,3)"});
  EXPECT_NE(sim_fixpoint(program, base, 1), sim_fixpoint(program, base, 3));
}

TEST(CrossVal, PathVectorOrderFlagWitnessed) {
  const auto program = load_example("path_vector");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(report.order_sensitive_predicates.count("bestPath"));
  // Equal-cost diamond: bestPath(a,d) tie-breaks on arrival order.
  const auto base = facts(
      {"link(@a,b,1)", "link(@a,c,1)", "link(@b,d,1)", "link(@c,d,1)"});
  EXPECT_NE(sim_fixpoint(program, base, 1), sim_fixpoint(program, base, 3));
}

TEST(CrossVal, PolicyPathVectorOrderFlagWitnessed) {
  const auto program = load_example("policy_path_vector");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(report.order_sensitive_predicates.count("bestRoute"));
  // Bidirectional diamond with uniform local-pref: equal-preference,
  // equal-cost routes race into bestRoute's (src,dst) key.
  const auto base = facts(
      {"link(@a,b,1)", "link(@b,a,1)", "link(@a,c,1)", "link(@c,a,1)",
       "link(@b,d,1)", "link(@d,b,1)", "link(@c,d,1)", "link(@d,c,1)",
       "node(@a)", "node(@b)", "node(@c)", "node(@d)",
       "importPref(@a,b,100)", "importPref(@a,c,100)", "importPref(@b,a,100)",
       "importPref(@b,d,100)", "importPref(@c,a,100)", "importPref(@c,d,100)",
       "importPref(@d,b,100)", "importPref(@d,c,100)"});
  EXPECT_NE(sim_fixpoint(program, base, 1), sim_fixpoint(program, base, 2));
}

TEST(CrossVal, CallKeyOrderFlagWitnessed) {
  // route is keyed on (1,2). r1's key f_abs(X) can equal r2's constant 3,
  // so the two rules race into one row: only a list builder's value is
  // disjoint from a number.
  const auto program = parse_program(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(route, infinity, infinity, keys(1,2)).\n"
      "r1 route(@D,K,C) :- link(@S,D,X), K=f_abs(X), C=1.\n"
      "r2 route(@D,K,C) :- link(@S,D,X), K=3, C=0.\n",
      "callkey");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(has_code(diags, "ND0017")) << render_human(diags);
  ASSERT_TRUE(report.order_sensitive_predicates.count("route"));
  const auto base = facts({"link(@a,b,3)"});
  EXPECT_NE(sim_fixpoint(program, base, 1), sim_fixpoint(program, base, 2));
}

TEST(CrossVal, NegationOverAsyncFlagWitnessed) {
  // Two sources race a block/probe pair into node t; b3's negation makes the
  // arrival order visible: accept(t,x) survives iff probe(t,x) was derived
  // while block(t,x) was still in flight (no retraction ever removes it).
  const auto program = parse_program(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(seedBlock, infinity, infinity, keys(1,2)).\n"
      "materialize(seedProbe, infinity, infinity, keys(1,2)).\n"
      "materialize(block, infinity, infinity, keys(1,2)).\n"
      "materialize(probe, infinity, infinity, keys(1,2)).\n"
      "materialize(accept, infinity, infinity, keys(1,2)).\n"
      "b1 block(@T,X) :- link(@S,T,_C), seedBlock(@S,X).\n"
      "b2 probe(@T,X) :- link(@S,T,_C), seedProbe(@S,X).\n"
      "b3 accept(@T,X) :- probe(@T,X), !block(@T,X).\n",
      "negrace");
  std::vector<Diagnostic> diags;
  const auto report = analyze(program, &diags);
  ASSERT_TRUE(has_code(diags, "ND0016")) << render_human(diags);
  ASSERT_TRUE(report.order_sensitive_predicates.count("accept"));
  const auto base = facts({"link(@s1,t,1)", "link(@s2,t,1)",
                           "seedBlock(@s1,x)", "seedProbe(@s2,x)"});
  EXPECT_NE(sim_fixpoint(program, base, 1), sim_fixpoint(program, base, 2));
}

TEST(CrossVal, UnflaggedProgramsAreSeedInvariant) {
  struct Case {
    const char* stem;
    std::vector<std::string> extra;
  };
  const std::vector<Case> cases = {
      {"reachable", {}},
      {"link_state", {}},
      {"spanning_tree", {"node(@n0)", "node(@n1)", "node(@n2)"}},
  };
  for (const auto& c : cases) {
    const auto program = load_example(c.stem);
    std::vector<Diagnostic> diags;
    const auto report = analyze(program, &diags);
    EXPECT_TRUE(report.order_sensitive_predicates.empty())
        << c.stem << ":\n"
        << render_human(diags);
    auto base = facts(c.extra);
    const auto& links =
        c.stem == std::string("link_state") ? kCoarseTriangle : kTriangle;
    for (const auto& f : facts(links)) base.push_back(f);
    const auto reference = sim_fixpoint(program, base, 1);
    for (std::uint64_t seed : {2, 3, 5, 8}) {
      EXPECT_EQ(sim_fixpoint(program, base, seed), reference)
          << c.stem << " diverges at seed " << seed;
    }
  }
}

// ---------------------------------------------------------------------------
// check_localizable vs runtime::localize agreement (ND0012/ND0013 engine)
// ---------------------------------------------------------------------------

/// Does runtime::localize accept the whole program?
bool localize_accepts(const Program& program) {
  try {
    (void)runtime::localize(program);
    return true;
  } catch (const AnalysisError&) {
    return false;
  }
}

TEST(LocalizeAgreement, SingleFeasibleOrientation) {
  // Only link carries the other location's variable: the rewrite must ship
  // link tuples to Z and join there — exactly one feasible orientation.
  const auto program = parse_program(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(q, infinity, infinity, keys(1,2)).\n"
      "materialize(p, infinity, infinity, keys(1,2)).\n"
      "r1 p(@S,D) :- link(@S,Z,_C), q(@Z,D).\n");
  const auto check = check_localizable(program.rules.at(0));
  EXPECT_EQ(check.status, LocalizationCheck::Status::Rewritable);
  EXPECT_EQ(check.join_site, "Z");
  EXPECT_EQ(check.ship_site, "S");
  EXPECT_TRUE(localize_accepts(program));
  // No ND0013: the single orientation is enough.
  DiagnosticSink sink;
  lint_program(program, sink);
  for (const auto& d : sink.diagnostics()) EXPECT_NE(d.code, "ND0013");
}

TEST(LocalizeAgreement, ThreeLocationBodyRejectedByBoth) {
  const auto program = parse_program(
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(q, infinity, infinity, keys(1,2)).\n"
      "materialize(r, infinity, infinity, keys(1,2)).\n"
      "materialize(p, infinity, infinity, keys(1,2)).\n"
      "r1 p(@S,D) :- link(@S,Z,_C), q(@Z,W), r(@W,D).\n");
  const auto check = check_localizable(program.rules.at(0));
  EXPECT_EQ(check.status, LocalizationCheck::Status::TooManyLocations);
  EXPECT_FALSE(check.localizable());
  EXPECT_FALSE(localize_accepts(program));
}

TEST(LocalizeAgreement, NotLinkRestrictedRejectedByBoth) {
  // Neither atom carries the other site's location variable positively.
  const auto program = parse_program(
      "materialize(q, infinity, infinity, keys(1,2)).\n"
      "materialize(r, infinity, infinity, keys(1,2)).\n"
      "materialize(p, infinity, infinity, keys(1,2)).\n"
      "r1 p(@S,X) :- q(@S,X), r(@Z,X).\n");
  const auto check = check_localizable(program.rules.at(0));
  EXPECT_EQ(check.status, LocalizationCheck::Status::NotLinkRestricted);
  EXPECT_FALSE(localize_accepts(program));
  DiagnosticSink sink;
  lint_program(program, sink);
  bool saw_nd0013 = false;
  for (const auto& d : sink.diagnostics()) {
    if (d.code == "ND0013") {
      saw_nd0013 = true;
      EXPECT_GT(d.span.begin.line, 0);  // located, never line 0
    }
  }
  EXPECT_TRUE(saw_nd0013) << render_human(sink.diagnostics());
}

TEST(LocalizeAgreement, VerdictsMatchOnRuleZoo) {
  // check_localizable and runtime::localize must never disagree: the lint
  // exists precisely to predict the rewrite's behavior statically.
  const std::vector<std::string> bodies = {
      "p(@S,D) :- q(@S,D).",                              // local
      "p(@S,D) :- link(@S,Z,_C), q(@Z,D).",               // one orientation
      "p(@S,D) :- link(@S,Z,_C), q(@Z,D), r(@S,Z).",      // both carry both
      "p(@S,X) :- q(@S,X), r(@Z,X).",                     // not restricted
      "p(@S,D) :- link(@S,Z,_C), q(@Z,W), r(@W,D).",      // three sites
  };
  const std::string prelude =
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(q, infinity, infinity, keys(1,2)).\n"
      "materialize(r, infinity, infinity, keys(1,2)).\n"
      "materialize(p, infinity, infinity, keys(1,2)).\n";
  for (const auto& body : bodies) {
    const auto program = parse_program(prelude + "r1 " + body + "\n");
    const auto check = check_localizable(program.rules.at(0));
    EXPECT_EQ(check.localizable(), localize_accepts(program)) << body;
  }
}

}  // namespace
}  // namespace fvn::ndlog
