// Tests for the extension features: direct-product algebras (totality
// failure), simulator event traces, the `case` tactic, and cross-protocol
// parameterized sweeps (distributed == centralized; parse round-trips).
#include <gtest/gtest.h>

#include "algebra/routing_algebra.hpp"
#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "ndlog/eval.hpp"
#include "prover/prover.hpp"
#include "runtime/simulator.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace fvn {
namespace {

// ---------------------------------------------------------------------------
// Direct product
// ---------------------------------------------------------------------------

TEST(DirectProduct, TotalityFailsOnConflictingComponents) {
  // (1,5) vs (5,1): neither componentwise-dominates — incomparable.
  auto prod = algebra::direct_product(algebra::add_algebra(6, 2),
                                      algebra::add_algebra(6, 2));
  auto report = algebra::discharge(prod);
  EXPECT_FALSE(report.totality.holds) << report.to_string();
  EXPECT_NE(report.totality.counterexample.find("incomparable"), std::string::npos);
}

TEST(DirectProduct, StillMonotoneAndIsotone) {
  auto prod = algebra::direct_product(algebra::add_algebra(6, 2),
                                      algebra::add_algebra(6, 2));
  auto report = algebra::discharge(prod);
  EXPECT_TRUE(report.monotonicity.holds) << report.to_string();
  EXPECT_TRUE(report.isotonicity.holds) << report.to_string();
}

// ---------------------------------------------------------------------------
// Simulator traces
// ---------------------------------------------------------------------------

TEST(SimTrace, RecordsSendsInstallsAndExpiries) {
  auto program = ndlog::parse_program(R"(
    materialize(link, 1, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    a1 reach(@D,S) :- link(@S,D,C).
  )");
  runtime::SimOptions options;
  options.record_trace = true;
  runtime::Simulator sim(program, options);
  const auto links = core::link_facts(core::line_topology(2));
  sim.inject_all(links);
  sim.retract(links.front(), 0.5);
  sim.run();
  const auto& trace = sim.trace();
  ASSERT_FALSE(trace.empty());
  // A delivery is recorded before the table changes it causes.
  EXPECT_EQ(trace.front().kind, runtime::TraceEntry::Kind::Deliver);
  bool saw_send = false, saw_deliver = false, saw_install = false, saw_expire = false,
       saw_retract = false;
  double last_time = 0.0;
  for (const auto& e : trace) {
    EXPECT_GE(e.time, last_time);  // chronological
    last_time = e.time;
    switch (e.kind) {
      case runtime::TraceEntry::Kind::Send: saw_send = true; break;
      case runtime::TraceEntry::Kind::Deliver: saw_deliver = true; break;
      case runtime::TraceEntry::Kind::Install: saw_install = true; break;
      case runtime::TraceEntry::Kind::Expire: saw_expire = true; break;
      case runtime::TraceEntry::Kind::Retract:
        saw_retract = true;
        EXPECT_EQ(e.detail, links.front().to_string());
        break;
    }
  }
  EXPECT_TRUE(saw_send);     // reach shipped to the other node
  EXPECT_TRUE(saw_deliver);  // the links, and reach at its destination
  EXPECT_TRUE(saw_install);
  EXPECT_TRUE(saw_expire);   // the other soft link times out
  EXPECT_TRUE(saw_retract);  // the retracted link leaves its table
}

TEST(SimTrace, OffByDefault) {
  runtime::Simulator sim(core::reachable_program(), {});
  sim.inject_all(core::link_facts(core::line_topology(3)));
  sim.run();
  EXPECT_TRUE(sim.trace().empty());
}

// ---------------------------------------------------------------------------
// Case tactic
// ---------------------------------------------------------------------------

TEST(CaseTactic, SplitsAndBothBranchesClose) {
  using logic::Formula;
  using logic::LTerm;
  using logic::Sort;
  using logic::TypedVar;
  using prover::Command;
  // (A<=B => X) AND (A>B => X) => X   — needs a case split on A<=B.
  auto A = LTerm::var("A");
  auto B = LTerm::var("B");
  auto X = Formula::pred("x", {});
  auto le = Formula::cmp(ndlog::CmpOp::Le, A, B);
  auto gt = Formula::cmp(ndlog::CmpOp::Gt, A, B);
  auto stmt = Formula::forall(
      {TypedVar{"A", Sort::Metric}, TypedVar{"B", Sort::Metric}},
      Formula::implies(Formula::conj({Formula::implies(le, X), Formula::implies(gt, X)}),
                       X));
  logic::Theory empty_theory;
  prover::Prover prover(empty_theory);

  // Without the case split, grind alone cannot know which hypothesis fires.
  auto direct = prover.prove(logic::Theorem{"caseNeeded", stmt},
                             {Command::skolem(), Command::flatten()});
  EXPECT_FALSE(direct.proved);

  auto le_sk = Formula::cmp(ndlog::CmpOp::Le, LTerm::var("A!1"), LTerm::var("B!2"));
  auto result = prover.prove(
      logic::Theorem{"caseNeeded", stmt},
      {Command::skolem(), Command::flatten(), Command::case_split(le_sk),
       Command::grind()});
  EXPECT_TRUE(result.proved) << (result.open_goals.empty()
                                     ? result.failure_reason
                                     : result.open_goals.front().to_string());
}

// ---------------------------------------------------------------------------
// Join indexes
// ---------------------------------------------------------------------------

TEST(JoinIndex, LookupFindsMatchingTuples) {
  ndlog::Database db;
  using ndlog::Tuple;
  using ndlog::Value;
  db.insert(Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)}));
  db.insert(Tuple("link", {Value::addr("n0"), Value::addr("n2"), Value::integer(2)}));
  db.insert(Tuple("link", {Value::addr("n1"), Value::addr("n2"), Value::integer(3)}));
  EXPECT_EQ(db.lookup("link", 0, Value::addr("n0")).size(), 2u);
  EXPECT_TRUE(db.has_index("link", 0));
  EXPECT_EQ(db.lookup("link", 1, Value::addr("n2")).size(), 2u);
  EXPECT_TRUE(db.lookup("link", 0, Value::addr("n9")).empty());
  // Index maintained across mutation.
  db.insert(Tuple("link", {Value::addr("n0"), Value::addr("n3"), Value::integer(4)}));
  EXPECT_EQ(db.lookup("link", 0, Value::addr("n0")).size(), 3u);
  db.erase(Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)}));
  EXPECT_EQ(db.lookup("link", 0, Value::addr("n0")).size(), 2u);
}

TEST(JoinIndex, InsertHandsBackTheStoredRowAndErasesItByIdentity) {
  ndlog::Database db;
  using ndlog::Tuple;
  using ndlog::Value;
  const auto link = [](const char* d, std::int64_t c) {
    return Tuple("link", {Value::addr("n0"), Value::addr(d), Value::integer(c)});
  };
  // A probe before any row exists: the index is kept from the first insert
  // on, so its buckets hold rows in insertion order.
  EXPECT_TRUE(db.lookup("link", 0, Value::addr("n0")).empty());
  const Tuple* first = db.insert(link("n1", 1));
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(*first, link("n1", 1));
  EXPECT_EQ(first, &*db.relation("link").find(link("n1", 1)));
  EXPECT_EQ(db.insert(link("n1", 1)), nullptr);  // already present
  const Tuple* second = db.insert(link("n2", 2));
  const Tuple* third = db.insert(link("n3", 3));
  EXPECT_EQ(db.lookup("link", 0, Value::addr("n0")),
            (std::vector<const Tuple*>{first, second, third}));
  EXPECT_TRUE(db.erase(link("n2", 2)));
  EXPECT_FALSE(db.erase(link("n2", 2)));
  EXPECT_EQ(db.lookup("link", 0, Value::addr("n0")),
            (std::vector<const Tuple*>{first, third}));
  EXPECT_TRUE(db.lookup("link", 1, Value::addr("n2")).empty());
}

TEST(JoinIndex, IndexedAndScanEvaluationAgree) {
  ndlog::Evaluator eval;
  for (std::uint64_t seed = 40; seed < 44; ++seed) {
    auto links = core::link_facts(core::random_topology(7, 5, seed));
    ndlog::EvalOptions indexed, scan;
    scan.use_index = false;
    auto a = eval.run(core::path_vector_program(), links, indexed);
    auto b = eval.run(core::path_vector_program(), links, scan);
    EXPECT_EQ(a.database.dump(), b.database.dump()) << seed;
    // The index materially reduces join work.
    EXPECT_LT(a.stats.join_probes, b.stats.join_probes) << seed;
  }
}

// ---------------------------------------------------------------------------
// Parameterized sweeps
// ---------------------------------------------------------------------------

class ProtocolRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(ProtocolRoundTrip, ParsePrintReparseIsStable) {
  const std::vector<std::string> sources = {
      core::path_vector_source(),       core::distance_vector_source(),
      core::link_state_source(),        core::reachable_source(),
      core::policy_path_vector_source(), core::spanning_tree_source(),
  };
  const auto& src = sources[static_cast<std::size_t>(GetParam())];
  auto once = ndlog::parse_program(src);
  auto twice = ndlog::parse_program(once.to_string());
  EXPECT_EQ(once.to_string(), twice.to_string());
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolRoundTrip, ::testing::Range(0, 6));

TEST(CoreSources, MatchShippedExamples) {
  // The suites that run core::<name>_program() run the program that fvn_cli,
  // the cross-validation matrix and the analyze goldens read from disk.
  const std::vector<std::pair<std::string, std::string>> sources = {
      {"path_vector", core::path_vector_source()},
      {"distance_vector", core::distance_vector_source()},
      {"link_state", core::link_state_source()},
      {"reachable", core::reachable_source()},
      {"policy_path_vector", core::policy_path_vector_source()},
      {"spanning_tree", core::spanning_tree_source()},
  };
  for (const auto& [name, source] : sources) {
    EXPECT_EQ(ndlog::parse_program(source).to_string(),
              crossval::example_program(name).to_string())
        << name;
  }
}

class DistributedAgreement : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DistributedAgreement, SimulatorMatchesEvaluatorOnReachability) {
  const std::uint64_t seed = GetParam();
  auto links = core::link_facts(core::random_topology(6, 4, seed));
  ndlog::Evaluator eval;
  auto central = eval.run(core::reachable_program(), links);
  runtime::Simulator sim(core::reachable_program(), {});
  sim.inject_all(links);
  auto stats = sim.run();
  ASSERT_TRUE(stats.quiesced);
  EXPECT_EQ(ndlog::sorted_strings(sim.merged_database().relation("reachable")),
            ndlog::sorted_strings(central.database.relation("reachable")))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, DistributedAgreement,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

class TranslationSweep : public ::testing::TestWithParam<int> {};

TEST_P(TranslationSweep, EveryProtocolTheoryHasAllDerivedPredicates) {
  const std::vector<ndlog::Program> programs = {
      core::path_vector_program(), core::link_state_program(),
      core::reachable_program(), core::policy_path_vector_program(),
      core::spanning_tree_program(),
  };
  const auto& program = programs[static_cast<std::size_t>(GetParam())];
  // count/sum-free programs translate fully.
  auto theory = translate::to_logic(program);
  for (const auto& pred : ndlog::derived_predicates(program)) {
    EXPECT_NE(theory.find_definition(pred), nullptr) << pred;
  }
  for (const auto& pred : ndlog::base_predicates(program)) {
    EXPECT_EQ(theory.find_definition(pred), nullptr) << pred;
  }
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, TranslationSweep, ::testing::Range(0, 5));

}  // namespace
}  // namespace fvn
