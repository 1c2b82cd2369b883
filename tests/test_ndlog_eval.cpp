// Integration tests for the NDlog engine on the paper's programs: the §2.2
// path-vector program, distance-vector (count-to-infinity divergence),
// link-state, reachability, and the staged policy path-vector.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"

namespace fvn {
namespace {

using core::link_facts;
using core::node_name;
using ndlog::Database;
using ndlog::EvalOptions;
using ndlog::Evaluator;
using ndlog::Tuple;
using ndlog::Value;

Tuple best_path(const std::string& s, const std::string& d,
                std::vector<std::string> path, std::int64_t cost) {
  std::vector<Value> p;
  for (auto& n : path) p.push_back(Value::addr(n));
  return Tuple("bestPath", {Value::addr(s), Value::addr(d), Value::list(std::move(p)),
                            Value::integer(cost)});
}

TEST(PathVectorEval, LineTopologyShortestPaths) {
  Evaluator eval;
  auto result = eval.run(core::path_vector_program(), link_facts(core::line_topology(4)));
  const auto& db = result.database;
  EXPECT_TRUE(db.contains(best_path("n0", "n3", {"n0", "n1", "n2", "n3"}, 3)));
  EXPECT_TRUE(db.contains(best_path("n3", "n0", {"n3", "n2", "n1", "n0"}, 3)));
  EXPECT_TRUE(db.contains(best_path("n0", "n1", {"n0", "n1"}, 1)));
  // 4 nodes, all pairs reachable: 12 best paths (ties impossible on a line).
  EXPECT_EQ(db.size("bestPath"), 12u);
}

TEST(PathVectorEval, PicksCheaperOfTwoRoutes) {
  // Triangle with one expensive direct edge: n0-n2 costs 10, n0-n1-n2 costs 2.
  std::vector<core::Link> links = {
      {"n0", "n1", 1}, {"n1", "n0", 1}, {"n1", "n2", 1},
      {"n2", "n1", 1}, {"n0", "n2", 10}, {"n2", "n0", 10},
  };
  Evaluator eval;
  auto result = eval.run(core::path_vector_program(), link_facts(links));
  EXPECT_TRUE(result.database.contains(best_path("n0", "n2", {"n0", "n1", "n2"}, 2)));
  EXPECT_FALSE(result.database.contains(best_path("n0", "n2", {"n0", "n2"}, 10)));
}

TEST(PathVectorEval, CycleAvoidanceTerminatesOnRing) {
  Evaluator eval;
  auto result = eval.run(core::path_vector_program(), link_facts(core::ring_topology(5)));
  // Every path is simple: at most 5 nodes.
  for (const auto& t : result.database.relation("path")) {
    EXPECT_LE(t.at(2).as_list().size(), 5u) << t.to_string();
  }
}

TEST(PathVectorEval, BestPathIsOptimalOnRandomGraphs) {
  // The route-optimality property of §3.1 (bestPathStrong), checked
  // empirically: no path tuple beats the bestPath cost.
  Evaluator eval;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    auto links = core::random_topology(8, 6, seed);
    auto result = eval.run(core::path_vector_program(), link_facts(links));
    const auto& db = result.database;
    for (const auto& best : db.relation("bestPath")) {
      for (const auto& p : db.relation("path")) {
        if (p.at(0) == best.at(0) && p.at(1) == best.at(1)) {
          EXPECT_LE(best.at(3).as_int(), p.at(3).as_int())
              << "bestPath " << best.to_string() << " beaten by " << p.to_string();
        }
      }
    }
  }
}

TEST(DistanceVectorEval, DivergesOnCyclicTopology) {
  // E2 (static shape): without a path vector, `hop` grows without bound on a
  // ring — the evaluator's divergence guard fires.
  Evaluator eval;
  EvalOptions options;
  options.max_iterations = 200;
  EXPECT_THROW(
      eval.run(core::distance_vector_program(), link_facts(core::ring_topology(3)), options),
      ndlog::DivergenceError);
}

TEST(DistanceVectorEval, BoundedVariantConverges) {
  Evaluator eval;
  auto result = eval.run(
      ndlog::parse_program(core::distance_vector_bounded_source(16), "dv_bounded"),
      link_facts(core::ring_topology(4)));
  const auto& db = result.database;
  // n0 -> n2 is two hops either way around the ring.
  bool found = false;
  for (const auto& t : db.relation("bestHopCost")) {
    if (t.at(0) == Value::addr("n0") && t.at(1) == Value::addr("n2")) {
      EXPECT_EQ(t.at(2).as_int(), 2);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST(LinkStateEval, FloodingReplicatesLsdbEverywhere) {
  Evaluator eval;
  auto result = eval.run(core::link_state_program(), link_facts(core::line_topology(4)));
  const auto& db = result.database;
  // 6 directed links, 4 nodes -> 24 lsdb entries after flooding.
  EXPECT_EQ(db.size("lsdb"), 24u);
}

TEST(LinkStateEval, LocalComputationMatchesPathVectorCosts) {
  Evaluator eval;
  auto links = core::random_topology(6, 4, 42);
  auto ls = eval.run(core::link_state_program(), link_facts(links));
  auto pv = eval.run(core::path_vector_program(), link_facts(links));
  // lsBestCost(@N,S,D,C): every node N agrees with path-vector's best cost.
  for (const auto& t : ls.database.relation("lsBestCost")) {
    const auto& s = t.at(1);
    const auto& d = t.at(2);
    for (const auto& b : pv.database.relation("bestPathCost")) {
      if (b.at(0) == s && b.at(1) == d) {
        EXPECT_EQ(t.at(3).as_int(), b.at(2).as_int())
            << "node " << t.at(0).to_string() << " disagrees for " << s.to_string()
            << "->" << d.to_string();
      }
    }
  }
}

TEST(ReachableEval, TransitiveClosure) {
  Evaluator eval;
  auto result = eval.run(core::reachable_program(), link_facts(core::line_topology(5)));
  // Bidirectional line: every node reaches every node, including itself
  // (out-and-back), so all 25 ordered pairs are derived.
  EXPECT_EQ(result.database.size("reachable"), 25u);
}

TEST(PolicyPathVector, ExportDenyFiltersRoutes) {
  // n0 - n1 - n2 line; n1 refuses to export routes to destination n2 toward
  // n0, so n0 never learns a route to n2.
  auto program = core::policy_path_vector_program();
  std::vector<Tuple> facts;
  for (std::size_t i = 0; i < 3; ++i) {
    facts.emplace_back("node", std::vector<Value>{Value::addr(node_name(i))});
  }
  for (const auto& t : link_facts(core::line_topology(3))) facts.push_back(t);
  for (const auto& pair : std::vector<std::pair<std::string, std::string>>{
           {"n0", "n1"}, {"n1", "n0"}, {"n1", "n2"}, {"n2", "n1"}}) {
    facts.emplace_back("importPref",
                       std::vector<Value>{Value::addr(pair.first), Value::addr(pair.second),
                                          Value::integer(100)});
  }
  facts.emplace_back("exportDeny", std::vector<Value>{Value::addr("n1"), Value::addr("n0"),
                                                      Value::addr("n2")});
  Evaluator eval;
  auto result = eval.run(program, facts);
  for (const auto& t : result.database.relation("bestRoute")) {
    EXPECT_FALSE(t.at(0) == Value::addr("n0") && t.at(1) == Value::addr("n2"))
        << "filtered route leaked: " << t.to_string();
  }
  // n2 still reaches n0 (filter was one-directional).
  bool n2_reaches_n0 = false;
  for (const auto& t : result.database.relation("bestRoute")) {
    if (t.at(0) == Value::addr("n2") && t.at(1) == Value::addr("n0")) n2_reaches_n0 = true;
  }
  EXPECT_TRUE(n2_reaches_n0);
}

TEST(PolicyPathVector, LocalPrefBeatsCost) {
  // n0 has two routes to n3: direct (cost 1, lp 50) and via n1 (cost > 1 but
  // lp 200). Lexicographic selection must pick the high-lp route.
  auto program = core::policy_path_vector_program();
  std::vector<Tuple> facts;
  for (const auto& n : {"n0", "n1", "n3"}) {
    facts.emplace_back("node", std::vector<Value>{Value::addr(n)});
  }
  std::vector<core::Link> links = {
      {"n0", "n3", 1}, {"n3", "n0", 1}, {"n0", "n1", 1},
      {"n1", "n0", 1}, {"n1", "n3", 1}, {"n3", "n1", 1},
  };
  for (const auto& t : link_facts(links)) facts.push_back(t);
  auto pref = [&](const char* at, const char* nbr, std::int64_t lp) {
    facts.emplace_back("importPref", std::vector<Value>{Value::addr(at), Value::addr(nbr),
                                                        Value::integer(lp)});
  };
  pref("n0", "n3", 50);
  pref("n0", "n1", 200);
  pref("n1", "n0", 100);
  pref("n1", "n3", 100);
  pref("n3", "n0", 100);
  pref("n3", "n1", 100);
  Evaluator eval;
  auto result = eval.run(program, facts);
  bool found = false;
  for (const auto& t : result.database.relation("bestRoute")) {
    if (t.at(0) == Value::addr("n0") && t.at(1) == Value::addr("n3")) {
      found = true;
      EXPECT_EQ(t.at(4).as_int(), 200) << t.to_string();
      EXPECT_EQ(t.at(2).as_list().size(), 3u) << t.to_string();  // n0,n1,n3
    }
  }
  EXPECT_TRUE(found);
}

TEST(SemiNaive, MatchesNaiveOnRandomGraphs) {
  // E8 ablation correctness: semi-naive and naive evaluation derive the same
  // database.
  Evaluator eval;
  for (std::uint64_t seed = 10; seed < 14; ++seed) {
    auto links = core::random_topology(7, 5, seed);
    EvalOptions semi;
    semi.semi_naive = true;
    EvalOptions naive;
    naive.semi_naive = false;
    auto a = eval.run(core::path_vector_program(), link_facts(links), semi);
    auto b = eval.run(core::path_vector_program(), link_facts(links), naive);
    EXPECT_EQ(a.database.dump(), b.database.dump()) << "seed " << seed;
  }
}

TEST(SemiNaive, DoesLessJoinWorkThanNaive) {
  Evaluator eval;
  auto links = core::random_topology(10, 8, 7);
  EvalOptions semi;
  semi.semi_naive = true;
  EvalOptions naive;
  naive.semi_naive = false;
  auto a = eval.run(core::path_vector_program(), link_facts(links), semi);
  auto b = eval.run(core::path_vector_program(), link_facts(links), naive);
  EXPECT_LT(a.stats.rule_firings, b.stats.rule_firings);
}

// ---------------------------------------------------------------------------
// match_atom restore-on-failure semantics
// ---------------------------------------------------------------------------

TEST(MatchAtom, RollsBackAddedBindingsOnFailure) {
  ndlog::Atom atom;
  atom.predicate = "p";
  atom.args = {ndlog::Term::var("X"), ndlog::Term::constant_of(Value::integer(1))};
  ndlog::Bindings env;
  env.emplace("Z", Value::integer(9));
  // p(7, 2): X binds to 7, then 1 != 2 fails — X must be gone afterwards.
  EXPECT_FALSE(ndlog::match_atom(atom, Tuple("p", {Value::integer(7), Value::integer(2)}),
                                 env));
  EXPECT_EQ(env.size(), 1u);
  EXPECT_EQ(env.count("X"), 0u);
  EXPECT_EQ(env.at("Z").as_int(), 9);
}

TEST(MatchAtom, ReportsAddedKeysOnSuccess) {
  ndlog::Atom atom;
  atom.predicate = "p";
  atom.args = {ndlog::Term::var("X"), ndlog::Term::var("Y")};
  ndlog::Bindings env;
  env.emplace("X", Value::integer(7));  // pre-bound: must NOT be reported
  std::vector<std::string> added;
  EXPECT_TRUE(ndlog::match_atom(atom, Tuple("p", {Value::integer(7), Value::integer(3)}),
                                env, &added));
  ASSERT_EQ(added.size(), 1u);
  EXPECT_EQ(added[0], "Y");
  EXPECT_EQ(env.at("Y").as_int(), 3);
  // Rolling back what was reported restores the original environment.
  for (const auto& key : added) env.erase(key);
  EXPECT_EQ(env.size(), 1u);
  EXPECT_EQ(env.at("X").as_int(), 7);
}

TEST(MatchAtom, PreexistingBindingSurvivesConflict) {
  ndlog::Atom atom;
  atom.predicate = "p";
  atom.args = {ndlog::Term::var("X")};
  ndlog::Bindings env;
  env.emplace("X", Value::integer(7));
  // X=7 conflicts with p(8): failure must leave the caller's binding intact.
  EXPECT_FALSE(ndlog::match_atom(atom, Tuple("p", {Value::integer(8)}), env));
  EXPECT_EQ(env.at("X").as_int(), 7);
}

// ---------------------------------------------------------------------------
// DivergenceError diagnostics
// ---------------------------------------------------------------------------

TEST(Divergence, ErrorCarriesBudgetDeltaAndStats) {
  auto program = ndlog::parse_program(R"(
    materialize(n, infinity, infinity, keys(1,2)).
    c1 n(@X,Y+1) :- n(@X,Y).
  )");
  Evaluator eval;
  EvalOptions options;
  options.max_iterations = 5;
  const std::vector<Tuple> facts = {ndlog::parse_fact("n(@a,0)")};
  try {
    eval.run(program, facts, options);
    FAIL() << "expected DivergenceError";
  } catch (const ndlog::DivergenceError& e) {
    EXPECT_EQ(e.budget(), 5u);
    EXPECT_GE(e.last_delta_size(), 1u);
    EXPECT_GE(e.stats().iterations, 5u);
    EXPECT_GT(e.stats().rule_firings, 0u);
    EXPECT_GT(e.stats().tuples_derived, 0u);
    const std::string message = e.what();
    EXPECT_NE(message.find("iteration budget=5"), std::string::npos) << message;
    EXPECT_NE(message.find("last round delta="), std::string::npos) << message;
    EXPECT_NE(message.find("rule_firings="), std::string::npos) << message;
  }
  // Naive mode diverges through the same diagnostic path.
  options.semi_naive = false;
  EXPECT_THROW(eval.run(program, facts, options), ndlog::DivergenceError);
}

// ---------------------------------------------------------------------------
// EvalStats consistency across evaluation modes
// ---------------------------------------------------------------------------

TEST(EvalModes, DerivationsAndCountersAgreeAcrossModes) {
  auto program = core::path_vector_program();
  auto facts = link_facts(core::ring_topology(5));
  auto run_mode = [&](bool semi, bool index) {
    Evaluator eval;
    EvalOptions options;
    options.semi_naive = semi;
    options.use_index = index;
    return eval.run(program, facts, options);
  };
  auto indexed = run_mode(true, true);
  auto scan = run_mode(true, false);
  auto naive = run_mode(false, true);
  auto naive_scan = run_mode(false, false);

  // Every mode derives the same database.
  EXPECT_EQ(indexed.database.dump(), scan.database.dump());
  EXPECT_EQ(indexed.database.dump(), naive.database.dump());
  EXPECT_EQ(indexed.database.dump(), naive_scan.database.dump());
  EXPECT_EQ(indexed.stats.tuples_derived, scan.stats.tuples_derived);
  EXPECT_EQ(indexed.stats.tuples_derived, naive.stats.tuples_derived);

  // Index probing is an access-path choice: it must find exactly the body
  // solutions a full scan finds, never more or fewer.
  EXPECT_EQ(indexed.stats.rule_firings, scan.stats.rule_firings);
  EXPECT_EQ(naive.stats.rule_firings, naive_scan.stats.rule_firings);
  // ...while scanning at least as many tuples.
  EXPECT_LE(indexed.stats.join_probes, scan.stats.join_probes);
  EXPECT_GT(indexed.stats.join_probes, 0u);
}

TEST(EvalModes, AggregatePassCountsAsARound) {
  // An aggregate-only stratum derives its rows in one pass, and that pass
  // is a round: in both modes, in the stats and in the round series.
  const auto program = ndlog::parse_program("c1 cnt(@S,count<C>) :- link(@S,D,C).\n");
  const std::vector<Tuple> facts = {ndlog::parse_fact("link(@a,b,1)"),
                                    ndlog::parse_fact("link(@a,c,2)")};
  for (const bool semi : {true, false}) {
    SCOPED_TRACE(semi ? "semi-naive" : "naive");
    obs::Registry registry;
    EvalOptions options;
    options.semi_naive = semi;
    options.metrics = &registry;
    const auto result = Evaluator().run(program, facts, options);
    EXPECT_EQ(result.stats.tuples_derived, 1u);
    EXPECT_EQ(result.stats.iterations, 1u);
    EXPECT_EQ(registry.find_counter("eval/rounds")->value(), 1u);
    EXPECT_EQ(registry.find_histogram("eval/round_delta")->count(), 1u);
  }
}

}  // namespace
}  // namespace fvn
