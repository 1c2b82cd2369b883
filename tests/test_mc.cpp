// Model-checker tests (E2 + arc 8): count-to-infinity detection on
// distance-vector after link failure, split-horizon contrast, generic checker
// behaviors, NDlog-as-transition-system exploration of all message
// interleavings, and the replay suite: every simulator run is a path of the
// transition system.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "mc/checker.hpp"
#include "mc/dv_model.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using namespace fvn::mc;

DvConfig triangle_with_failure() {
  // 0 - 1 - 2 triangle; link 0-1 fails. Node 1 can count up through node 2.
  DvConfig config;
  config.node_count = 3;
  config.edges = {{0, 1, 1}, {1, 2, 1}, {0, 2, 1}};
  config.failed_link = {{0, 1}};
  config.infinity_threshold = 16;
  return config;
}

DvConfig line_with_failure(bool split_horizon) {
  // 0 - 1 - 2 line; link 0-1 fails: 1 and 2 can bounce the stale route
  // between each other (the textbook two-node count-to-infinity).
  DvConfig config;
  config.node_count = 3;
  config.edges = {{0, 1, 1}, {1, 2, 1}};
  config.failed_link = {{0, 1}};
  config.split_horizon = split_horizon;
  config.infinity_threshold = 12;
  return config;
}

TEST(DvModel, ConvergedStateIsBellmanFordFixpoint) {
  auto config = triangle_with_failure();
  auto state = converged_state(config);
  ASSERT_TRUE(state[1].has_value());
  ASSERT_TRUE(state[2].has_value());
  EXPECT_EQ(state[1]->cost, 1);
  EXPECT_EQ(state[2]->cost, 1);
}

TEST(DvModel, CountToInfinityFoundOnLineAfterFailure) {
  // E2: the checker finds a trace in which route costs climb past the
  // threshold — the count-to-infinity anomaly.
  auto result = check_count_to_infinity(line_with_failure(false));
  EXPECT_FALSE(result.property_holds);
  ASSERT_GE(result.counterexample.size(), 3u);
  // The trace shows monotone cost growth at node 1 or 2.
  const DvState last = decode(result.counterexample.back(), 3);
  bool climbed = false;
  for (std::size_t u = 1; u < 3; ++u) {
    if (last[u] && last[u]->cost >= 12) climbed = true;
  }
  EXPECT_TRUE(climbed) << result.counterexample.back();
}

TEST(DvModel, SplitHorizonPreventsTwoNodeLoop) {
  auto result = check_count_to_infinity(line_with_failure(true));
  EXPECT_TRUE(result.property_holds);
  EXPECT_TRUE(result.exhausted);  // full state space explored, no violation
}

TEST(DvModel, CountToInfinityAlsoOnTriangle) {
  auto result = check_count_to_infinity(triangle_with_failure());
  // The triangle has an alternate real route (cost 2 via node 2), but plain
  // DV can still climb transiently? With min-selection the direct recompute
  // picks cost 2 immediately — no CTI on this topology.
  EXPECT_TRUE(result.property_holds);
}

TEST(Checker, InvariantTraceIsShortest) {
  // Simple counter system: states 0..10, successor +1; invariant < 5.
  auto successors = [](const int& s) { return std::vector<int>{s + 1}; };
  auto invariant = [](const int& s) { return s < 5; };
  auto result = check_invariant<int>({0}, successors, invariant, 1000);
  EXPECT_FALSE(result.property_holds);
  ASSERT_EQ(result.counterexample.size(), 6u);  // 0,1,2,3,4,5
  EXPECT_EQ(result.counterexample.back(), 5);
}

TEST(Checker, CycleDetectionFindsLasso) {
  // 0 -> 1 -> 2 -> 1 (lasso).
  auto successors = [](const int& s) {
    switch (s) {
      case 0: return std::vector<int>{1};
      case 1: return std::vector<int>{2};
      case 2: return std::vector<int>{1};
      default: return std::vector<int>{};
    }
  };
  auto any = [](const int&) { return true; };
  auto result = find_cycle<int>({0}, successors, any, 1000);
  EXPECT_FALSE(result.property_holds);
  ASSERT_GE(result.counterexample.size(), 3u);
  EXPECT_EQ(result.counterexample.front(), result.counterexample.back());
}

TEST(Checker, BudgetEqualToStateCountIsExhaustive) {
  // A budget of N examines N states; exhausted is false only when a reached
  // state was left unexamined. The chain 0..9 has ten states.
  auto successors = [](const int& s) {
    return s < 9 ? std::vector<int>{s + 1} : std::vector<int>{};
  };
  auto always = [](const int&) { return true; };
  const auto bfs = check_invariant<int>({0}, successors, always, 10);
  EXPECT_TRUE(bfs.exhausted);
  EXPECT_EQ(bfs.states_explored, 10u);
  const auto bfs_short = check_invariant<int>({0}, successors, always, 9);
  EXPECT_FALSE(bfs_short.exhausted);
  EXPECT_EQ(bfs_short.states_explored, 9u);
  const auto dfs = find_cycle<int>({0}, successors, always, 10);
  EXPECT_TRUE(dfs.exhausted);
  EXPECT_EQ(dfs.states_explored, 10u);
  const auto dfs_short = find_cycle<int>({0}, successors, always, 9);
  EXPECT_FALSE(dfs_short.exhausted);
  EXPECT_EQ(dfs_short.states_explored, 9u);
}

TEST(Checker, AcyclicSystemHasNoCycle) {
  auto successors = [](const int& s) {
    return s < 10 ? std::vector<int>{s + 1} : std::vector<int>{};
  };
  auto any = [](const int&) { return true; };
  auto result = find_cycle<int>({0}, successors, any, 1000);
  EXPECT_TRUE(result.property_holds);
}

// ---------------------------------------------------------------------------
// NDlog transition system (arc 8)
// ---------------------------------------------------------------------------

TEST(NdlogTs, ReachableQuiescentStateMatchesEvaluator) {
  // Deliver messages in one arbitrary order: the quiescent state's bestPath
  // costs equal the centralized evaluator's.
  auto program = core::path_vector_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(3));
  NetState state = ts.initial(links);
  std::size_t guard = 10000;
  while (!state.quiescent() && guard-- > 0) {
    state = ts.deliver(state, 0);
  }
  ASSERT_TRUE(state.quiescent());

  ndlog::Evaluator eval;
  auto central = eval.run(program, links);
  // Check each node's bestPath rows exist centrally with equal cost.
  std::size_t rows = 0;
  for (const auto& [node, tuples] : state.stored) {
    for (const auto& t : tuples) {
      if (t.predicate() != "bestPath") continue;
      ++rows;
      bool found = false;
      for (const auto& c : central.database.relation("bestPath")) {
        if (c.at(0) == t.at(0) && c.at(1) == t.at(1) && c.at(3) == t.at(3)) found = true;
      }
      EXPECT_TRUE(found) << t.to_string();
    }
  }
  EXPECT_GT(rows, 0u);
}

TEST(NdlogTs, InvariantHoldsAcrossAllInterleavings) {
  // Route-optimality safety across *every* message interleaving on a small
  // instance: no installed bestPath row is ever worse than the true optimum
  // once the system quiesces; transiently costs may be higher, so check a
  // weaker invariant: path costs are always >= 1 (cost positivity, the
  // prover's pathCostPositive, now model-checked).
  auto program = core::path_vector_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(3));
  auto invariant = [](const NetState& s) {
    for (const auto& [node, tuples] : s.stored) {
      for (const auto& t : tuples) {
        if (t.predicate() == "path" && t.at(3).as_int() < 1) return false;
      }
    }
    return true;
  };
  auto result = ts.check_invariant_all_interleavings(ts.initial(links), invariant, 20000);
  EXPECT_TRUE(result.property_holds);
  EXPECT_GT(result.states_explored, 10u);
}

TEST(NdlogTs, ViolationProducesTrace) {
  // A deliberately false invariant ("no node ever stores a 2-hop path")
  // yields a counterexample trace ending in the violating state.
  auto program = core::path_vector_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(3));
  auto invariant = [](const NetState& s) {
    for (const auto& [node, tuples] : s.stored) {
      for (const auto& t : tuples) {
        if (t.predicate() == "path" && t.at(2).as_list().size() >= 3) return false;
      }
    }
    return true;
  };
  auto result = ts.check_invariant_all_interleavings(ts.initial(links), invariant, 20000);
  EXPECT_FALSE(result.property_holds);
  ASSERT_GE(result.counterexample.size(), 2u);
  // The trace carries *full state snapshots*, not encoded keys: the first
  // step is the initial state (all facts in flight, no stores) and the last
  // step stores the offending 2-hop path at some node.
  EXPECT_TRUE(result.counterexample.front().stored.empty());
  EXPECT_FALSE(result.counterexample.front().inflight.empty());
  bool two_hop_stored = false;
  for (const auto& [node, tuples] : result.counterexample.back().stored) {
    for (const auto& t : tuples) {
      if (t.predicate() == "path" && t.at(2).as_list().size() >= 3) two_hop_stored = true;
    }
  }
  EXPECT_TRUE(two_hop_stored);
  // Every snapshot renders as per-node tables.
  const std::string text = render_state(result.counterexample.back());
  EXPECT_NE(text.find("node "), std::string::npos);
  EXPECT_NE(text.find("path(n"), std::string::npos);
}

TEST(NdlogTs, InterleavingCountIsSubstantial) {
  // The exploration really branches over message orders.
  auto program = core::reachable_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(3));
  auto always = [](const NetState&) { return true; };
  auto result = ts.check_invariant_all_interleavings(ts.initial(links), always, 50000);
  EXPECT_TRUE(result.property_holds);
  EXPECT_GT(result.states_explored, 50u);
}


TEST(NdlogTs, EventualConsistencyAcrossAllInterleavings) {
  // Every message interleaving of path-vector on a 3-line quiesces with the
  // *same* stores (confluence) and with optimal best paths — the eventual-
  // consistency result the transition-system view makes checkable.
  auto program = core::path_vector_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(3));

  ndlog::Evaluator eval;
  auto central = eval.run(program, links);
  std::set<std::string> expected;
  for (const auto& t : central.database.relation("bestPath")) {
    expected.insert(t.at(0).to_string() + "|" + t.at(1).to_string() + "|" +
                    t.at(3).to_string());
  }

  auto optimal = [&expected](const NetState& s) {
    std::set<std::string> got;
    for (const auto& [node, tuples] : s.stored) {
      for (const auto& t : tuples) {
        if (t.predicate() != "bestPath") continue;
        got.insert(t.at(0).to_string() + "|" + t.at(1).to_string() + "|" +
                   t.at(3).to_string());
      }
    }
    return got == expected;
  };
  auto report = ts.check_quiescent_states(ts.initial(links), optimal, 150000);
  EXPECT_TRUE(report.exhausted);
  EXPECT_GT(report.quiescent_states, 0u);
  EXPECT_TRUE(report.all_satisfy) << report.violating_state;
  EXPECT_TRUE(report.confluent);
}

TEST(NdlogTs, BudgetEqualToStateCountIsExhaustive) {
  // reachable on a 3-node line has 361 states: a budget of 361 examines them
  // all (the last one too) and is exhaustive, a budget of 360 is not.
  NdlogTransitionSystem ts(core::reachable_program());
  const NetState initial = ts.initial(core::link_facts(core::line_topology(3)));
  auto always = [](const NetState&) { return true; };

  const auto full = ts.check_quiescent_states(initial, always, 361);
  EXPECT_TRUE(full.exhausted);
  EXPECT_EQ(full.states_explored, 361u);
  EXPECT_EQ(full.quiescent_states, 1u);
  const auto cut = ts.check_quiescent_states(initial, always, 360);
  EXPECT_FALSE(cut.exhausted);
  EXPECT_EQ(cut.states_explored, 360u);

  const auto inv = ts.check_invariant_all_interleavings(initial, always, 361);
  EXPECT_TRUE(inv.exhausted);
  EXPECT_EQ(inv.states_explored, 361u);
  const auto inv_cut = ts.check_invariant_all_interleavings(initial, always, 360);
  EXPECT_FALSE(inv_cut.exhausted);
  EXPECT_EQ(inv_cut.states_explored, 360u);
}

/// Every state reachable from `initial`, breadth first, by the NetState
/// reference semantics.
std::vector<NetState> reachable_states(const NdlogTransitionSystem& ts,
                                       const NetState& initial) {
  std::vector<NetState> states{initial};
  std::set<std::string> seen{initial.encode()};
  for (std::size_t i = 0; i < states.size(); ++i) {
    for (auto& next : ts.successors(states[i])) {
      if (seen.insert(next.encode()).second) states.push_back(std::move(next));
    }
  }
  return states;
}

TEST(NdlogTs, StateSpaceMatchesSnapshotSemantics) {
  // The interned space against the NetState reference: interning round-trips,
  // and every state's successors are the reference successors, element by
  // element and in order, under the ids their snapshots intern to. The
  // one-link case gives a receiving node an empty entry; the path-vector line
  // revisits tables (cache hits) and drops messages whose destination already
  // stores the tuple; `notes` sends one node two messages in the reverse of
  // tuple order, so id order and in-flight order differ.
  struct Case {
    const char* name;
    ndlog::Program program;
    std::vector<ndlog::Tuple> facts;
  };
  const auto link = [](const char* from, const char* to) {
    return ndlog::Tuple("link", {ndlog::Value::addr(from), ndlog::Value::addr(to),
                                 ndlog::Value::integer(1)});
  };
  std::vector<Case> cases = {
      {"path_vector line 3", core::path_vector_program(),
       core::link_facts(core::line_topology(3))},
      {"reachable line 3", core::reachable_program(),
       core::link_facts(core::line_topology(3))},
      {"reachable one link", core::reachable_program(), {link("n0", "n1")}},
      {"notes", ndlog::parse_program(R"(
         materialize(link, infinity, infinity, keys(1,2)).
         m1 note(@D, S, 2) :- link(@S, D, C).
         m2 note(@D, S, 1) :- link(@S, D, C).
       )", "notes"),
       {link("b", "a"), link("a", "b")}},
  };
  // Every shipped example on its cross-validation instance: keyed
  // overwrites, aggregates that settle and withdraw, and embedded facts.
  const auto examples = crossval::example_facts();
  for (const auto& [name, facts] : examples) {
    cases.push_back({name.c_str(), crossval::example_program(name), facts});
  }
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    NdlogTransitionSystem ts(c.program);
    const auto states = reachable_states(ts, ts.initial(c.facts));
    StateSpace space(ts);
    std::size_t transitions = 0;
    for (const NetState& s : states) {
      const StateSpace::Id id = space.intern(s);
      ASSERT_EQ(space.snapshot(id), s) << s.encode();
      const auto expected = ts.successors(s);
      const auto got = space.successors(id);
      ASSERT_EQ(got.size(), expected.size()) << s.encode();
      for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(space.snapshot(got[i]), expected[i]) << s.encode() << " successor " << i;
        ASSERT_EQ(space.intern(expected[i]), got[i]) << s.encode() << " successor " << i;
      }
      transitions += got.size();
    }
    EXPECT_EQ(space.size(), states.size());
    // The cache runs one local fixpoint per distinct (node, table, tuple).
    EXPECT_GT(space.local_steps(), 0u);
    EXPECT_LE(space.local_steps(), transitions);
  }
}

TEST(NdlogTs, QuiescenceViolationReported) {
  auto program = core::reachable_program();
  NdlogTransitionSystem ts(program);
  auto links = core::link_facts(core::line_topology(2));
  auto impossible = [](const NetState&) { return false; };
  auto report = ts.check_quiescent_states(ts.initial(links), impossible, 50000);
  EXPECT_FALSE(report.all_satisfy);
  EXPECT_FALSE(report.violating_state.empty());
  // The violating trace is a full snapshot path from the initial state to
  // the violating quiescent state.
  ASSERT_GE(report.violating_trace.size(), 2u);
  EXPECT_TRUE(report.violating_trace.front().stored.empty());
  EXPECT_TRUE(report.violating_trace.back().quiescent());
  EXPECT_EQ(report.violating_trace.back().encode(), report.violating_state);
}

// ---------------------------------------------------------------------------
// Replay: what the runtime executes is a path the checker explores
// ---------------------------------------------------------------------------

/// Per-node tables as rendered rows; a node with no rows has no entry.
using Tables = std::map<std::string, std::set<std::string>>;

Tables rendered(const NetState& state) {
  Tables out;
  for (const auto& [node, rows] : state.stored) {
    for (const auto& t : rows) out[node].insert(t.to_string());
  }
  return out;
}

struct SlowLink {
  const char* from;
  const char* to;
  double delay;
};

/// Replays one simulator run through NdlogTransitionSystem::deliver, one
/// delivery per transition, and returns the number of deliveries. After
/// each, every node's table must be the one the simulator's trace folds to.
/// A delivered message the checker does not hold in flight must be a copy
/// it dropped because its destination stores the row. When the run
/// quiesces, nothing may be left in flight.
std::size_t replay(const ndlog::Program& program, const std::vector<ndlog::Tuple>& facts,
                   runtime::SimOptions options, const std::vector<SlowLink>& slow_links) {
  using Kind = runtime::TraceEntry::Kind;
  options.record_trace = true;
  runtime::Simulator sim(program, options);
  for (const auto& l : slow_links) sim.set_link_delay(l.from, l.to, l.delay);
  sim.inject_all(facts);
  EXPECT_TRUE(sim.run().quiesced);

  const NdlogTransitionSystem ts(program);
  NetState state = ts.initial(facts);
  Tables folded;
  std::size_t deliveries = 0;
  std::string delivered;  // the current delivery, for failure messages
  const auto& trace = sim.trace();
  for (std::size_t i = 0; i < trace.size(); ++i) {
    const auto& e = trace[i];
    if (e.kind == Kind::Install) folded[e.node].insert(e.detail);
    if (e.kind == Kind::Retract || e.kind == Kind::Expire) {
      folded[e.node].erase(e.detail);
      if (folded[e.node].empty()) folded.erase(e.node);
    }
    if (e.kind == Kind::Deliver) {
      ++deliveries;
      delivered = e.node + " <- " + e.detail;
      const auto it = std::find_if(state.inflight.begin(), state.inflight.end(),
                                   [&e](const auto& m) {
                                     return m.first == e.node && m.second.to_string() == e.detail;
                                   });
      if (it != state.inflight.end()) {
        state = ts.deliver(state, static_cast<std::size_t>(
                                      std::distance(state.inflight.begin(), it)));
      } else if (!rendered(state)[e.node].contains(e.detail)) {
        ADD_FAILURE() << "delivery " << deliveries << " (" << delivered
                      << ") is neither in flight nor stored:\n"
                      << render_state(state);
        return deliveries;
      }
    }
    const bool delivery_done = i + 1 == trace.size() || trace[i + 1].kind == Kind::Deliver;
    if (deliveries > 0 && delivery_done && rendered(state) != folded) {
      ADD_FAILURE() << "tables differ after delivery " << deliveries << " (" << delivered
                    << "); the checker's state:\n"
                    << render_state(state);
      return deliveries;
    }
  }
  EXPECT_TRUE(state.quiescent()) << "left in flight:\n" << render_state(state);
  return deliveries;
}

/// replay() at jitter 0, then at delay_jitter 0.9 for seeds 1-16: 17 runs.
std::size_t replay_runs(const ndlog::Program& program, const std::vector<ndlog::Tuple>& facts,
                        const std::vector<SlowLink>& slow_links = {}) {
  std::size_t deliveries = 0;
  for (std::uint64_t seed = 0; seed <= 16; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    runtime::SimOptions options;
    if (seed > 0) {
      options.seed = seed;
      options.delay_jitter = 0.9;
    }
    deliveries += replay(program, facts, options, slow_links);
  }
  return deliveries;
}

TEST(NdlogTsReplay, EveryExampleRunIsACheckerPath) {
  // Each shipped example on its cross-validation instance: 6 x 17 runs.
  std::size_t deliveries = 0;
  for (const auto& [name, facts] : crossval::example_facts()) {
    SCOPED_TRACE(name);
    const auto path =
        std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" / (name + ".ndlog");
    std::ifstream in(path);
    std::ostringstream text;
    text << in.rdbuf();
    deliveries += replay_runs(ndlog::parse_program(text.str(), name + ".ndlog"), facts);
  }
  // Jitter reorders the deliveries of a run but does not change their number.
  EXPECT_EQ(deliveries, 1003u);
}

TEST(NdlogTsReplay, AggregateWithdrawalIsACheckerPath) {
  // st(a,0) overwrites st(a,1) and empties pos's only group: settle
  // withdraws pos(a,1).
  const auto program = ndlog::parse_program(R"(
    materialize(st, infinity, infinity, keys(1)).
    materialize(pos, infinity, infinity, keys(1)).
    p1 pos(@S,min<V>) :- st(@S,V), V>0.
  )", "withdrawal");
  const auto st = [](std::int64_t v) {
    return ndlog::Tuple("st", {ndlog::Value::addr("a"), ndlog::Value::integer(v)});
  };
  EXPECT_EQ(replay_runs(program, {st(1), st(0)}), 34u);
}

TEST(NdlogTsReplay, IntermediateAggregateIsACheckerPath) {
  const auto [program, facts] = crossval::intermediate_aggregate();
  EXPECT_GT(replay_runs(program, facts), 0u);
}

TEST(NdlogTsReplay, OverwrittenDuplicateIsACheckerPath) {
  const auto [program, facts] = crossval::send_filter();
  EXPECT_GT(replay_runs(program, facts, {{"d", "b", 0.05}}), 0u);
}

}  // namespace
}  // namespace fvn
