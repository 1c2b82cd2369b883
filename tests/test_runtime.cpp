// Distributed-runtime tests: localization rewrite, distributed-vs-centralized
// agreement for the paper's protocols, soft-state expiry and refresh, message
// loss, runtime monitors, the E5 convergence observables, the node core's
// keyed overwrite and its key index, and the simulator's layer split.
#include <gtest/gtest.h>

#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "core/protocols.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "runtime/localize.hpp"
#include "runtime/node_core.hpp"
#include "runtime/pred_table.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using core::link_facts;
using ndlog::Tuple;
using ndlog::Value;
using runtime::SimOptions;
using runtime::Simulator;

TEST(Localize, PathVectorR2IsRewritten) {
  auto program = core::path_vector_program();
  // r2 spans @S and @Z.
  bool saw_nonlocal = false;
  for (const auto& r : program.rules) {
    if (!runtime::is_local_rule(r)) saw_nonlocal = true;
  }
  EXPECT_TRUE(saw_nonlocal);
  auto localized = runtime::localize(program);
  for (const auto& r : localized.rules) {
    EXPECT_TRUE(runtime::is_local_rule(r)) << r.to_string();
  }
  // One ship rule was generated (for r2's link atom).
  EXPECT_EQ(localized.rules.size(), program.rules.size() + 1);
}

TEST(Localize, LocalProgramPassesThrough) {
  auto program = core::policy_path_vector_program();
  auto localized = runtime::localize(program);
  EXPECT_EQ(localized.rules.size(), program.rules.size());
}

TEST(Localize, LocalizedProgramComputesSameResultCentrally) {
  // The rewrite is semantics-preserving: centralized evaluation of original
  // and localized programs agree on the original predicates.
  ndlog::Evaluator eval;
  auto links = link_facts(core::random_topology(6, 4, 99));
  auto a = eval.run(core::path_vector_program(), links);
  auto b = eval.run(runtime::localize(core::path_vector_program()), links);
  for (const auto& pred : {"path", "bestPathCost", "bestPath"}) {
    EXPECT_EQ(ndlog::sorted_strings(a.database.relation(pred)),
              ndlog::sorted_strings(b.database.relation(pred)))
        << pred;
  }
}

TEST(Simulator, PathVectorConvergesToCentralizedResult) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto links = link_facts(core::random_topology(6, 3, seed));
    ndlog::Evaluator eval;
    auto central = eval.run(core::path_vector_program(), links);

    Simulator sim(core::path_vector_program(), SimOptions{});
    sim.inject_all(links);
    auto stats = sim.run();
    EXPECT_TRUE(stats.quiesced);

    // The distributed run agrees with the centralized fixpoint on the set of
    // (source, destination, best cost) triples. The keyed table keeps one
    // winner per (S,D) while the centralized set semantics keeps every
    // equal-cost tie, so compare the projected sets.
    auto project = [](const ndlog::TupleSet& rel) {
      std::set<std::string> out;
      for (const auto& t : rel) {
        out.insert(t.at(0).to_string() + "|" + t.at(1).to_string() + "|" +
                   t.at(3).to_string());
      }
      return out;
    };
    auto merged = sim.merged_database();
    EXPECT_EQ(project(merged.relation("bestPath")),
              project(central.database.relation("bestPath")))
        << "seed " << seed;
  }
}

TEST(Simulator, NumbersCompareByValueAcrossIntAndDouble) {
  // A Double cost among Int ones: `C < 10`, f_min and min<C> read numbers by
  // value, in the evaluator and the simulator alike.
  const auto program = ndlog::parse_program(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(near, infinity, infinity, keys(1,2)).
    materialize(capped, infinity, infinity, keys(1,2)).
    materialize(best, infinity, infinity, keys(1)).
    n1 near(@S,D) :- link(@S,D,C), C < 10.
    c1 capped(@S,D,M) :- link(@S,D,C), M=f_min(C,3).
    b1 best(@S,min<C>) :- link(@S,_D,C).
  )",
                                            "mixed_numbers");
  const std::vector<Tuple> links = {ndlog::parse_fact("link(@a,b,2.5)"),
                                    ndlog::parse_fact("link(@a,c,7)")};
  const std::vector<std::string> expected = {
      "best(a,2.5)",   "capped(a,b,2.5)", "capped(a,c,3)", "link(a,b,2.5)",
      "link(a,c,7)",   "near(a,b)",       "near(a,c)"};
  EXPECT_EQ(ndlog::Evaluator().run(program, links).database.dump(), expected);
  Simulator sim(program, SimOptions{});
  sim.inject_all(links);
  EXPECT_TRUE(sim.run().quiesced);
  EXPECT_EQ(sim.merged_database().dump(), expected);
}

TEST(Simulator, TuplesLandOnTheirLocationNode) {
  auto links = link_facts(core::line_topology(3));
  Simulator sim(core::path_vector_program(), SimOptions{});
  sim.inject_all(links);
  sim.run();
  // Node n0's database only holds tuples whose location attribute is n0.
  // Original predicates locate at field 0; localization-generated copies
  // ("_sh_") carry their '@' elsewhere, so check them via the program's own
  // catalog.
  auto catalog =
      ndlog::Catalog::from_program(runtime::localize(core::path_vector_program()));
  const auto& db = sim.database("n0");
  for (const auto& pred : db.predicates()) {
    const std::size_t loc = catalog.loc_index(pred);
    for (const auto& t : db.relation(pred)) {
      EXPECT_EQ(t.at(loc).as_addr(), "n0") << t.to_string();
    }
  }
}

TEST(Simulator, MessageCountsGrowWithTopologySize) {
  std::size_t last = 0;
  for (std::size_t n : {4u, 8u, 16u}) {
    Simulator sim(core::path_vector_program(), SimOptions{});
    sim.inject_all(link_facts(core::line_topology(n)));
    auto stats = sim.run();
    EXPECT_TRUE(stats.quiesced);
    EXPECT_GT(stats.messages_sent, last);
    last = stats.messages_sent;
  }
}

TEST(Simulator, LossyLinksDropMessages) {
  SimOptions options;
  options.loss_rate = 0.3;
  options.seed = 7;
  Simulator sim(core::path_vector_program(), options);
  sim.inject_all(link_facts(core::full_mesh_topology(5)));
  auto stats = sim.run();
  EXPECT_GT(stats.messages_dropped, 0u);
  EXPECT_LT(stats.messages_dropped, stats.messages_sent);
}

TEST(Simulator, RuntimeMonitorFlagsViolations) {
  // Monitor asserting all path costs stay below 3 — violated on a longer line.
  std::size_t violations = 0;
  SimOptions options;
  options.tuple_events = [&violations](std::string_view kind, const std::string&,
                                       const Tuple& t, double) {
    if (kind == "install" && t.predicate() == "path" && t.at(3).as_int() >= 3) {
      ++violations;
    }
  };
  Simulator sim(core::path_vector_program(), options);
  sim.inject_all(link_facts(core::line_topology(6)));
  sim.run();
  EXPECT_GT(violations, 0u);
}

TEST(Simulator, PolicyPathVectorRunsDistributed) {
  auto program = core::policy_path_vector_program();
  std::vector<Tuple> facts;
  for (std::size_t i = 0; i < 4; ++i) {
    facts.emplace_back("node", std::vector<Value>{Value::addr(core::node_name(i))});
  }
  auto links = core::line_topology(4);
  for (const auto& t : link_facts(links)) facts.push_back(t);
  for (const auto& l : links) {
    facts.emplace_back("importPref", std::vector<Value>{Value::addr(l.src), Value::addr(l.dst),
                                                        Value::integer(100)});
  }
  Simulator sim(program, SimOptions{});
  sim.inject_all(facts);
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  // n0 has a best route to every other node.
  const auto& db = sim.database("n0");
  std::set<std::string> dests;
  for (const auto& t : db.relation("bestRoute")) dests.insert(t.at(1).as_addr());
  EXPECT_EQ(dests.size(), 4u);  // n0..n3 including self-origination
}

TEST(Simulator, SoftStateExpiresWithoutRefresh) {
  // A soft-state link table with 1s lifetime and no refresh: derived state is
  // built, then the base tuples expire.
  auto program = ndlog::parse_program(R"(
    materialize(link, 1, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    a1 reach(@S,D) :- link(@S,D,C).
  )",
                                      "soft");
  Simulator sim(program, SimOptions{});
  sim.inject_all(link_facts(core::line_topology(2)));
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  EXPECT_EQ(stats.expirations, 2u);  // the two injected links expired
  EXPECT_EQ(sim.database("n0").size("link"), 0u);
  // Derived hard state persists (no cascading revision — P2 semantics).
  EXPECT_EQ(sim.database("n0").size("reach"), 1u);
}

TEST(Simulator, PeriodicRefreshKeepsSoftStateAlive) {
  // periodic(@N,I) re-derives a soft heartbeat; with refresh the tuple
  // survives well past its lifetime.
  auto program = ndlog::parse_program(R"(
    materialize(alive, 2, infinity, keys(1)).
    p1 alive(@N) :- periodic(@N,I).
  )",
                                      "heartbeat");
  SimOptions options;
  options.max_periodic_rounds = 10;
  options.periodic_interval = 1.0;
  Simulator sim(program, options);
  sim.add_node("n0");
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  // Refreshed at t=1..10, lifetime 2: alive until t=12; final expiry fires.
  EXPECT_EQ(sim.database("n0").size("alive"), 0u);
  EXPECT_GE(stats.end_time, 11.9);
  EXPECT_EQ(stats.expirations, 1u);  // only the last refresh actually expires
}

TEST(Simulator, RetractRemovesBaseTuple) {
  Simulator sim(core::reachable_program(), SimOptions{});
  auto links = link_facts(core::line_topology(3));
  sim.inject_all(links);
  sim.retract(links[0], 5.0);  // n0->n1 fails at t=5
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  EXPECT_FALSE(sim.database("n0").contains(links[0]));
}

TEST(Simulator, RetractRefreshesAggregate) {
  // A retraction settles the node's aggregates at once: the minimum moves
  // to the surviving row even though no later delivery reaches the node.
  auto program = ndlog::parse_program(R"(
    materialize(e, infinity, infinity, keys(1,2)).
    materialize(m, infinity, infinity, keys(1)).
    a1 m(@S,min<C>) :- e(@S,C).
  )",
                                      "retract_min");
  const auto e = [](std::int64_t c) {
    return Tuple("e", {Value::addr("a"), Value::integer(c)});
  };
  Simulator sim(program, SimOptions{});
  sim.inject_all({e(1), e(2)});
  sim.retract(e(1), 5.0);
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  EXPECT_EQ(sim.database("a").dump(), (std::vector<std::string>{"e(a,2)", "m(a,2)"}));
}

TEST(Simulator, NodesComeIntoBeingWhenTheirFirstEventPops) {
  // Injecting a fact creates its node; scheduling a retraction or a send
  // does not: the node appears when its first event pops. So `periodic`
  // pre-scheduling covers only the nodes injected before run(), a
  // retraction at a node with no facts leaves it empty, and a message still
  // in flight when the run stops creates nothing.
  auto program = ndlog::parse_program(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hello, infinity, infinity, keys(1,2)).
    materialize(tick, 0.5, infinity, keys(1)).
    h1 hello(@D,S) :- link(@S,D,_C).
    t1 tick(@N,I) :- periodic(@N,I).
  )",
                                      "node_timing");
  const auto link = [](const char* s, const char* d) {
    return Tuple("link", {Value::addr(s), Value::addr(d), Value::integer(1)});
  };
  std::map<std::string, int> ticks;  // tick installs, one per periodic delivery
  SimOptions options;
  options.max_periodic_rounds = 3;
  options.periodic_interval = 1.0;
  options.max_time = 50.0;
  options.tuple_events = [&ticks](std::string_view kind, const std::string& node,
                                  const Tuple& tuple, double) {
    if (kind == "install" && tuple.predicate() == "tick") ++ticks[node];
  };
  Simulator sim(program, options);
  sim.set_link_delay("a", "d", 100.0);  // hello(@d,a) lands after max_time
  sim.inject_all({link("a", "b"), link("b", "a"), link("a", "d")});
  sim.retract(link("c", "a"), 0.5);
  EXPECT_EQ(sim.nodes(), (std::vector<std::string>{"a", "b"}));
  const auto stats = sim.run();
  EXPECT_FALSE(stats.quiesced);  // stopped at the message to d
  EXPECT_EQ(sim.nodes(), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(sim.database("c").dump(), std::vector<std::string>{});
  EXPECT_EQ(ticks, (std::map<std::string, int>{{"a", 3}, {"b", 3}}));
  EXPECT_EQ(sim.database("a").dump(),
            (std::vector<std::string>{"hello(a,b)", "link(a,b,1)", "link(a,d,1)"}));
}

TEST(Simulator, DeterministicUnderSeed) {
  auto run_once = [](std::uint64_t seed) {
    SimOptions options;
    options.seed = seed;
    options.loss_rate = 0.1;
    Simulator sim(core::path_vector_program(), options);
    sim.inject_all(link_facts(core::random_topology(6, 4, 5)));
    auto stats = sim.run();
    return std::make_pair(stats.messages_sent, sim.merged_database().dump());
  };
  auto a = run_once(11);
  auto b = run_once(11);
  auto c = run_once(12);
  EXPECT_EQ(a, b);
  EXPECT_TRUE(a == c || !(a == c));  // c may differ; just exercise it
}

TEST(Simulator, ConvergenceTimeGrowsWithDiameter) {
  double last = 0.0;
  for (std::size_t n : {4u, 8u, 16u}) {
    Simulator sim(core::path_vector_program(), SimOptions{});
    sim.inject_all(link_facts(core::line_topology(n)));
    auto stats = sim.run();
    EXPECT_TRUE(stats.quiesced);
    EXPECT_GT(stats.last_change_time, last);
    last = stats.last_change_time;
  }
}


TEST(Simulator, LayerSplitCoversTheRun) {
  // Every layer of a 16-node path-vector run takes time, and the exclusive
  // layers account for (nearly) all of run()'s wall time.
  obs::Registry metrics;
  SimOptions options;
  options.metrics = &metrics;
  Simulator sim(core::path_vector_program(), options);
  sim.inject_all(link_facts(core::random_topology(16, 6, 7)));
  ASSERT_TRUE(sim.run().quiesced);
  const obs::Timer* run = metrics.find_timer("sim/run");
  ASSERT_NE(run, nullptr);
  std::uint64_t layers = 0;
  for (const char* name : runtime::LayerClock::kNames) {
    const obs::Timer* layer = metrics.find_timer(std::string("sim/layer/") + name);
    ASSERT_NE(layer, nullptr) << name;
    EXPECT_GT(layer->total_ns(), 0u) << name;
    layers += layer->total_ns();
  }
  EXPECT_LE(layers, run->total_ns());
  EXPECT_GE(static_cast<double>(layers), 0.9 * static_cast<double>(run->total_ns()));
}

// ---------------------------------------------------------------------------
// runtime::NodeCore keyed overwrite and the key index
// ---------------------------------------------------------------------------

const char* change_name(runtime::NodeCore::Change change) {
  using Change = runtime::NodeCore::Change;
  switch (change) {
    case Change::Remote: return "remote";
    case Change::Install: return "install";
    case Change::Retract: return "retract";
    case Change::Expire: return "expire";
    case Change::Refresh: return "refresh";
  }
  return "?";
}

/// One core, node n0, over `source` localized and planned as the runtimes
/// do, logging every change it reports as "<change> <tuple>".
struct CoreRig {
  explicit CoreRig(const std::string& source)
      : program(runtime::localize(ndlog::parse_program(source, "core_test"))),
        catalog(ndlog::Catalog::from_program(program)),
        plan(runtime::checked_plan(program, /*require_stratified=*/true, {})),
        preds(catalog),
        core("n0", plan, preds, nullptr,
             [this](const runtime::NodeCore&, runtime::NodeCore::Change change,
                    const Tuple& tuple) {
               log.push_back(std::string(change_name(change)) + " " + tuple.to_string());
             }) {}

  /// The changes since the last call.
  std::vector<std::string> take() { return std::exchange(log, {}); }

  ndlog::Program program;
  ndlog::Catalog catalog;
  dataflow::Plan plan;
  runtime::PredTable preds;
  std::vector<std::string> log;
  runtime::NodeCore core;
};

using Log = std::vector<std::string>;

Tuple path(const char* s, const char* d, std::vector<const char*> hops, std::int64_t c) {
  std::vector<Value> p;
  for (const char* h : hops) p.push_back(Value::addr(h));
  return Tuple("path", {Value::addr(s), Value::addr(d), Value::list(std::move(p)),
                        Value::integer(c)});
}

Tuple beat(const char* x, std::int64_t v) {
  return Tuple("beat", {Value::addr("n0"), Value::addr(x), Value::integer(v)});
}

TEST(NodeCore, ListValuedKeyOverwritesOnlyItsOwnPath) {
  CoreRig rig(R"(
    materialize(path, infinity, infinity, keys(1,2,3)).
    materialize(seen, infinity, infinity, keys(1,2)).
    s1 seen(@S,D) :- path(@S,D,P,C).
  )");
  rig.core.deliver(path("n0", "n1", {"n0", "n1"}, 5), 0.0);
  EXPECT_EQ(rig.take(), (Log{"install path(n0,n1,[n0,n1],5)", "install seen(n0,n1)"}));
  // A new cost for the same (S,D,P): retract the old row, install the new.
  rig.core.deliver(path("n0", "n1", {"n0", "n1"}, 3), 0.0);
  EXPECT_EQ(rig.take(),
            (Log{"retract path(n0,n1,[n0,n1],5)", "install path(n0,n1,[n0,n1],3)"}));
  EXPECT_EQ(rig.core.overwrites(), 1u);
  // Another P is another slot.
  rig.core.deliver(path("n0", "n1", {"n0", "n2", "n1"}, 7), 0.0);
  EXPECT_EQ(rig.take(), (Log{"install path(n0,n1,[n0,n2,n1],7)"}));
  EXPECT_EQ(rig.core.overwrites(), 1u);
  EXPECT_EQ(rig.core.database().dump(),
            (std::vector<std::string>{"path(n0,n1,[n0,n1],3)", "path(n0,n1,[n0,n2,n1],7)",
                                      "seen(n0,n1)"}));
}

TEST(NodeCore, DuplicateDerivesNothingButRefreshesItsLifetime) {
  CoreRig rig(R"(
    materialize(beat, 10, infinity, keys(1,2)).
    materialize(seen, infinity, infinity, keys(1,2)).
    b1 seen(@S,X) :- beat(@S,X,V).
  )");
  rig.core.deliver(beat("a", 1), 0.0);
  EXPECT_EQ(rig.take(),
            (Log{"refresh beat(n0,a,1)", "install beat(n0,a,1)", "install seen(n0,a)"}));
  EXPECT_EQ(rig.core.expiry(beat("a", 1)), 10.0);
  rig.core.deliver(beat("a", 1), 4.0);
  EXPECT_EQ(rig.take(), (Log{"refresh beat(n0,a,1)"}));
  EXPECT_EQ(rig.core.expiry(beat("a", 1)), 14.0);
  EXPECT_EQ(rig.core.overwrites(), 0u);
}

TEST(NodeCore, RetractThenRedeliveryIsAFreshInstall) {
  CoreRig rig(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(reach, infinity, infinity, keys(1,2)).
    r1 reach(@S,D) :- link(@S,D,C).
  )");
  const auto link = [](std::int64_t c) {
    return Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(c)});
  };
  rig.core.deliver(link(1), 0.0);
  EXPECT_EQ(rig.take(), (Log{"install link(n0,n1,1)", "install reach(n0,n1)"}));
  // Another row of the same slot is not stored, so it is not retracted.
  rig.core.retract(link(9));
  EXPECT_TRUE(rig.take().empty());
  rig.core.retract(link(1));
  EXPECT_EQ(rig.take(), (Log{"retract link(n0,n1,1)"}));
  rig.core.retract(link(1));
  EXPECT_TRUE(rig.take().empty());
  // The slot is free again: no overwrite, no Retract. reach(n0,n1) stayed
  // (no cascade), so the derivation is a duplicate.
  rig.core.deliver(link(1), 1.0);
  EXPECT_EQ(rig.take(), (Log{"install link(n0,n1,1)"}));
  EXPECT_EQ(rig.core.overwrites(), 0u);
}

TEST(NodeCore, ExpireAfterOverwriteHonoursOnlyTheNewRowsLatestRefresh) {
  CoreRig rig("materialize(beat, 10, infinity, keys(1,2)).\n");
  rig.core.deliver(beat("a", 1), 0.0);
  rig.core.deliver(beat("a", 2), 3.0);
  EXPECT_EQ(rig.take(), (Log{"refresh beat(n0,a,1)", "install beat(n0,a,1)",
                             "retract beat(n0,a,1)", "refresh beat(n0,a,2)",
                             "install beat(n0,a,2)"}));
  EXPECT_EQ(rig.core.expiry(beat("a", 2)), 13.0);
  // The overwritten row's expiry is void; the new row is not due yet.
  EXPECT_FALSE(rig.core.expire(beat("a", 1), 10.0));
  EXPECT_FALSE(rig.core.expire(beat("a", 2), 10.0));
  rig.core.deliver(beat("a", 2), 5.0);
  EXPECT_EQ(rig.take(), (Log{"refresh beat(n0,a,2)"}));
  EXPECT_FALSE(rig.core.expire(beat("a", 2), 13.0));  // superseded by the refresh
  EXPECT_TRUE(rig.take().empty());
  EXPECT_TRUE(rig.core.expire(beat("a", 2), 15.0));
  EXPECT_EQ(rig.take(), (Log{"expire beat(n0,a,2)"}));
  EXPECT_TRUE(rig.core.database().dump().empty());
  // The slot left with the row.
  rig.core.deliver(beat("a", 3), 20.0);
  EXPECT_EQ(rig.take(), (Log{"refresh beat(n0,a,3)", "install beat(n0,a,3)"}));
  EXPECT_EQ(rig.core.overwrites(), 1u);
}

TEST(NodeCore, RestoredRowIsOverwrittenByADelivery) {
  CoreRig rig("materialize(route, infinity, infinity, keys(1,2)).\n");
  const auto route = [](const char* d, std::int64_t c) {
    return Tuple("route", {Value::addr("n0"), Value::addr(d), Value::integer(c)});
  };
  const std::vector<Tuple> rows = {route("n1", 5), route("n2", 7)};
  rig.core.restore(std::vector<const Tuple*>{&rows[0], &rows[1]});
  EXPECT_TRUE(rig.take().empty());
  rig.core.deliver(route("n1", 3), 0.0);
  EXPECT_EQ(rig.take(), (Log{"retract route(n0,n1,5)", "install route(n0,n1,3)"}));
  EXPECT_EQ(rig.core.overwrites(), 1u);
  EXPECT_EQ(rig.core.database().dump(),
            (std::vector<std::string>{"route(n0,n1,3)", "route(n0,n2,7)"}));
}

TEST(NodeCore, RestoreOrderDoesNotDecideADelivery) {
  // trig joins both cand rows, and pick keeps one row per node, so the
  // cand row the join meets last wins. restore installs in tuple order,
  // whatever order it is handed, so both cores pick the same row.
  const char* source = R"(
    materialize(trig, infinity, infinity, keys(1)).
    materialize(cand, infinity, infinity, keys(1,2)).
    materialize(pick, infinity, infinity, keys(1)).
    p1 pick(@N,X) :- trig(@N), cand(@N,X).
  )";
  const auto cand = [](std::int64_t x) {
    return Tuple("cand", {Value::addr("n0"), Value::integer(x)});
  };
  const std::vector<Tuple> rows = {cand(1), cand(2)};
  CoreRig ascending(source);
  CoreRig descending(source);
  ascending.core.restore(std::vector<const Tuple*>{&rows[0], &rows[1]});
  descending.core.restore(std::vector<const Tuple*>{&rows[1], &rows[0]});
  const Tuple trig("trig", {Value::addr("n0")});
  ascending.core.deliver(trig, 0.0);
  descending.core.deliver(trig, 0.0);
  EXPECT_EQ(ascending.take(), descending.take());
  EXPECT_EQ(ascending.core.database().dump(), descending.core.database().dump());
  EXPECT_EQ(ascending.core.overwrites(), 1u);
  EXPECT_EQ(descending.core.overwrites(), 1u);
}

TEST(KeyIndex, EveryKeyFieldFeedsTheHashAndTheIdentity) {
  const auto program = ndlog::parse_program(R"(
    materialize(path, infinity, infinity, keys(1,2,3)).
    w1 walk(@S,D,C) :- path(@S,D,P,C).
  )",
                                            "key_index");
  const auto catalog = ndlog::Catalog::from_program(program);
  const runtime::PredTable preds(catalog);
  const auto row = [&](const Tuple& t) { return runtime::KeyedRow(t, preds.info(t.predicate())); };
  const auto same_slot = [](const runtime::KeyedRow& a, const runtime::KeyedRow& b) {
    return a.hash == b.hash && runtime::KeyEq{}(a, b);
  };
  const Tuple base = path("n0", "n1", {"n0", "n1"}, 5);
  // Each declared key field, changed alone, moves the row to another slot.
  for (const Tuple& other :
       {path("n2", "n1", {"n0", "n1"}, 5), path("n0", "n2", {"n0", "n1"}, 5),
        path("n0", "n1", {"n0", "n2", "n1"}, 5)}) {
    EXPECT_NE(row(base).hash, row(other).hash) << other.to_string();
    EXPECT_FALSE(runtime::KeyEq{}(row(base), row(other))) << other.to_string();
  }
  // The cost is not part of the key.
  EXPECT_TRUE(same_slot(row(base), row(path("n0", "n1", {"n0", "n1"}, 9))));
  // No declared key: the whole tuple is the key.
  const auto walk = [](std::int64_t c) {
    return Tuple("walk", {Value::addr("n0"), Value::addr("n1"), Value::integer(c)});
  };
  EXPECT_TRUE(same_slot(row(walk(1)), row(walk(1))));
  EXPECT_NE(row(walk(1)).hash, row(walk(2)).hash);
  EXPECT_FALSE(runtime::KeyEq{}(row(walk(1)), row(walk(2))));
}

}  // namespace
}  // namespace fvn
