// LTL cross-validation: the model-checker verdict and the runtime-monitor
// verdict must agree on every shipped example, on the simulator and on the
// cluster over both transports. Each example carries a satisfied spec
// (examples/ndlog/<name>.ltl) and a deliberately violated one
// (<name>_violated.ltl) that must fail on *every* schedule — proving the
// monitors actually fire, not merely that satisfied specs pass.
//
// Also pins the engine-agnostic tuple-event stream of both runtimes' live
// hook, and the simulator's cat "tuple" obs instants that mirror it: folding
// install/retract/expire over the stream must reproduce each runtime's final
// per-node database exactly.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <set>
#include <sstream>

#include "crossval_instances.hpp"
#include "ltl/checker.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::filesystem::path example_dir() {
  return std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
}

struct Case {
  std::string name;
  ndlog::Program program;
  ltl::Spec spec;           // satisfied on every schedule
  ltl::Spec violated_spec;  // violated on every schedule
  std::vector<Tuple> facts;
};

std::vector<Case> load_cases() {
  std::vector<Case> cases;
  for (const auto& [name, f] : crossval::example_facts()) {
    Case c;
    c.name = name;
    c.program = crossval::example_program(name);
    c.spec = ltl::parse_spec(slurp(example_dir() / (name + ".ltl")),
                             name + ".ltl");
    c.violated_spec = ltl::parse_spec(
        slurp(example_dir() / (name + "_violated.ltl")), name + "_violated.ltl");
    c.facts = f;
    EXPECT_FALSE(c.spec.properties.empty()) << name;
    EXPECT_FALSE(c.violated_spec.properties.empty()) << name;
    cases.push_back(std::move(c));
  }
  return cases;
}

// Run the spec's monitors over a simulator execution via the live hook.
std::vector<ltl::MonitorVerdict> sim_monitor_verdicts(const Case& c,
                                                      const ltl::Spec& spec) {
  ltl::MonitorSet monitors(spec);
  runtime::SimOptions options;
  options.tuple_events = [&monitors](std::string_view kind,
                                     const std::string& node_name,
                                     const Tuple& tuple, double now) {
    monitors.on_event(ltl::tuple_event(kind, node_name, tuple, now));
  };
  runtime::Simulator sim(c.program, options);
  sim.inject_all(c.facts);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced) << c.name;
  EXPECT_GT(monitors.events(), 0u) << c.name;
  return monitors.finish();
}

// Run the spec's monitors over a cluster execution via the live hook.
std::vector<ltl::MonitorVerdict> cluster_monitor_verdicts(
    const Case& c, const ltl::Spec& spec, net::ClusterOptions options) {
  ltl::MonitorSet monitors(spec);
  std::mutex mu;
  options.tuple_events = [&monitors, &mu](std::string_view kind,
                                          const std::string& node_name,
                                          const Tuple& tuple, double now) {
    const std::lock_guard<std::mutex> lock(mu);
    monitors.on_event(ltl::tuple_event(kind, node_name, tuple, now));
  };
  net::Cluster cluster(c.program, options);
  cluster.inject_all(c.facts);
  const auto stats = cluster.run();
  EXPECT_TRUE(stats.quiesced) << c.name;
  EXPECT_GT(monitors.events(), 0u) << c.name;
  return monitors.finish();
}

void expect_all_satisfied(const std::vector<ltl::MonitorVerdict>& verdicts,
                          const std::string& context) {
  for (const auto& v : verdicts) {
    EXPECT_TRUE(v.satisfied) << context << ": " << v.property << ": " << v.formula;
  }
}

void expect_all_fired(const std::vector<ltl::MonitorVerdict>& verdicts,
                      const std::string& context) {
  for (const auto& v : verdicts) {
    EXPECT_FALSE(v.satisfied) << context << ": " << v.property;
    EXPECT_TRUE(v.fired) << context << ": " << v.property
                         << " (violated specs are safety-shaped: the monitor "
                            "must fire mid-trace, not just at finish)";
    EXPECT_GT(v.violation_event, 0u) << context << ": " << v.property;
  }
}

// ---------------------------------------------------------------------------
// Model checker: satisfied specs hold exhaustively, violated specs produce
// lasso counterexamples with full snapshots.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, ModelCheckerVerdicts) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    mc::NdlogTransitionSystem ts(c.program);
    const auto initial = ts.initial(c.facts);

    const auto sat = ltl::check_ltl(ts, initial, c.spec);
    EXPECT_TRUE(sat.all_hold());
    EXPECT_TRUE(sat.exhausted());

    const auto viol = ltl::check_ltl(ts, initial, c.violated_spec);
    for (const auto& p : viol.properties) {
      EXPECT_FALSE(p.holds) << p.name;
      EXPECT_FALSE(p.stem.empty()) << p.name;
      EXPECT_FALSE(p.cycle.empty()) << p.name;
      // Full snapshots: some stem state has stored tuples.
      EXPECT_FALSE(p.stem.back().state.stored.empty()) << p.name;
      EXPECT_FALSE(ltl::render_counterexample(p).empty());
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator monitors agree with the model checker.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, SimulatorMonitorsAgreeBothEngines) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    expect_all_satisfied(sim_monitor_verdicts(c, c.spec), c.name);
    expect_all_fired(sim_monitor_verdicts(c, c.violated_spec), c.name);
  }
}

// ---------------------------------------------------------------------------
// Cluster monitors agree too — threaded nodes, real transports.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, ClusterMonitorsAgreeInprocBothEngines) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    expect_all_satisfied(cluster_monitor_verdicts(c, c.spec, {}), c.name + "/inproc");
    expect_all_fired(cluster_monitor_verdicts(c, c.violated_spec, {}),
                     c.name + "/inproc");
  }
}

TEST(LtlCrossval, ClusterMonitorsAgreeUdp) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    net::ClusterOptions options;
    options.transport = net::TransportKind::Udp;
    try {
      expect_all_satisfied(cluster_monitor_verdicts(c, c.spec, options),
                           c.name + "/udp");
      expect_all_fired(cluster_monitor_verdicts(c, c.violated_spec, options),
                       c.name + "/udp");
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Programs on which a checker with its own node semantics verdicted
// differently from the runtimes.
// ---------------------------------------------------------------------------

TEST(LtlCrossval, IntermediateAggregateNeverShipsVerdictsAgree) {
  auto instance = crossval::intermediate_aggregate();
  Case c;
  c.name = "intermediate_aggregate";
  c.program = std::move(instance.program);
  c.facts = std::move(instance.facts);
  c.spec = ltl::parse_spec("never_two: G !got(@b, a, 2).\n", "never_two.ltl");

  mc::NdlogTransitionSystem ts(c.program);
  const auto verdict = ltl::check_ltl(ts, ts.initial(c.facts), c.spec);
  ASSERT_EQ(verdict.properties.size(), 1u);
  EXPECT_TRUE(verdict.properties[0].holds) << ltl::render_counterexample(verdict.properties[0]);
  EXPECT_TRUE(verdict.exhausted());
  expect_all_satisfied(sim_monitor_verdicts(c, c.spec), "simulator");
  expect_all_satisfied(cluster_monitor_verdicts(c, c.spec, {}), "cluster");
}

TEST(LtlCrossval, SendFilterKeepsMessagesAnOverwriteCanUndo) {
  // The checker must find the schedule that ends on val(b,1), and a
  // simulator with a slow d->b link must run it.
  const auto [program, facts] = crossval::send_filter();
  const auto spec = ltl::parse_spec("settles_on_two: F G val(@b, 2).\n", "settles.ltl");

  mc::NdlogTransitionSystem ts(program);
  const auto verdict = ltl::check_ltl(ts, ts.initial(facts), spec);
  ASSERT_EQ(verdict.properties.size(), 1u);
  EXPECT_FALSE(verdict.properties[0].holds);

  ltl::MonitorSet monitors(spec);
  runtime::SimOptions options;
  options.tuple_events = [&monitors](std::string_view kind, const std::string& node_name,
                                     const Tuple& tuple, double now) {
    monitors.on_event(ltl::tuple_event(kind, node_name, tuple, now));
  };
  runtime::Simulator sim(program, options);
  sim.set_link_delay("d", "b", 0.05);
  sim.inject_all(facts);
  EXPECT_TRUE(sim.run().quiesced);
  EXPECT_TRUE(sim.database("b").contains(Tuple("val", {Value::addr("b"), Value::integer(1)})));
  EXPECT_FALSE(monitors.all_satisfied());
}

TEST(LtlCrossval, ListConstantPatternVerdictsAgree) {
  // A pattern names a stored path vector by its list constant.
  Case c;
  c.name = "list_constant";
  c.program = ndlog::parse_program(
      "r1 route(@D,P,C) :- link(@S,D,_X), P=f_init(S,D), C=1.\n", "list_constant");
  c.facts = {ndlog::parse_fact("link(@a,b,3)")};
  c.spec = ltl::parse_spec("p1: F G route(@b,[a,b],1).\n", "route.ltl");

  mc::NdlogTransitionSystem ts(c.program);
  const auto verdict = ltl::check_ltl(ts, ts.initial(c.facts), c.spec);
  ASSERT_EQ(verdict.properties.size(), 1u);
  EXPECT_TRUE(verdict.properties[0].holds) << ltl::render_counterexample(verdict.properties[0]);
  EXPECT_TRUE(verdict.exhausted());
  expect_all_satisfied(sim_monitor_verdicts(c, c.spec), "simulator");
}

// ---------------------------------------------------------------------------
// Tuple-event streams: folding either runtime's live stream reproduces its
// final databases exactly, and the simulator's obs instants decode back to
// its live stream.
// ---------------------------------------------------------------------------

using Folded = std::map<std::string, std::multiset<std::string>>;

template <typename Events>
Folded fold(const Events& events) {
  Folded db;
  for (const auto& e : events) {
    auto& rel = db[e.node];
    const std::string text = e.tuple.to_string();
    if (e.kind == ltl::TupleEvent::Kind::Install) {
      rel.insert(text);
    } else {
      const auto it = rel.find(text);
      if (it == rel.end()) {
        ADD_FAILURE() << "retract/expire of a tuple never installed at "
                      << e.node << ": " << text;
        continue;
      }
      rel.erase(it);
    }
  }
  return db;
}

void expect_folds_to(const Folded& folded,
                     const std::function<const ndlog::Database&(
                         const std::string&)>& database,
                     const std::vector<std::string>& nodes) {
  for (const auto& n : nodes) {
    std::multiset<std::string> expected;
    for (const auto& row : database(n).dump()) expected.insert(row);
    const auto it = folded.find(n);
    const std::multiset<std::string> got =
        it == folded.end() ? std::multiset<std::string>{} : it->second;
    EXPECT_EQ(got, expected) << "node " << n;
  }
}

TEST(LtlCrossval, SimulatorTupleStreamFoldsToDatabase) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    std::vector<ltl::TupleEvent> live;
    runtime::SimOptions options;
    options.tuple_events = [&live](std::string_view kind,
                                   const std::string& node_name,
                                   const Tuple& tuple, double now) {
      live.push_back(ltl::tuple_event(kind, node_name, tuple, now));
    };
    runtime::Simulator sim(c.program, options);
    sim.inject_all(c.facts);
    EXPECT_TRUE(sim.run().quiesced);

    const Folded folded = fold(live);
    expect_folds_to(
        folded,
        [&sim](const std::string& n) -> const ndlog::Database& {
          return sim.database(n);
        },
        sim.nodes());
  }
}

TEST(LtlCrossval, ClusterTupleStreamFoldsToDatabase) {
  for (const auto& c : load_cases()) {
    SCOPED_TRACE(c.name);
    // Node threads call the hook concurrently; a node's own events keep
    // their order under the mutex, and that is all a per-node fold needs.
    std::vector<ltl::TupleEvent> live;
    std::mutex mu;
    net::ClusterOptions options;
    options.tuple_events = [&live, &mu](std::string_view kind,
                                        const std::string& node_name,
                                        const Tuple& tuple, double now) {
      const std::lock_guard<std::mutex> lock(mu);
      live.push_back(ltl::tuple_event(kind, node_name, tuple, now));
    };
    net::Cluster cluster(c.program, options);
    cluster.inject_all(c.facts);
    EXPECT_TRUE(cluster.run().quiesced);
    EXPECT_FALSE(live.empty());
    const Folded folded = fold(live);
    expect_folds_to(
        folded,
        [&cluster](const std::string& n) -> const ndlog::Database& {
          return cluster.database(n);
        },
        cluster.nodes());
  }
}

}  // namespace
}  // namespace fvn
