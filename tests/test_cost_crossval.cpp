// Cross-validation of the static cost & cardinality analyzer (DESIGN.md §13)
// against actual executions — the falsifiability contract of cost.hpp:
//
//   * per-rule firing bounds must dominate the evaluator's measured
//     eval/rule/<r>/firings counters on every shipped example;
//   * per-predicate derivation bounds must dominate final relation sizes;
//   * the simulator's per-strand head-emission counters must stay within
//     the same firing bounds (one static model for both executors);
//   * the per-rule wire-byte bounds must dominate the threaded cluster's
//     net/node/<n>/bytes_sent counters on a lossless transport;
//   * every ND0019/ND0020/ND0021 verdict must be witnessed at runtime:
//     a cheaper join order must actually reduce dataflow work without
//     changing the fixpoint, an unbounded-message rule must actually exhaust
//     an event budget a bounded program respects, and a recompute-heavy
//     aggregate must actually be maintainable incrementally;
//   * the planner's cost-guided join-order mode must stay bit-identical to
//     the written-order fixpoint across the whole example matrix.
//
// Bounds are evaluated under an environment measured from the run itself:
// V = distinct addresses among the base facts, |pred| = injected base-table
// counts, A = a safe per-scalar wire-byte ceiling.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "ndlog/cost.hpp"
#include "ndlog/diagnostics.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Diagnostic;
using ndlog::DiagnosticSink;
using ndlog::Program;
using ndlog::Tuple;
using ndlog::cost::Bound;
using ndlog::cost::CostReport;
using ndlog::cost::RuleCost;

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

Program load_example(const std::string& stem) {
  return ndlog::parse_program(slurp(std::string(FVN_SOURCE_DIR) +
                             "/examples/ndlog/" + stem + ".ndlog"),
                       stem);
}

std::vector<Tuple> facts(const std::vector<std::string>& lines) {
  std::vector<Tuple> out;
  out.reserve(lines.size());
  for (const auto& l : lines) out.push_back(ndlog::parse_fact(l));
  return out;
}

CostReport cost_report(const Program& program,
                       std::vector<Diagnostic>* diags_out = nullptr) {
  DiagnosticSink sink;
  auto report = ndlog::cost::analyze(program, sink);
  if (diags_out != nullptr) *diags_out = sink.diagnostics();
  return report;
}

bool has_code(const std::vector<Diagnostic>& diags, std::string_view code) {
  for (const auto& d : diags) {
    if (d.code == code) return true;
  }
  return false;
}

/// Measured symbol environment: V from the base facts' address values,
/// |pred| from the injected counts, A a safe scalar wire-byte ceiling (the
/// codec never spends more than a few bytes on the short addresses and small
/// integers these runs use).
std::map<std::string, double> measured_env(const CostReport& report,
                                           const std::vector<Tuple>& base) {
  std::set<std::string> addrs;
  std::map<std::string, double> injected;
  for (const auto& t : base) {
    injected["|" + t.predicate() + "|"] += 1.0;
    for (const auto& v : t.values()) {
      if (v.is_addr()) addrs.insert(v.to_string());
    }
  }
  std::map<std::string, double> env;
  env["V"] = static_cast<double>(addrs.size());
  env["A"] = 64.0;
  for (const auto& p : report.predicates) {
    if (p.base) env["|" + p.predicate + "|"] = injected["|" + p.predicate + "|"];
  }
  return env;
}

struct Case {
  const char* stem;
  std::vector<std::string> base;
};

// A bidirectional triangle drives most examples (same witness topology the
// semantic cross-validation uses); link_state gets coarse costs so its
// C < 1000 recursion bottoms out after three hops, and distance_vector gets
// a directed line — on any cycle its hop counts genuinely diverge (that is
// ND0020's witness below, not a per-rule-bound scenario).
const std::vector<std::string> kTriangle = {
    "link(@n0,n1,1)", "link(@n1,n0,1)", "link(@n1,n2,1)",
    "link(@n2,n1,1)", "link(@n2,n0,2)", "link(@n0,n2,2)"};
const std::vector<std::string> kCoarseTriangle = {
    "link(@n0,n1,300)", "link(@n1,n0,300)", "link(@n1,n2,300)",
    "link(@n2,n1,300)", "link(@n2,n0,600)", "link(@n0,n2,600)"};
const std::vector<std::string> kNodes = {"node(@n0)", "node(@n1)", "node(@n2)"};
const std::vector<std::string> kPrefs = {
    "importPref(@n0,n1,100)", "importPref(@n0,n2,100)",
    "importPref(@n1,n0,100)", "importPref(@n1,n2,100)",
    "importPref(@n2,n0,100)", "importPref(@n2,n1,100)"};

std::vector<Case> example_cases() {
  std::vector<Case> cases;
  cases.push_back({"reachable", kTriangle});
  cases.push_back({"path_vector", kTriangle});
  cases.push_back({"link_state", kCoarseTriangle});
  {
    Case c{"spanning_tree", kTriangle};
    c.base.insert(c.base.end(), kNodes.begin(), kNodes.end());
    cases.push_back(c);
  }
  {
    Case c{"policy_path_vector", kTriangle};
    c.base.insert(c.base.end(), kNodes.begin(), kNodes.end());
    c.base.insert(c.base.end(), kPrefs.begin(), kPrefs.end());
    cases.push_back(c);
  }
  cases.push_back({"distance_vector", {"link(@n0,n1,1)", "link(@n1,n2,1)"}});
  return cases;
}

// ---------------------------------------------------------------------------
// Evaluator: measured firings and table sizes vs static bounds
// ---------------------------------------------------------------------------

TEST(CostBounds, EvaluatorFiringsAndTableSizesStayWithinStaticBounds) {
  for (const auto& c : example_cases()) {
    const auto program = load_example(c.stem);
    const auto report = cost_report(program);
    const auto base = facts(c.base);
    const auto env = measured_env(report, base);

    obs::Registry metrics;
    ndlog::EvalOptions options;
    options.max_iterations = 5000;
    options.metrics = &metrics;
    ndlog::Evaluator eval;
    const auto result = eval.run(program, base, options);

    for (const auto& rc : report.rules) {
      const auto* counter =
          metrics.find_counter("eval/rule/" + rc.rule + "/firings");
      const double measured =
          counter == nullptr ? 0.0 : static_cast<double>(counter->value());
      EXPECT_LE(measured, rc.firings.evaluate(env))
          << c.stem << " rule " << rc.rule << ": measured " << measured
          << " firings exceed static bound " << rc.firings.to_string();
    }
    for (const auto& pc : report.predicates) {
      const double measured =
          static_cast<double>(result.database.relation(pc.predicate).size());
      EXPECT_LE(measured, pc.derivations.evaluate(env))
          << c.stem << " predicate " << pc.predicate << ": " << measured
          << " tuples exceed static bound " << pc.derivations.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Simulator, dataflow engine: per-strand head emissions vs the same bounds
// ---------------------------------------------------------------------------

TEST(CostBounds, SimulatorDataflowEmissionsStayWithinStaticBounds) {
  for (const auto& c : example_cases()) {
    const auto program = load_example(c.stem);
    const auto report = cost_report(runtime::localize(program));
    const auto base = facts(c.base);
    const auto env = measured_env(report, base);

    obs::Registry metrics;
    runtime::SimOptions options;
    options.metrics = &metrics;
    runtime::Simulator sim(program, options);
    sim.inject_all(base);
    const auto stats = sim.run();
    EXPECT_TRUE(stats.quiesced) << c.stem;

    // Sum each rule's head emissions: the final element's /out counter of
    // every strand (normal and aggregate) carrying that rule label. One
    // emission == one enumerated body solution, the dataflow analogue of the
    // evaluator's firing counter.
    std::map<std::string, double> emitted;
    auto tally = [&](const dataflow::Strand& s) {
      if (s.elements.empty()) return;
      const std::string name = "dataflow/elem/" + s.rule_label + "[d" +
                               std::to_string(s.delta_position) + "]/" +
                               s.elements.back().id + "/out";
      const auto* counter = metrics.find_counter(name);
      if (counter != nullptr) {
        emitted[s.rule_label] += static_cast<double>(counter->value());
      }
    };
    for (const auto& s : sim.plan().strands) tally(s);
    for (const auto& agg : sim.plan().aggregates) {
      for (const auto& s : agg.strands) tally(s);
    }
    for (const auto& rc : report.rules) {
      const auto it = emitted.find(rc.rule);
      const double measured = it == emitted.end() ? 0.0 : it->second;
      EXPECT_LE(measured, rc.firings.evaluate(env))
          << c.stem << " rule " << rc.rule << ": " << measured
          << " dataflow emissions exceed static bound "
          << rc.firings.to_string();
    }
  }
}

// ---------------------------------------------------------------------------
// Threaded cluster: measured wire bytes vs the static byte bounds
// ---------------------------------------------------------------------------

TEST(CostBounds, ClusterWireBytesStayWithinStaticBounds) {
  for (const auto& c : example_cases()) {
    const auto program = load_example(c.stem);
    const auto report = cost_report(runtime::localize(program));
    const auto base = facts(c.base);
    const auto env = measured_env(report, base);
    const double byte_bound = report.total_bytes.evaluate(env);

    // Lossless in-process transport. The static model bounds first
    // transmissions, so the measure leaves out the protocol's own bytes:
    // acks and re-sent batches.
    const auto first_transmissions = [](const auto& books) {
      return static_cast<double>(books.bytes_sent - books.ack_bytes -
                                 books.retransmit_bytes);
    };
    net::Cluster cluster(program, net::ClusterOptions{});
    cluster.inject_all(base);
    const auto stats = cluster.run();
    EXPECT_TRUE(stats.quiesced) << c.stem;

    EXPECT_LE(first_transmissions(stats), byte_bound)
        << c.stem << ": " << first_transmissions(stats)
        << " first-transmission wire bytes exceed static bound "
        << report.total_bytes.to_string();
    for (const auto& node : cluster.nodes()) {
      EXPECT_LE(first_transmissions(cluster.node_stats(node)), byte_bound)
          << c.stem << " node " << node << ": channel bytes exceed bound";
    }
  }
}

// ---------------------------------------------------------------------------
// ND0019 witness: the cheaper order is real — applied by the planner where
// provably safe, same fixpoint, strictly less dataflow work
// ---------------------------------------------------------------------------

/// The written order scans every b-tuple per a-delta before the selective
/// c-probe can filter; the cheap order probes c's (S,X) key first. c's keys
/// functionally determine its third column, which is what makes the analyzer
/// rank the reorder strictly cheaper, and sel's all-column key is what makes
/// it provably safe to apply.
const char* kReorderProgram =
    "materialize(seed, infinity, infinity, keys(1)).\n"
    "materialize(a, infinity, infinity, keys(1,2)).\n"
    "materialize(b, infinity, infinity, keys(1,2)).\n"
    "materialize(c, infinity, infinity, keys(1,2)).\n"
    "materialize(sel, infinity, infinity, keys(1,2,3)).\n"
    "w1 sel(@S,X,Y) :- a(@S,X), b(@S,Y), c(@S,X,Y).\n";

std::vector<Tuple> reorder_facts(int n) {
  std::vector<Tuple> out;
  for (int i = 0; i < n; ++i) {
    const std::string x = "x" + std::to_string(i);
    out.push_back(ndlog::parse_fact("a(@n0," + x + ")"));
    out.push_back(ndlog::parse_fact("b(@n0," + x + ")"));
    out.push_back(ndlog::parse_fact("c(@n0," + x + "," + x + ")"));
  }
  return out;
}

std::string dataflow_fixpoint(const Program& program,
                              const std::vector<Tuple>& base, bool cost_order,
                              obs::Registry* metrics) {
  runtime::SimOptions options;
  options.cost_order = cost_order;
  options.metrics = metrics;
  runtime::Simulator sim(program, options);
  sim.inject_all(base);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  std::ostringstream os;
  for (const auto& row : sim.merged_database().dump()) os << row << "\n";
  return os.str();
}

/// Join work for one rule: every tuple entering a post-delta element.
double join_inputs(const obs::Registry& metrics, const std::string& label) {
  double total = 0.0;
  const std::string prefix = "dataflow/elem/" + label + "[";
  for (const auto& [name, counter] : metrics.counters()) {
    if (name.rfind(prefix, 0) == 0 && name.size() > 3 &&
        name.compare(name.size() - 3, 3, "/in") == 0) {
      total += static_cast<double>(counter.value());
    }
  }
  return total;
}

TEST(Nd0019Witness, CheaperOrderKeepsFixpointAndReducesDataflowWork) {
  const auto program = ndlog::parse_program(kReorderProgram, "reorder");
  std::vector<Diagnostic> diags;
  const auto report = cost_report(program, &diags);
  ASSERT_TRUE(has_code(diags, "ND0019")) << ndlog::render_human(diags);
  const auto* rc = report.rule_at(0);
  ASSERT_NE(rc, nullptr);
  EXPECT_TRUE(rc->reorder_safe);
  EXPECT_NE(rc->best_order, rc->order);
  EXPECT_TRUE(ndlog::cost::cheaper(rc->best_solutions, rc->solutions));

  // The planner applies the cheap order (the body is genuinely permuted).
  const auto baseline = dataflow::compile(runtime::localize(program));
  dataflow::PlanOptions opts;
  opts.cost_order = true;
  const auto reordered = dataflow::compile(runtime::localize(program), opts);
  EXPECT_FALSE(baseline.cost_ordered);
  EXPECT_TRUE(reordered.cost_ordered);
  // The cheap order keeps the selective a-scan first and hoists the c-probe
  // ahead of the b-scan, so the permutation shows at body position 1.
  EXPECT_NE(ndlog::to_string(baseline.program.rules.at(0).body.at(1)),
            ndlog::to_string(reordered.program.rules.at(0).body.at(1)));

  // Same fixpoint, strictly less join work.
  const auto base = reorder_facts(12);
  obs::Registry written_metrics;
  obs::Registry cheap_metrics;
  const auto written = dataflow_fixpoint(program, base, false, &written_metrics);
  const auto cheap = dataflow_fixpoint(program, base, true, &cheap_metrics);
  EXPECT_EQ(written, cheap);
  EXPECT_NE(written.find("sel(n0,x0,x0)"), std::string::npos) << written;
  const double written_work = join_inputs(written_metrics, "w1");
  const double cheap_work = join_inputs(cheap_metrics, "w1");
  EXPECT_LT(cheap_work, written_work)
      << "cost order did not reduce join work: " << cheap_work << " vs "
      << written_work;
}

TEST(Nd0019Witness, UnsafeReorderIsReportedButNeverApplied) {
  // path_vector's r4 has the cheaper order, but bestPath's keys drop a
  // non-determined column (ND0017): applying it could change which tuple
  // wins the overwrite race, so the planner must leave the body alone and
  // only report ND0019.
  const auto program = load_example("path_vector");
  std::vector<Diagnostic> diags;
  const auto report = cost_report(program, &diags);
  ASSERT_TRUE(has_code(diags, "ND0019")) << ndlog::render_human(diags);
  // The report still names the cheaper order (that is what ND0019 prints);
  // only the planner gate below refuses to apply it.
  bool saw_unsafe_cheaper = false;
  for (const auto& rc : report.rules) {
    if (!rc.reorder_safe &&
        ndlog::cost::cheaper(rc.best_solutions, rc.solutions)) {
      EXPECT_NE(rc.best_order, rc.order) << rc.rule;
      saw_unsafe_cheaper = true;
    }
  }
  EXPECT_TRUE(saw_unsafe_cheaper);
  // plan_orders hands the planner only identity permutations here.
  for (const auto& perm :
       ndlog::cost::plan_orders(runtime::localize(program))) {
    for (std::size_t i = 0; i < perm.size(); ++i) EXPECT_EQ(perm[i], i);
  }
}

// ---------------------------------------------------------------------------
// ND0020 witness: the unbounded-message rule actually floods a budget that
// bounded programs respect
// ---------------------------------------------------------------------------

TEST(Nd0020Witness, UnboundedMessageRuleExhaustsEventBudgetOnACycle) {
  const auto dv = load_example("distance_vector");
  std::vector<Diagnostic> dv_diags;
  const auto dv_report = cost_report(runtime::localize(dv), &dv_diags);
  ASSERT_TRUE(has_code(dv_diags, "ND0020")) << ndlog::render_human(dv_diags);
  EXPECT_TRUE(dv_report.total_messages.unbounded);

  const auto cycle =
      facts({"link(@n0,n1,1)", "link(@n1,n2,1)", "link(@n2,n0,1)"});
  runtime::SimOptions options;
  options.max_events = 20000;
  {
    runtime::Simulator sim(dv, options);
    sim.inject_all(cycle);
    const auto stats = sim.run();
    EXPECT_FALSE(stats.quiesced);  // the amplification is real
  }
  // Same topology, same budget: reachable (no ND0020, bounded messages)
  // quiesces with room to spare.
  const auto reach = load_example("reachable");
  std::vector<Diagnostic> reach_diags;
  const auto reach_report = cost_report(runtime::localize(reach), &reach_diags);
  EXPECT_FALSE(has_code(reach_diags, "ND0020"));
  EXPECT_FALSE(reach_report.total_messages.unbounded);
  runtime::Simulator sim(reach, options);
  sim.inject_all(cycle);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
}

// ---------------------------------------------------------------------------
// ND0021 witness: flagged aggregates really are incrementally maintainable
// ---------------------------------------------------------------------------

TEST(Nd0021Witness, FlaggedAggregatesPlanIncrementallyWithIdenticalFixpoint) {
  for (const char* stem :
       {"path_vector", "link_state", "spanning_tree", "policy_path_vector"}) {
    const auto program = load_example(stem);
    const auto localized = runtime::localize(program);
    std::vector<Diagnostic> diags;
    cost_report(localized, &diags);
    std::set<int> flagged;
    for (const auto& d : diags) {
      if (d.code == "ND0021") flagged.insert(d.rule_index);
    }
    ASSERT_FALSE(flagged.empty()) << stem;
    // The planner independently reaches the same verdict: every flagged rule
    // compiles to incremental view maintenance, not the recompute fallback.
    const auto plan = dataflow::compile(localized);
    for (const auto& agg : plan.aggregates) {
      if (flagged.count(static_cast<int>(agg.rule_index)) != 0) {
        EXPECT_TRUE(agg.incremental)
            << stem << " rule " << agg.rule_label << ": " << agg.mode_reason;
      }
    }
  }
  // And the incremental mode is exact: toggling the ablation knob cannot
  // change the fixpoint of the most aggregate-heavy example.
  const auto program = load_example("spanning_tree");
  auto base = facts(kTriangle);
  for (const auto& f : facts(kNodes)) base.push_back(f);
  auto run = [&](bool incremental) {
    runtime::SimOptions options;
    options.incremental_aggregates = incremental;
    runtime::Simulator sim(program, options);
    sim.inject_all(base);
    EXPECT_TRUE(sim.run().quiesced);
    std::ostringstream os;
    for (const auto& row : sim.merged_database().dump()) os << row << "\n";
    return os.str();
  };
  EXPECT_EQ(run(true), run(false));
}

// ---------------------------------------------------------------------------
// Cost-guided planning stays bit-identical across the example matrix
// ---------------------------------------------------------------------------

TEST(CostOrderDifferential, MatrixFixpointsAreBitIdenticalWithCostOrder) {
  for (const auto& c : example_cases()) {
    const auto program = load_example(c.stem);
    const auto base = facts(c.base);
    auto fixpoint = [&](bool cost_order) {
      runtime::SimOptions options;
      options.cost_order = cost_order;
      runtime::Simulator sim(program, options);
      sim.inject_all(base);
      EXPECT_TRUE(sim.run().quiesced) << c.stem;
      std::ostringstream os;
      for (const auto& row : sim.merged_database().dump()) os << row << "\n";
      return os.str();
    };
    EXPECT_EQ(fixpoint(false), fixpoint(true))
        << c.stem << ": cost-ordered plan changed the fixpoint";
  }
}

}  // namespace
}  // namespace fvn
