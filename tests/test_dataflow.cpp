// fvn::dataflow tests: planner structure (strands, probe selection, dead
// strands, key-bound joins after the delta, DOT/JSON dumps) and the
// differential suite pinning the engine's contract against the centralized
// ndlog::RuleEngine — per delta the same derivations in the same order, per
// flush deltas in group-key order that maintain the same aggregate view,
// and the same delta log from both planner modes — on every shipped example
// program, under loss and reordering, for a soft-state/periodic protocol
// with a retraction, and for an atom whose key the delta binds only in part.
#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <random>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocols.hpp"
#include "dataflow/engine.hpp"
#include "dataflow/plan.hpp"
#include "ndlog/builtins.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "obs/metrics.hpp"
#include "runtime/localize.hpp"
#include "runtime/pred_table.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using core::link_facts;
using dataflow::Element;
using ndlog::Tuple;
using ndlog::Value;
using runtime::SimOptions;
using runtime::SimStats;
using runtime::Simulator;

// ---------------------------------------------------------------------------
// Planner structure
// ---------------------------------------------------------------------------

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

dataflow::Plan plan_of(const std::string& source,
                       const dataflow::PlanOptions& options = {}) {
  auto program = ndlog::parse_program(source, "plan_test");
  return dataflow::compile(runtime::localize(program), options);
}

const dataflow::Strand* find_strand(const dataflow::Plan& plan,
                                    const std::string& rule_label,
                                    std::size_t delta_position) {
  for (const auto& s : plan.strands) {
    if (s.rule_label == rule_label && s.delta_position == delta_position) return &s;
  }
  return nullptr;
}

std::vector<Element::Kind> kinds_of(const dataflow::Strand& strand) {
  std::vector<Element::Kind> kinds;
  for (const auto& e : strand.elements) kinds.push_back(e.kind);
  return kinds;
}

TEST(Planner, OneStrandPerPositiveAtomPosition) {
  // Localized path-vector: r2 becomes {link, path_sh_r2_1} + ship rule.
  auto plan = plan_of(core::path_vector_source());
  std::map<std::string, std::size_t> per_rule;
  for (const auto& s : plan.strands) ++per_rule[s.rule_label];
  EXPECT_EQ(per_rule.at("r1"), 1u);
  EXPECT_EQ(per_rule.at("r2"), 2u);  // two positive atoms after localization
  EXPECT_EQ(per_rule.at("r4"), 2u);
  // r3 is an aggregate rule: planned separately.
  EXPECT_EQ(per_rule.count("r3"), 0u);
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_EQ(plan.aggregates[0].rule_label, "r3");
}

TEST(Planner, StrandShapeDeltaJoinProjectDemux) {
  auto plan = plan_of(core::path_vector_source());
  // r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
  // Delta on bestPathCost joins path; all of path's bindable args checked.
  const auto* s = find_strand(*&plan, "r4", 0);
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->delta_predicate, "bestPathCost");
  EXPECT_FALSE(s->dead);
  auto kinds = kinds_of(*s);
  ASSERT_EQ(kinds.size(), 4u);
  EXPECT_EQ(kinds[0], Element::Kind::Delta);
  EXPECT_EQ(kinds[1], Element::Kind::IndexJoin);
  EXPECT_EQ(kinds[2], Element::Kind::Project);
  EXPECT_EQ(kinds[3], Element::Kind::Demux);
  // Probe column: path's first argument (S), bound by the delta.
  EXPECT_EQ(s->elements[1].predicate, "path");
  EXPECT_EQ(s->elements[1].probe_pos, 0);
}

TEST(Planner, ChecksDischargeEagerly) {
  // The C=C1+C2 bind and the C<1000 select must sit at the first point all
  // their inputs are bound, exactly where the interpreter discharges them.
  auto plan = plan_of(
      "a1 out(@S,C) :- e(@S,A), f(@S,B), C=A+B, C<1000.\n");
  const auto* s = find_strand(plan, "a1", 0);
  ASSERT_NE(s, nullptr);
  auto kinds = kinds_of(*s);
  // Delta(e) -> IndexJoin(f) -> Bind(C) -> Select(C<1000) -> Project -> Demux
  ASSERT_EQ(kinds.size(), 6u);
  EXPECT_EQ(kinds[0], Element::Kind::Delta);
  EXPECT_EQ(kinds[1], Element::Kind::IndexJoin);
  EXPECT_EQ(kinds[2], Element::Kind::Bind);
  EXPECT_EQ(kinds[3], Element::Kind::Select);
  EXPECT_EQ(kinds[4], Element::Kind::Project);
  EXPECT_EQ(kinds[5], Element::Kind::Demux);
}

TEST(Planner, NegatedAtomBecomesNegProbe) {
  auto plan = plan_of(
      "b1 out(@S,D) :- e(@S,D), !blocked(@S,D).\n");
  const auto* s = find_strand(plan, "b1", 0);
  ASSERT_NE(s, nullptr);
  auto kinds = kinds_of(*s);
  ASSERT_GE(kinds.size(), 2u);
  EXPECT_EQ(kinds[1], Element::Kind::NegProbe);
  EXPECT_EQ(s->elements[1].predicate, "blocked");
}

TEST(Planner, ProbeSelectionMatchesInterpreterEnumeration) {
  // The interpreter enumerates atoms in body order with the delta at its
  // original position. For delta = e (position 0), g is joined after S is
  // bound -> index probe on g's first column. For delta = g (position 1),
  // e is enumerated *before* the delta binds anything -> full scan, with
  // the Delta element sitting downstream at its body position.
  auto plan = plan_of("c1 out(@S,D) :- e(@S,D), g(@S).\n");

  const auto* d0 = find_strand(plan, "c1", 0);
  ASSERT_NE(d0, nullptr);
  ASSERT_GE(d0->elements.size(), 2u);
  EXPECT_EQ(d0->elements[0].kind, Element::Kind::Delta);
  EXPECT_EQ(d0->elements[1].kind, Element::Kind::IndexJoin);
  EXPECT_EQ(d0->elements[1].predicate, "g");
  EXPECT_EQ(d0->elements[1].probe_pos, 0);

  const auto* d1 = find_strand(plan, "c1", 1);
  ASSERT_NE(d1, nullptr);
  ASSERT_GE(d1->elements.size(), 2u);
  EXPECT_EQ(d1->elements[0].kind, Element::Kind::Scan);
  EXPECT_EQ(d1->elements[0].predicate, "e");
  EXPECT_EQ(d1->elements[1].kind, Element::Kind::Delta);
}

TEST(Planner, AggregateRuleGetsAggregateTerminal) {
  auto plan = plan_of(core::path_vector_source());
  ASSERT_EQ(plan.aggregates.size(), 1u);
  const auto& agg = plan.aggregates[0];
  EXPECT_TRUE(agg.incremental);
  EXPECT_EQ(agg.kind, ndlog::AggKind::Min);
  ASSERT_EQ(agg.strands.size(), 1u);  // one positive atom (path)
  const auto& strand = agg.strands[0];
  ASSERT_FALSE(strand.elements.empty());
  EXPECT_EQ(strand.elements.back().kind, Element::Kind::Aggregate);
  EXPECT_TRUE(agg.body_predicates.count("path"));
}

TEST(Planner, SelfJoinAggregateFallsBackToRecompute) {
  auto plan = plan_of(
      "materialize(e, infinity, infinity, keys(1,2)).\n"
      "j1 m(@S,min<C>) :- e(@S,A), e(@S,C).\n");
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_FALSE(plan.aggregates[0].incremental);
  EXPECT_FALSE(plan.aggregates[0].mode_reason.empty());
}

TEST(Planner, AblationForcesRecompute) {
  dataflow::PlanOptions options;
  options.incremental_aggregates = false;
  auto plan = plan_of(core::path_vector_source(), options);
  ASSERT_EQ(plan.aggregates.size(), 1u);
  EXPECT_FALSE(plan.aggregates[0].incremental);
}

TEST(Planner, DumpsAreWellFormed) {
  auto plan = plan_of(core::path_vector_source());
  EXPECT_GT(plan.element_count(), 0u);

  const std::string dot = plan.to_dot();
  EXPECT_NE(dot.find("digraph"), std::string::npos);
  EXPECT_NE(dot.find("subgraph cluster_"), std::string::npos);
  EXPECT_EQ(std::count(dot.begin(), dot.end(), '{'),
            std::count(dot.begin(), dot.end(), '}'));

  const std::string json = plan.to_json();
  EXPECT_EQ(std::count(json.begin(), json.end(), '{'),
            std::count(json.begin(), json.end(), '}'));
  EXPECT_EQ(std::count(json.begin(), json.end(), '['),
            std::count(json.begin(), json.end(), ']'));
  EXPECT_NE(json.find("\"strands\""), std::string::npos);
  EXPECT_NE(json.find("\"aggregates\""), std::string::npos);

  EXPECT_FALSE(plan.summary().empty());
}

// Keyed overwrite leaves a node at most one row per declared key, so an
// atom before the delta whose whole declared key the delta binds matches at
// most one row. The planner joins such atoms right after the delta, by an
// index probe on a bound key column off the location specifier, and runs
// no check until they are joined.
TEST(DataflowPlan, KeyBoundAtomsJoinAfterTheDelta) {
  const auto example = [](const std::string& name) {
    const auto path =
        std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" / (name + ".ndlog");
    return plan_of(slurp(path));
  };
  struct Moved {
    std::string program, rule, delta, joined;
  };
  for (const auto& m : {Moved{"path_vector", "r4", "path", "bestPathCost"},
                        Moved{"distance_vector", "d4", "hop", "bestHopCost"},
                        Moved{"policy_path_vector", "s3", "route", "bestCostAtLP"}}) {
    const auto plan = example(m.program);
    const auto* s = find_strand(plan, m.rule, 1);
    ASSERT_NE(s, nullptr) << m.rule;
    ASSERT_GE(s->elements.size(), 2u) << m.rule;
    EXPECT_EQ(s->elements[0].kind, Element::Kind::Delta) << m.rule;
    EXPECT_EQ(s->elements[0].predicate, m.delta) << m.rule;
    EXPECT_EQ(s->elements[1].kind, Element::Kind::IndexJoin) << m.rule;
    EXPECT_EQ(s->elements[1].predicate, m.joined) << m.rule;
    // D, the second key field: the location (S) would match every row.
    EXPECT_EQ(s->elements[1].probe_pos, 1) << m.rule;
  }

  // r2[d1]: link_sh_r2_1 declares no key, so it is scanned before the delta.
  const auto pv = example("path_vector");
  const auto* r2 = find_strand(pv, "r2", 1);
  ASSERT_NE(r2, nullptr);
  EXPECT_EQ(kinds_of(*r2)[0], Element::Kind::Scan);
  EXPECT_EQ(r2->elements[0].predicate, "link_sh_r2_1");
  EXPECT_EQ(kinds_of(*r2)[1], Element::Kind::Delta);

  // The delta binds e's S but not its Y: e keeps its place, and so does the
  // whole schedule, even though g before it is key-bound.
  const auto partial = plan_of(
      "materialize(e, infinity, infinity, keys(1,2)).\n"
      "materialize(g, infinity, infinity, keys(1)).\n"
      "p1 out(@S,D) :- g(@S), e(@S,Y), f(@S,D), D!=Y.\n");
  const auto* p1 = find_strand(partial, "p1", 2);
  ASSERT_NE(p1, nullptr);
  EXPECT_EQ(kinds_of(*p1)[0], Element::Kind::Scan);
  EXPECT_EQ(p1->elements[0].predicate, "g");
  EXPECT_EQ(p1->elements[1].predicate, "e");
  EXPECT_EQ(kinds_of(*p1)[2], Element::Kind::Delta);

  // Aggregate maintenance strands follow the same rule; the check over the
  // delta's own C waits until cap is joined.
  const auto agg = plan_of(
      "materialize(cap, infinity, infinity, keys(1,2)).\n"
      "a1 low(@S,D,min<C>) :- cap(@S,D,L), offer(@S,D,C), C>0, C<L.\n");
  ASSERT_EQ(agg.aggregates.size(), 1u);
  ASSERT_TRUE(agg.aggregates[0].incremental);
  ASSERT_EQ(agg.aggregates[0].strands.size(), 2u);
  const auto& a1 = agg.aggregates[0].strands[1];
  EXPECT_EQ(kinds_of(a1), (std::vector<Element::Kind>{
                              Element::Kind::Delta, Element::Kind::IndexJoin,
                              Element::Kind::Select, Element::Kind::Select,
                              Element::Kind::Aggregate}));
  EXPECT_EQ(a1.elements[1].predicate, "cap");
  EXPECT_EQ(a1.elements[1].probe_pos, 1);
}

// ---------------------------------------------------------------------------
// Differential suite: dataflow::Engine vs ndlog::RuleEngine
// ---------------------------------------------------------------------------

std::vector<std::string> rendered(const std::vector<Tuple>& tuples) {
  std::vector<std::string> out;
  for (const auto& t : tuples) out.push_back(t.to_string());
  return out;
}

/// Seeded faults on an ExecutorPair's deliveries: a remote tuple is dropped
/// with probability `loss`, and with `reorder` the next delivery is drawn
/// from anywhere in the queue instead of its head.
struct Faults {
  std::uint64_t seed = 1;
  double loss = 0.0;
  bool reorder = false;
};

/// Drives the compiled engine and the interpreter side by side, over one
/// database per node and one delta sequence: a queue of deliveries, each
/// processed at the node its location attribute names. A delivered tuple is
/// installed with keyed overwrite (as both runtimes do) unless it is
/// transient, then pushed through both executors as one delta:
/// Engine::process must emit exactly what the RuleEngine::eval_rule_delta
/// loop over the normal rules emits, in the same order — the contract of
/// dataflow/engine.hpp. Local derivations follow depth-first and remote ones
/// are queued for their node, subject to the Faults, as in the node core.
/// After each delivery the node's aggregates are flushed once, the
/// simulator's cadence, so one flush can move many groups. Each flush's
/// deltas must come in strictly increasing group-key order, and the view
/// maintained from them must equal eval_agg_rule over the same database;
/// every delta goes to a log, which must not depend on the planner mode
/// (expect_executors_agree). The deltas are applied like the runtimes do (a
/// local row that left is erased, a new row queued).
class ExecutorPair {
 public:
  ExecutorPair(const ndlog::Program& program, bool incremental_aggregates,
               Faults faults = {})
      : program_(runtime::localize(program)),
        catalog_(ndlog::Catalog::from_program(program_)),
        preds_(catalog_),
        plan_(dataflow::compile(program_, plan_options(incremental_aggregates))),
        faults_(faults),
        rng_(faults.seed) {
    for (const auto& rule : program_.rules) {
      if (!rule.is_fact() && !rule.head.has_aggregate()) normal_rules_.push_back(&rule);
    }
  }

  void deliver(Tuple tuple) { queue_.push_back(std::move(tuple)); }

  /// Deliver until the queue is empty or `budget` deliveries were made.
  void run(std::size_t budget = 100'000) {
    for (std::size_t i = 0;
         i < budget && !queue_.empty() && !::testing::Test::HasFatalFailure(); ++i) {
      std::size_t pick = 0;
      if (faults_.reorder) {
        pick = std::uniform_int_distribution<std::size_t>(0, queue_.size() - 1)(rng_);
      }
      Tuple next = std::move(queue_[pick]);
      queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(pick));
      step(next);
    }
  }

  /// Advance the clock to `now`: soft state whose lifetime ran out expires.
  void advance(double now) {
    now_ = now;
    for (auto& [name, node] : nodes_) {
      std::vector<Tuple> due;
      for (const auto& [tuple, at] : node.expires) {
        if (at <= now_) due.push_back(tuple);
      }
      for (const auto& t : due) erase(node, t);
      if (!due.empty()) flush(node, name);
    }
  }

  /// Delete a base tuple (a link failure) and flush its node.
  void retract(const Tuple& tuple) {
    const std::string& at = preds_.location_of(tuple);
    Node& node = node_of(at);
    erase(node, tuple);
    flush(node, at);
  }

  std::vector<std::string> node_names() const {
    std::vector<std::string> out;
    for (const auto& [name, node] : nodes_) out.push_back(name);
    return out;
  }
  std::size_t deltas() const noexcept { return deltas_; }
  std::size_t flushes() const noexcept { return flushes_; }
  /// Every aggregate delta so far: node, rule, retracted and asserted row.
  const std::vector<std::string>& delta_log() const noexcept { return log_; }

 private:
  struct Node {
    explicit Node(const dataflow::Plan& plan)
        : engine(plan), views(plan.aggregates.size()) {}
    ndlog::Database db;
    dataflow::Engine engine;
    runtime::KeyIndex by_key;
    std::map<Tuple, double> expires;
    std::vector<ndlog::TupleSet> views;  // per aggregate, kept from its deltas
  };

  static dataflow::PlanOptions plan_options(bool incremental_aggregates) {
    dataflow::PlanOptions options;
    options.incremental_aggregates = incremental_aggregates;
    return options;
  }

  Node& node_of(const std::string& name) {
    return nodes_.try_emplace(name, plan_).first->second;
  }

  /// Keyed install; false for a duplicate (which only refreshes a lifetime).
  bool install(Node& node, const Tuple& tuple) {
    const auto& info = preds_.info(tuple.predicate());
    auto it = node.by_key.find(runtime::KeyedRow(tuple, info));
    const bool duplicate = it != node.by_key.end() && *it->row == tuple;
    if (!duplicate && it != node.by_key.end()) erase(node, Tuple(*it->row));
    if (info.lifetime) node.expires[tuple] = now_ + *info.lifetime;
    if (duplicate) return false;
    node.by_key.insert(runtime::KeyedRow(*node.db.insert(tuple), info));
    node.engine.on_insert(tuple, node.db);
    return true;
  }

  void erase(Node& node, const Tuple& tuple) {
    node.expires.erase(tuple);
    auto it = node.by_key.find(runtime::KeyedRow(tuple, preds_.info(tuple.predicate())));
    if (it == node.by_key.end() || !(*it->row == tuple)) return;
    node.by_key.erase(it);  // before the row it points at goes
    node.db.erase(tuple);
    node.engine.on_erase(tuple, node.db);
  }

  void step(const Tuple& delta) {
    const std::string at = preds_.location_of(delta);
    Node& node = node_of(at);
    derive(node, at, delta);
    if (!::testing::Test::HasFatalFailure()) flush(node, at);
  }

  void derive(Node& node, const std::string& at, const Tuple& delta) {
    const bool transient =
        delta.predicate() == "periodic" || preds_.info(delta.predicate()).transient;
    if (!transient && !install(node, delta)) return;

    std::vector<Tuple> flow;
    node.engine.process(delta, node.db, flow);
    std::vector<Tuple> interp;
    const ndlog::TupleSet delta_set{delta};
    for (const ndlog::Rule* rule : normal_rules_) {
      const auto atoms = ndlog::RuleEngine::positive_atoms(*rule);
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (atoms[i]->atom.predicate != delta.predicate()) continue;
        interpreter_.eval_rule_delta(*rule, node.db, i, delta_set,
                                     [&](Tuple t) { interp.push_back(std::move(t)); });
      }
    }
    ++deltas_;
    ASSERT_EQ(rendered(flow), rendered(interp)) << "delta " << delta.to_string() << " at " << at;
    for (auto& t : flow) {
      if (preds_.location_of(t) != at) {
        send(at, std::move(t));
        continue;
      }
      derive(node, at, t);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }

  void flush(Node& node, const std::string& at) {
    std::vector<dataflow::Engine::AggDelta> deltas;
    for (std::size_t i = 0; i < plan_.aggregates.size(); ++i) {
      const ndlog::Rule& rule = program_.rules[plan_.aggregates[i].rule_index];
      node.engine.flush_aggregate(i, node.db, deltas);
      ++flushes_;
      ndlog::TupleSet& view = node.views[i];
      std::optional<std::vector<Value>> last_key;
      for (const auto& d : deltas) {
        const Tuple& row = d.assert_now.has_value() ? *d.assert_now : *d.retract;
        std::vector<Value> key = row.values();
        key[plan_.aggregates[i].agg_pos] = Value::nil();
        ASSERT_TRUE(!last_key.has_value() || *last_key < key)
            << "aggregate " << rule.display_name() << " at " << at
            << ": deltas out of group-key order at " << row.to_string();
        last_key = std::move(key);
        std::string entry = at + " " + rule.display_name();
        if (d.retract.has_value()) {
          entry += " -" + d.retract->to_string();
          view.erase(*d.retract);
        }
        if (d.assert_now.has_value()) {
          entry += " +" + d.assert_now->to_string();
          view.insert(*d.assert_now);
        }
        log_.push_back(std::move(entry));
      }
      ndlog::TupleSet interp;
      interpreter_.eval_agg_rule(rule, node.db, [&](Tuple t) { interp.insert(std::move(t)); });
      ASSERT_EQ(ndlog::sorted_strings(view), ndlog::sorted_strings(interp))
          << "aggregate " << rule.display_name() << " at " << at;
      for (const auto& d : deltas) {
        if (d.retract.has_value() && preds_.location_of(*d.retract) == at) {
          erase(node, *d.retract);
        }
        if (d.assert_now.has_value()) send(at, *d.assert_now);
      }
    }
  }

  void send(const std::string& from, Tuple tuple) {
    if (faults_.loss > 0.0 && preds_.location_of(tuple) != from &&
        std::uniform_real_distribution<double>(0.0, 1.0)(rng_) < faults_.loss) {
      return;
    }
    queue_.push_back(std::move(tuple));
  }

  ndlog::Program program_;
  ndlog::Catalog catalog_;
  runtime::PredTable preds_;
  dataflow::Plan plan_;
  ndlog::RuleEngine interpreter_;
  std::vector<const ndlog::Rule*> normal_rules_;
  Faults faults_;
  std::mt19937_64 rng_;
  std::map<std::string, Node> nodes_;
  std::deque<Tuple> queue_;
  double now_ = 0.0;
  std::size_t deltas_ = 0;
  std::size_t flushes_ = 0;
  std::vector<std::string> log_;
};

struct Workload {
  std::vector<Tuple> facts;
  std::vector<std::pair<Tuple, double>> retractions;
};

Workload topology_workload(const std::vector<core::Link>& links,
                           bool with_nodes = false, bool with_pref = false) {
  Workload w;
  std::set<std::string> names;
  for (const auto& l : links) {
    names.insert(l.src);
    names.insert(l.dst);
  }
  if (with_nodes) {
    for (const auto& n : names) w.facts.emplace_back("node", std::vector<Value>{Value::addr(n)});
  }
  for (const auto& t : link_facts(links)) w.facts.push_back(t);
  if (with_pref) {
    for (const auto& l : links) {
      w.facts.emplace_back(
          "importPref",
          std::vector<Value>{Value::addr(l.src), Value::addr(l.dst), Value::integer(100)});
    }
  }
  return w;
}

/// Feed the workload's facts through a fresh pair, with the incremental
/// aggregate planner and with its recompute fallback, which must log the
/// identical aggregate deltas; returns the number of deltas the incremental
/// run compared.
std::size_t expect_executors_agree(const ndlog::Program& program, const Workload& workload,
                                   const std::string& label,
                                   Faults faults = {},
                                   std::size_t budget = 100'000) {
  std::size_t deltas = 0;
  std::vector<std::string> logs[2];
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(label + (incremental ? " incremental" : " recompute"));
    ExecutorPair pair(program, incremental, faults);
    for (const auto& fact : workload.facts) pair.deliver(fact);
    pair.run(budget);
    if (incremental) deltas = pair.deltas();
    logs[incremental ? 0 : 1] = pair.delta_log();
  }
  EXPECT_EQ(logs[0], logs[1]) << label << ": planner modes logged different deltas";
  return deltas;
}

TEST(Differential, EveryExampleProgramAgrees) {
  const std::filesystem::path dir =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  std::size_t tested = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ndlog") continue;
    const std::string name = entry.path().filename().string();
    auto program = ndlog::parse_program(slurp(entry.path()), name);

    const bool policy = name == "policy_path_vector.ndlog";
    const bool tree = name == "spanning_tree.ndlog";
    auto links = core::random_topology(5, 2, 7);
    // DV counts to infinity on cyclic topologies; compare a prefix.
    std::size_t budget = name == "distance_vector.ndlog" ? 2'000 : 100'000;
    if (name == "link_state.ndlog") {
      // link_state's C<1000 closure enumerates every walk cost below the
      // bound; with 400-cost links only 1- and 2-hop walks survive.
      links = core::line_topology(3, /*cost=*/400);
    }
    auto workload = topology_workload(links, /*with_nodes=*/policy || tree,
                                      /*with_pref=*/policy);
    EXPECT_GT(expect_executors_agree(program, workload, name, {}, budget), 10u) << name;
    ++tested;
  }
  EXPECT_GE(tested, 6u);
}

/// Calls every builtin: p1/p2 the paper's path functions, s1/t1/g1 the rest.
const char* kEveryBuiltin = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(path, infinity, infinity, keys(1,2,3,4)).
  materialize(shape, infinity, infinity, keys(1,2,3,4,5,6)).
  materialize(turn, infinity, infinity, keys(1,2,3,4,5)).
  materialize(gap, infinity, infinity, keys(1,2,3,4,5,6)).

  p1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
  p2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2,
                       P=f_concatPath(S,P2), f_inPath(P2,S)=false.
  s1 shape(@S,D,N,H,L,T) :- path(@S,D,P,_C), N=f_size(P), H=f_head(P), L=f_last(P),
                            T=f_tail(P).
  t1 turn(@S,D,R,A,M) :- path(@S,D,P,C), R=f_reverse(P), A=f_append(P,S),
                         f_member(P,D)=true, M=f_list(S,D,C).
  g1 gap(@S,D,Z,Lo,Hi,G) :- path(@S,D,_P,C), link(@S,Z,C1), Lo=f_min(C,C1),
                            Hi=f_max(C,C1), G=f_abs(C1-C).
)";

TEST(Differential, EveryBuiltinAgrees) {
  const auto program = ndlog::parse_program(kEveryBuiltin, "every_builtin");
  std::set<std::string> called;
  std::function<void(const ndlog::Term&)> collect = [&](const ndlog::Term& t) {
    if (t.kind == ndlog::Term::Kind::Func) called.insert(t.name);
    for (const auto& a : t.args) collect(*a);
  };
  for (const auto& rule : program.rules) {
    for (const auto& arg : rule.head.args) collect(*arg.term);
    for (const auto& elem : rule.body) {
      if (const auto* cmp = std::get_if<ndlog::Comparison>(&elem)) {
        collect(*cmp->lhs);
        collect(*cmp->rhs);
      }
    }
  }
  std::set<std::string> table;
  for (const auto& fn : ndlog::builtin_table()) table.emplace(fn.name);
  EXPECT_EQ(called, table);

  EXPECT_GT(expect_executors_agree(program, topology_workload(core::random_topology(5, 2, 7)),
                                   "every builtin"),
            10u);

  // What each call computes, on a two-hop line a -> b -> c.
  const auto result = ndlog::Evaluator().run(
      program, {ndlog::parse_fact("link(@a,b,2)"), ndlog::parse_fact("link(@b,c,5)")});
  const auto rows = [&](const char* pred) {
    return ndlog::sorted_strings(result.database.relation(pred));
  };
  using Rows = std::vector<std::string>;
  EXPECT_EQ(rows("path"),
            (Rows{"path(a,b,[a,b],2)", "path(a,c,[a,b,c],7)", "path(b,c,[b,c],5)"}));
  EXPECT_EQ(rows("shape"), (Rows{"shape(a,b,2,a,b,[b])", "shape(a,c,3,a,c,[b,c])",
                                 "shape(b,c,2,b,c,[c])"}));
  EXPECT_EQ(rows("turn"), (Rows{"turn(a,b,[b,a],[a,b,a],[a,b,2])",
                                "turn(a,c,[c,b,a],[a,b,c,a],[a,c,7])",
                                "turn(b,c,[c,b],[b,c,b],[b,c,5])"}));
  EXPECT_EQ(rows("gap"),
            (Rows{"gap(a,b,b,2,2,0)", "gap(a,c,b,2,7,5)", "gap(b,c,c,5,5,0)"}));
}

TEST(Differential, PathVectorUnderLossAndDelaySeeds) {
  // Seeded loss and arrival order give each seed its own delta sequence and
  // its own database states.
  auto program = core::path_vector_program();
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    auto workload = topology_workload(core::random_topology(6, 3, seed));
    Faults faults;
    faults.seed = seed;
    faults.loss = 0.2;
    faults.reorder = true;
    EXPECT_GT(expect_executors_agree(program, workload,
                                     "path_vector loss seed=" + std::to_string(seed), faults),
              10u);
  }
}

TEST(Differential, PartlyKeyBoundAtomKeepsTheInterpretersOrder) {
  // link, the delta of o1[d1], binds offer's S and Z but not its D, so
  // offer may hold many matching rows and must be scanned before the delta,
  // as the interpreter does: joining it after the delta would emit them in
  // index-bucket order instead.
  const auto program = ndlog::parse_program(R"(
    materialize(offer, infinity, infinity, keys(1,2,3)).
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(pick, infinity, infinity, keys(1,2,3)).
    o1 pick(@S,D,Z) :- offer(@S,D,Z,C), link(@S,Z,C2).
  )",
                                            "partial_key");
  // The links come first, so a column index on offer would be built before
  // the offers arrive and hold them in arrival order; the new link costs
  // then re-fire o1 over all of them.
  Workload workload;
  const auto link = [&](const char* z, std::int64_t c) {
    workload.facts.emplace_back(
        "link", std::vector<Value>{Value::addr("a"), Value::addr(z), Value::integer(c)});
  };
  link("z1", 1);
  link("z2", 1);
  for (int i = 0; i < 12; ++i) {
    for (const char* z : {"z1", "z2"}) {
      workload.facts.emplace_back(
          "offer", std::vector<Value>{Value::addr("a"), Value::addr("d" + std::to_string(i)),
                                      Value::addr(z), Value::integer(i)});
    }
  }
  link("z1", 2);
  link("z2", 2);
  EXPECT_GT(expect_executors_agree(program, workload, "partial key"), 10u);
}

TEST(Differential, PolicyPathVectorWithFiltersAgrees) {
  // E5 flavor: export/import deny lists and mixed local-prefs exercise the
  // negated-atom (NegProbe) path and the max<>-then-min<> aggregate cascade.
  auto program = core::policy_path_vector_program();
  auto links = core::ring_topology(5);
  auto workload = topology_workload(links, /*with_nodes=*/true, /*with_pref=*/false);
  std::uint64_t i = 0;
  for (const auto& l : links) {
    workload.facts.emplace_back(
        "importPref", std::vector<Value>{Value::addr(l.src), Value::addr(l.dst),
                                         Value::integer(100 + 10 * (i++ % 3))});
  }
  workload.facts.emplace_back(
      "exportDeny", std::vector<Value>{Value::addr("n0"), Value::addr("n1"),
                                       Value::addr("n3")});
  workload.facts.emplace_back(
      "importDeny", std::vector<Value>{Value::addr("n2"), Value::addr("n3"),
                                       Value::addr("n0")});
  EXPECT_GT(expect_executors_agree(program, workload, "policy ring"), 10u);
}

/// Periodic soft-state DV (the E8 native-soft-state workload of
/// test_runtime_cti.cpp): expirations, refreshes, periodic events and a
/// mid-run link retraction, under an unstratified program.
const char* kSoftDv = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(own, infinity, infinity, keys(1,2)).
  materialize(adv, 2.5, infinity, keys(1,2,3)).
  materialize(hop, 2.5, infinity, keys(1,2,3)).
  materialize(bestHopCost, infinity, infinity, keys(1,2)).
  materialize(bestHop, infinity, infinity, keys(1,2)).

  c0 adv(@M,D,D,C) :- periodic(@D,I), own(@D,D), link(@D,M,C1), C=0.
  c2 hop(@N,D,M,C) :- periodic(@N,I), adv(@N,M,D,C2), link(@N,M,C1), C=C1+C2, N != D.
  c3 bestHopCost(@N,D,min<C>) :- hop(@N,D,M,C).
  c4 bestHop(@N,D,M,C) :- bestHopCost(@N,D,C), hop(@N,D,M,C).
  c5 adv(@M,N,D,C) :- periodic(@N,I), bestHop(@N,D,Z,C), link(@N,M,C1).
)";

TEST(Differential, SoftStatePeriodicWithRetractionAgrees) {
  auto program = ndlog::parse_program(kSoftDv, "soft_dv");
  Workload workload = topology_workload(core::line_topology(3));
  workload.facts.emplace_back("own",
                              std::vector<Value>{Value::addr("n0"), Value::addr("n0")});
  const Tuple failed("link", {Value::addr("n1"), Value::addr("n0"), Value::integer(1)});
  std::vector<std::string> logs[2];
  for (const bool incremental : {true, false}) {
    SCOPED_TRACE(incremental ? "incremental" : "recompute");
    ExecutorPair pair(program, incremental);
    for (const auto& fact : workload.facts) pair.deliver(fact);
    pair.run();
    // Twelve periodic rounds one second apart; the link fails at t=4.6.
    for (int round = 1; round <= 12; ++round) {
      if (round == 5) {
        pair.advance(4.6);
        pair.retract(failed);
      }
      pair.advance(round);
      for (const auto& node : pair.node_names()) {
        pair.deliver(Tuple("periodic", {Value::addr(node), Value::real(1.0)}));
      }
      pair.run();
    }
    EXPECT_GT(pair.deltas(), 50u);
    EXPECT_GT(pair.flushes(), 50u);
    logs[incremental ? 0 : 1] = pair.delta_log();
  }
  EXPECT_FALSE(logs[0].empty());
  EXPECT_EQ(logs[0], logs[1]) << "planner modes logged different deltas";
}

TEST(Differential, IncrementalAblationMatchesIncremental) {
  // The recompute fallback and incremental view maintenance must be
  // indistinguishable from the outside (same flush diffs in the same order).
  auto program = core::path_vector_program();
  auto workload = topology_workload(core::random_topology(6, 3, 11));
  const auto run = [&](bool incremental) {
    SimOptions options;
    options.incremental_aggregates = incremental;
    Simulator sim(program, options);
    sim.inject_all(workload.facts);
    std::pair<SimStats, std::map<std::string, std::vector<std::string>>> out;
    out.first = sim.run();
    for (const auto& node : sim.nodes()) out.second[node] = sim.database(node).dump();
    return out;
  };
  const auto [inc, inc_dbs] = run(true);
  const auto [rec, rec_dbs] = run(false);

  EXPECT_EQ(inc.messages_sent, rec.messages_sent);
  EXPECT_EQ(inc.events_processed, rec.events_processed);
  EXPECT_DOUBLE_EQ(inc.last_change_time, rec.last_change_time);
  EXPECT_EQ(inc_dbs, rec_dbs);
}

// ---------------------------------------------------------------------------
// Integration details
// ---------------------------------------------------------------------------

TEST(DataflowSim, ExposesPlanAndElementCounters) {
  obs::Registry registry;
  SimOptions options;
  options.metrics = &registry;
  Simulator sim(core::path_vector_program(), options);
  EXPECT_FALSE(sim.plan().strands.empty());
  sim.inject_all(link_facts(core::line_topology(4)));
  auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  // Per-element in/out counters were recorded under dataflow/elem/...
  EXPECT_GT(registry.sum_counters_with_prefix("dataflow/elem/"), 0u);
}

TEST(Localize, ShipRulesCarrySourceSpans) {
  // Satellite bugfix: generated *_sh_* rules are stamped with the span of the
  // rule they came from, so diagnostics about them point at user code.
  auto program = core::path_vector_program();
  const ndlog::Rule* r2 = nullptr;
  for (const auto& r : program.rules) {
    if (r.name == "r2") r2 = &r;
  }
  ASSERT_NE(r2, nullptr);
  ASSERT_NE(r2->loc.line, 0);

  auto localized = runtime::localize(program);
  bool saw_ship = false;
  for (const auto& r : localized.rules) {
    if (r.name.find("_sh_") == std::string::npos) continue;
    saw_ship = true;
    EXPECT_EQ(r.loc.line, r2->loc.line);
    EXPECT_NE(r.head.loc.line, 0);
  }
  EXPECT_TRUE(saw_ship);
}

}  // namespace
}  // namespace fvn
