#include "mc/ndlog_ts.hpp"

#include <algorithm>
#include <sstream>

#include "ndlog/analysis.hpp"
#include "runtime/localize.hpp"
#include "runtime/node_core.hpp"

namespace fvn::mc {

using ndlog::Tuple;

std::string NetState::encode() const {
  std::ostringstream os;
  for (const auto& [node, tuples] : stored) {
    os << node << "{";
    for (const auto& t : tuples) os << t.to_string() << ";";
    os << "}";
  }
  os << "|";
  for (const auto& [dest, t] : inflight) os << dest << "<-" << t.to_string() << ";";
  return os.str();
}

std::string render_state(const NetState& state, std::string_view indent) {
  std::ostringstream os;
  for (const auto& [node, tuples] : state.stored) {
    os << indent << "node " << node << ":";
    if (tuples.empty()) os << " (empty)";
    os << "\n";
    for (const auto& t : tuples) os << indent << indent << t.to_string() << "\n";
  }
  if (state.inflight.empty()) {
    os << indent << "in flight: (none)\n";
  } else {
    os << indent << "in flight:\n";
    for (const auto& [dest, t] : state.inflight) {
      os << indent << indent << dest << " <- " << t.to_string() << "\n";
    }
  }
  return os.str();
}

namespace {

/// The plan a delivery runs: the runtimes' static checks and compilation,
/// after refusing what an untimed model cannot check.
dataflow::Plan model_plan(const ndlog::Program& program, const ndlog::Catalog& catalog) {
  if (const auto feature = runtime::soft_state_feature(program, catalog); !feature.empty()) {
    throw ndlog::AnalysisError("model checker: " + feature +
                               "; states carry no clock, so only hard-state programs "
                               "can be verified");
  }
  return runtime::checked_plan(program, /*require_stratified=*/true, {});
}

std::set<std::string> permanent_predicates(const ndlog::Program& program,
                                           const ndlog::Catalog& catalog) {
  std::set<std::string> aggregated;
  for (const auto& rule : program.rules) {
    if (rule.head.has_aggregate()) aggregated.insert(rule.head.predicate);
  }
  std::set<std::string> out;
  for (const auto& pred : catalog.predicates()) {
    const auto& info = catalog.info(pred);
    const std::set<std::size_t> keys(info.key_fields.begin(), info.key_fields.end());
    // Key fields outside the tuple are ignored, as runtime::KeyedRow does.
    const auto in_tuple = std::count_if(keys.begin(), keys.end(), [&](std::size_t f) {
      return f >= 1 && f <= info.arity;
    });
    const bool whole_key = keys.empty() || static_cast<std::size_t>(in_tuple) == info.arity;
    if (whole_key && !aggregated.contains(pred)) out.insert(pred);
  }
  return out;
}

}  // namespace

NdlogTransitionSystem::NdlogTransitionSystem(ndlog::Program program)
    : program_(runtime::localize(program)),
      catalog_(ndlog::Catalog::from_program(program_)),
      plan_(model_plan(program_, catalog_)),
      preds_(catalog_),
      permanent_(permanent_predicates(program_, catalog_)) {}

NetState NdlogTransitionSystem::initial(const std::vector<Tuple>& facts) const {
  NetState state;
  for (const auto& f : facts) state.inflight.emplace(preds_.location_of(f), f);
  for (auto& f : runtime::embedded_facts(program_)) {
    state.inflight.emplace(preds_.location_of(f), std::move(f));
  }
  return state;
}

NdlogTransitionSystem::LocalStep NdlogTransitionSystem::local_step(
    const std::string& node, std::span<const Tuple* const> table, const Tuple& arriving) const {
  LocalStep step;
  runtime::NodeCore core(node, plan_, preds_, nullptr,
                         [&](const runtime::NodeCore&, runtime::NodeCore::Change change,
                             const Tuple& tuple) {
                           if (change != runtime::NodeCore::Change::Remote) return;
                           step.outbound.emplace_back(preds_.location_of(tuple), tuple);
                         });
  // Hard state: no row has a lifetime, so the time passed is never read.
  core.restore(table);
  core.deliver(arriving, 0.0);
  core.settle(0.0);
  const ndlog::Database& db = core.database();
  step.table.reserve(db.total_size());
  for (const auto& pred : db.predicates()) {
    for (const auto& t : db.relation(pred)) step.table.push_back(t);
  }
  return step;
}

NetState NdlogTransitionSystem::deliver(const NetState& state, std::size_t index) const {
  NetState next = state;
  auto it = next.inflight.begin();
  std::advance(it, static_cast<std::ptrdiff_t>(index));
  const auto [dest, tuple] = *it;
  next.inflight.erase(it);
  auto& table = next.stored[dest];
  std::vector<const Tuple*> rows;
  for (const auto& t : table) rows.push_back(&t);
  LocalStep step = local_step(dest, rows, tuple);
  table = std::set<Tuple>(std::make_move_iterator(step.table.begin()),
                          std::make_move_iterator(step.table.end()));
  for (auto& [to, t] : step.outbound) {
    // Duplicates in flight are allowed (message multiset). operator[] gives
    // a node that has received nothing an empty entry.
    const auto& stored = next.stored[to];
    if (permanent(t.predicate()) && stored.contains(t)) continue;
    next.inflight.emplace(std::move(to), std::move(t));
  }
  return next;
}

std::vector<NetState> NdlogTransitionSystem::successors(const NetState& state) const {
  std::vector<NetState> out;
  std::size_t index = 0;
  auto it = state.inflight.begin();
  std::set<std::pair<std::string, Tuple>> done;
  for (; it != state.inflight.end(); ++it, ++index) {
    if (!done.insert(*it).second) continue;  // identical message: same successor
    out.push_back(deliver(state, index));
  }
  return out;
}

ExplorationResult<NetState> NdlogTransitionSystem::check_invariant_all_interleavings(
    const NetState& initial_state, const std::function<bool(const NetState&)>& invariant,
    std::size_t max_states) const {
  // The search runs on state ids; the invariant and the counterexample see
  // full snapshots, so the trace renders every intermediate routing table.
  using Id = StateSpace::Id;
  StateSpace space(*this);
  const auto found = check_invariant<Id>(
      {space.intern(initial_state)}, [&space](const Id& id) { return space.successors(id); },
      [&](const Id& id) { return invariant(space.snapshot(id)); }, max_states);
  ExplorationResult<NetState> result;
  result.property_holds = found.property_holds;
  result.exhausted = found.exhausted;
  result.states_explored = found.states_explored;
  result.transitions = found.transitions;
  for (Id id : found.counterexample) result.counterexample.push_back(space.snapshot(id));
  return result;
}

NdlogTransitionSystem::QuiescenceReport NdlogTransitionSystem::check_quiescent_states(
    const NetState& initial_state, const std::function<bool(const NetState&)>& property,
    std::size_t max_states) const {
  using Id = StateSpace::Id;
  QuiescenceReport report;
  StateSpace space(*this);
  // Breadth first over ids: the space hands them out in order of discovery,
  // so the frontier is every id not yet examined, and parent[id] is the
  // state whose expansion discovered it (the initial state, id 0, its own).
  std::vector<Id> parent{space.intern(initial_state)};
  for (Id id = 0; id < space.size(); ++id) {
    if (report.states_explored == max_states) {
      report.exhausted = false;
      break;
    }
    ++report.states_explored;
    if (!space.quiescent(id)) {
      for (Id next : space.successors(id)) {
        if (next == parent.size()) parent.push_back(id);
      }
      continue;
    }
    ++report.quiescent_states;
    // Two quiescent states differ in their stores, or they are one state.
    if (report.quiescent_states > 1) report.confluent = false;
    NetState state = space.snapshot(id);
    if (property(state)) continue;
    report.all_satisfy = false;
    if (!report.violating_state.empty()) continue;
    report.violating_state = state.encode();
    // The snapshot trace back to the initial state.
    report.violating_trace.push_back(std::move(state));
    for (Id cursor = id; cursor != 0;) {
      cursor = parent[cursor];
      report.violating_trace.push_back(space.snapshot(cursor));
    }
    std::reverse(report.violating_trace.begin(), report.violating_trace.end());
  }
  return report;
}

// ---------------------------------------------------------------------------
// StateSpace
// ---------------------------------------------------------------------------

namespace {

/// Folds one 32-bit id into a running hash.
std::size_t mix(std::size_t h, std::uint32_t x) noexcept {
  h = (h ^ x) * 0x9e3779b97f4a7c15ULL;
  return h ^ (h >> 29);
}

/// The splitmix64 finalizer of the id pair (a, b), salted.
std::uint64_t scramble(std::uint32_t a, std::uint32_t b, std::uint64_t salt) noexcept {
  std::uint64_t x = ((static_cast<std::uint64_t>(a) << 32) | b) ^ salt;
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// A state's hash sums one term per entry and one per in-flight message (a
// message in flight twice counts twice). The two kinds are salted apart, and
// an entry holding kEmptyTable has a term like any other, so it hashes apart
// from no entry at all.
std::uint64_t entry_term(std::uint32_t node, std::uint32_t table) noexcept {
  return scramble(node, table, 0x2545f4914f6cdd1dULL);
}
std::uint64_t message_term(std::uint32_t node, std::uint32_t tuple) noexcept {
  return scramble(node, tuple, 0xd6e8feb86659fd93ULL);
}

}  // namespace

std::size_t detail::IdsHash::operator()(const std::vector<std::uint32_t>& ids) const noexcept {
  std::size_t h = ids.size();
  for (std::uint32_t id : ids) h = mix(h, id);
  return h;
}

StateSpace::StateSpace(const NdlogTransitionSystem& ts) : ts_(&ts) {
  tables_.intern(std::vector<TupleId>{});  // kEmptyTable
}

StateSpace::TableId StateSpace::intern_table(std::vector<TupleId>& rows) {
  std::sort(rows.begin(), rows.end());
  return tables_.intern(rows);
}

StateSpace::Id StateSpace::intern(const NetState& state) {
  Packed packed;
  for (const auto& [node, rows] : state.stored) {
    const NodeId id = nodes_.intern(node);
    row_ids_.clear();
    for (const auto& t : rows) row_ids_.push_back(tuples_.intern(t));
    packed.tables.push_back(Entry{id, intern_table(row_ids_)});
  }
  std::sort(packed.tables.begin(), packed.tables.end(),
            [](const Entry& a, const Entry& b) { return a.node < b.node; });
  for (const auto& [node, tuple] : state.inflight) {
    packed.inflight.push_back(Message{nodes_.intern(node), tuples_.intern(tuple)});
  }
  for (const Entry& e : packed.tables) packed.hash += entry_term(e.node, e.table);
  for (const Message& m : packed.inflight) packed.hash += message_term(m.node, m.tuple);
  return states_.intern(std::move(packed));
}

NetState StateSpace::snapshot(Id id) const {
  const Packed& packed = states_[id];
  NetState out;
  for (const Entry& e : packed.tables) {
    auto& rows = out.stored[nodes_[e.node]];
    for (TupleId t : tables_[e.table]) rows.insert(tuples_[t]);
  }
  for (const Message& m : packed.inflight) {
    out.inflight.emplace_hint(out.inflight.end(), nodes_[m.node], tuples_[m.tuple]);
  }
  return out;
}

bool StateSpace::before(const Message& a, const Message& b) const {
  if (a.node != b.node) return nodes_[a.node] < nodes_[b.node];
  return a.tuple != b.tuple && tuples_[a.tuple] < tuples_[b.tuple];
}

const StateSpace::Step& StateSpace::local(NodeId node, TableId table, TupleId tuple) {
  if (table < steps_by_table_.size()) {
    for (const StepRef& ref : steps_by_table_[table]) {
      if (ref.node == node && ref.tuple == tuple) return steps_[ref.step];
    }
  }
  row_tuples_.clear();
  for (TupleId t : tables_[table]) row_tuples_.push_back(&tuples_[t]);
  auto result = ts_->local_step(nodes_[node], row_tuples_, tuples_[tuple]);
  row_ids_.clear();
  for (auto& t : result.table) row_ids_.push_back(tuples_.intern(std::move(t)));
  Step& step = steps_.emplace_back(Step{intern_table(row_ids_), {}});
  step.outbound.reserve(result.outbound.size());
  for (auto& [dest, t] : result.outbound) {
    const bool permanent = ts_->permanent(t.predicate());
    step.outbound.push_back(
        Send{Message{nodes_.intern(std::move(dest)), tuples_.intern(std::move(t))}, permanent});
  }
  if (table >= steps_by_table_.size()) steps_by_table_.resize(table + 1);
  steps_by_table_[table].push_back(
      StepRef{node, tuple, static_cast<std::uint32_t>(steps_.size() - 1)});
  return step;
}

StateSpace::Entry& StateSpace::entry(NodeId node) {
  auto& tables = scratch_.tables;
  auto it = std::lower_bound(tables.begin(), tables.end(), node,
                             [](const Entry& e, NodeId n) { return e.node < n; });
  if (it == tables.end() || it->node != node) {
    it = tables.insert(it, Entry{node, kEmptyTable});
    scratch_.hash += entry_term(node, kEmptyTable);
  }
  return *it;
}

std::vector<StateSpace::Id> StateSpace::successors(Id id) {
  // Interned states stay in place, so the source is read where it is
  // stored while its successors are interned.
  const Packed& state = states_[id];
  std::vector<Id> out;
  for (std::size_t i = 0; i < state.inflight.size(); ++i) {
    const Message m = state.inflight[i];
    if (i > 0 && state.inflight[i - 1] == m) continue;  // identical message: same successor
    // The successor is built in scratch_ and copied in only when it is new.
    Packed& next = scratch_;
    next.tables = state.tables;
    next.inflight.assign(state.inflight.begin(),
                         state.inflight.begin() + static_cast<std::ptrdiff_t>(i));
    next.inflight.insert(next.inflight.end(),
                         state.inflight.begin() + static_cast<std::ptrdiff_t>(i) + 1,
                         state.inflight.end());
    next.hash = state.hash - message_term(m.node, m.tuple);
    const TableId from = entry(m.node).table;
    const Step& step = local(m.node, from, m.tuple);
    entry(m.node).table = step.table;
    next.hash += entry_term(m.node, step.table) - entry_term(m.node, from);
    for (const auto& [sent, permanent] : step.outbound) {
      const auto stored = rows(entry(sent.node).table);
      if (permanent && std::binary_search(stored.begin(), stored.end(), sent.tuple)) continue;
      next.inflight.insert(
          std::upper_bound(next.inflight.begin(), next.inflight.end(), sent,
                           [this](const Message& a, const Message& b) { return before(a, b); }),
          sent);
      next.hash += message_term(sent.node, sent.tuple);
    }
    out.push_back(states_.intern(next));
  }
  return out;
}

}  // namespace fvn::mc
