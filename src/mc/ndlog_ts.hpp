// NDlog programs as transition systems (the §4.2/§4.3 linear-logic view,
// arcs 6/8 of Figure 1): a state is every node's local table contents plus
// the multiset of in-flight messages; a transition delivers one in-flight
// tuple to its destination node, which runs its local rules to fixpoint and
// emits new messages. The model checker then explores *all* message
// interleavings — the verification mechanism the paper envisions on top of
// the transition-system representation.
//
// A delivery runs the runtimes' own node code, runtime::NodeCore, as one
// Simulator event does: install the tuple, derive depth-first, settle the
// aggregates. So a verdict holds for the code sim and dist execute. Hard
// state only: the constructor refuses finite lifetimes and `periodic`.
//
// Explorations run on a StateSpace: tuples, node names, node tables and
// states are interned to dense ids, and the local fixpoint runs once per
// distinct (node, table, arriving tuple). NetState is the readable snapshot
// handed to user predicates and counterexamples (DESIGN.md §14.3).
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <set>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/plan.hpp"
#include "mc/checker.hpp"
#include "ndlog/catalog.hpp"
#include "runtime/pred_table.hpp"

namespace fvn::mc {

/// A network state: per-node stored tuples plus in-flight messages.
struct NetState {
  std::map<std::string, std::set<ndlog::Tuple>> stored;
  /// In-flight (destination, tuple) messages, canonically sorted.
  std::multiset<std::pair<std::string, ndlog::Tuple>> inflight;

  bool quiescent() const { return inflight.empty(); }
  std::string encode() const;
  bool operator==(const NetState& other) const = default;
};

/// Human rendering: one block per node listing its stored tuples, then the
/// in-flight messages. Counterexample traces print one of these per step.
std::string render_state(const NetState& state, std::string_view indent = "  ");

/// Transition system for one (localized) NDlog program. Immutable after
/// construction, apart from the lazily filled runtime::PredTable it reads
/// catalog facts through, so one system serves one thread; explorations
/// keep their caches in a StateSpace. The PredTable borrows the catalog
/// member, so the system is neither copied nor moved.
class NdlogTransitionSystem {
 public:
  /// Runs the runtimes' static checks (arities, safety, stratification)
  /// and compiles their plan; throws ndlog::AnalysisError on a program that
  /// fails them or that has soft state (runtime::soft_state_feature).
  explicit NdlogTransitionSystem(ndlog::Program program);
  NdlogTransitionSystem(const NdlogTransitionSystem&) = delete;
  NdlogTransitionSystem& operator=(const NdlogTransitionSystem&) = delete;

  /// Initial state: all base facts in flight toward their location nodes.
  NetState initial(const std::vector<ndlog::Tuple>& facts) const;

  /// What one delivery does at its destination node.
  struct LocalStep {
    /// The node's table after the fixpoint, each row once, in no set order.
    std::vector<ndlog::Tuple> table;
    /// Messages to other nodes in derivation order; a tuple derived twice is
    /// sent twice.
    std::vector<std::pair<std::string, ndlog::Tuple>> outbound;
  };
  /// Deliver `arriving` to a runtime::NodeCore restored from `node`'s
  /// `table` (distinct rows, in any order) and settle it, as a Simulator
  /// does for one event. A pure function of its arguments, so StateSpace
  /// runs it once per distinct (node, table, tuple).
  LocalStep local_step(const std::string& node, std::span<const ndlog::Tuple* const> table,
                       const ndlog::Tuple& arriving) const;

  /// True when a stored row of `predicate` can never leave its table: its
  /// key is the whole tuple, so no keyed overwrite replaces it, and no
  /// aggregate rule writes the predicate, so no settle withdraws it.
  bool permanent(const std::string& predicate) const {
    return permanent_.contains(predicate);
  }

  /// Deliver the in-flight message at `index` (into the sorted multiset). An
  /// outbound tuple of a permanent predicate that its destination already
  /// stores is not put in flight: delivering it could change nothing.
  NetState deliver(const NetState& state, std::size_t index) const;

  /// All successor states (one per distinct in-flight message, in multiset
  /// order). The snapshot-level reference for StateSpace::successors.
  std::vector<NetState> successors(const NetState& state) const;

  /// Find a state by exploring; predicate-driven (BFS, bounded). The
  /// counterexample carries *full state snapshots* (per-node tables plus
  /// in-flight messages), not just encoded transition labels, so temporal
  /// counterexamples can render each intermediate routing table.
  ExplorationResult<NetState> check_invariant_all_interleavings(
      const NetState& initial_state,
      const std::function<bool(const NetState&)>& invariant,
      std::size_t max_states = 50000) const;

  struct QuiescenceReport {
    std::size_t states_explored = 0;
    std::size_t quiescent_states = 0;
    bool exhausted = true;
    bool all_satisfy = true;      // every quiescent state satisfies the predicate
    bool confluent = true;        // all quiescent states have identical stores
    std::string violating_state;  // encoded witness, when !all_satisfy
    /// Full snapshot trace from the initial state to the first violating
    /// quiescent state (empty when all_satisfy).
    std::vector<NetState> violating_trace;
  };

  /// Explore every message interleaving to quiescence and check an
  /// *eventual* property: does every terminal (no in-flight messages) state
  /// satisfy `property`? Also reports confluence (a Church–Rosser check for
  /// the program on this instance) — the eventual-consistency question the
  /// paper's §4.2 raises for soft-state reasoning. A budget of N examines up
  /// to N states; `exhausted` is false only when an unexamined state remains.
  QuiescenceReport check_quiescent_states(
      const NetState& initial_state,
      const std::function<bool(const NetState&)>& property,
      std::size_t max_states = 50000) const;

  const ndlog::Program& program() const noexcept { return program_; }

 private:
  ndlog::Program program_;
  ndlog::Catalog catalog_;
  dataflow::Plan plan_;
  runtime::PredTable preds_;
  std::set<std::string> permanent_;
};

namespace detail {

/// Dense ids, in order of first sight, for the distinct keys interned. Keys
/// live in the map's nodes, which never move, so an id stays a valid handle
/// as the map grows. A copy would point into the original's nodes, so there
/// is none; a move keeps the nodes.
template <typename Key, typename Hash = std::hash<Key>>
class Interner {
 public:
  Interner() = default;
  Interner(const Interner&) = delete;
  Interner& operator=(const Interner&) = delete;
  Interner(Interner&&) = default;
  Interner& operator=(Interner&&) = default;

  /// Copies `key` in only when it is new.
  std::uint32_t intern(const Key& key) {
    if (const auto it = ids_.find(key); it != ids_.end()) return it->second;
    return intern(Key(key));
  }
  std::uint32_t intern(Key&& key) {
    const auto [it, fresh] =
        ids_.try_emplace(std::move(key), static_cast<std::uint32_t>(keys_.size()));
    if (fresh) keys_.push_back(&it->first);
    return it->second;
  }
  const Key& operator[](std::uint32_t id) const { return *keys_[id]; }
  std::size_t size() const noexcept { return keys_.size(); }

 private:
  std::unordered_map<Key, std::uint32_t, Hash> ids_;
  std::vector<const Key*> keys_;
};

struct IdsHash {
  std::size_t operator()(const std::vector<std::uint32_t>& ids) const noexcept;
};

}  // namespace detail

/// The interned state graph of one exploration. Tuples and node names get
/// dense ids, each node's table is hash-consed to a table id, and a state is
/// its (node, table) entries plus its sorted in-flight (node, tuple)
/// multiset, compared and hashed as integers. Successors are computed from
/// a cache of local steps keyed by (node, table id, tuple id), checked
/// against `NdlogTransitionSystem::successors` by tests/test_mc.cpp. Like
/// the system it borrows, a space serves one thread.
class StateSpace {
 public:
  using Id = std::uint32_t;       ///< a system state, in order of discovery
  using NodeId = std::uint32_t;
  using TableId = std::uint32_t;  ///< kEmptyTable is the empty table
  using TupleId = std::uint32_t;
  static constexpr TableId kEmptyTable = 0;

  struct Entry {
    NodeId node;
    TableId table;
    bool operator==(const Entry&) const = default;
  };

  /// Borrows `ts`, which must outlive the space.
  explicit StateSpace(const NdlogTransitionSystem& ts);

  Id intern(const NetState& state);
  NetState snapshot(Id id) const;

  /// One successor per distinct in-flight message, in NetState multiset
  /// order (destination name, then tuple), as `ts.successors` gives them.
  std::vector<Id> successors(Id id);
  bool quiescent(Id id) const { return states_[id].inflight.empty(); }

  /// The state's node entries, by ascending node id. A node that has
  /// received nothing has no entry, which is not the same state as an entry
  /// holding kEmptyTable. Views into the space stay valid while it lives.
  std::span<const Entry> tables(Id id) const { return states_[id].tables; }
  /// A table's rows, by ascending tuple id.
  std::span<const TupleId> rows(TableId table) const { return tables_[table]; }
  const ndlog::Tuple& tuple(TupleId id) const { return tuples_[id]; }

  /// Distinct system states interned so far.
  std::size_t size() const noexcept { return states_.size(); }
  /// Local fixpoints actually run (cache misses).
  std::size_t local_steps() const noexcept { return steps_.size(); }

 private:
  struct Message {
    NodeId node;
    TupleId tuple;
    bool operator==(const Message&) const = default;
  };
  struct Packed {
    /// One term per entry plus one per in-flight message, summed: the sum
    /// ignores order, so a successor's hash is its parent's adjusted by
    /// what the delivery changed.
    std::uint64_t hash = 0;
    std::vector<Entry> tables;      // ascending node id
    std::vector<Message> inflight;  // NetState::inflight order
    bool operator==(const Packed&) const = default;  // hash first
  };
  struct PackedHash {
    std::size_t operator()(const Packed& state) const noexcept { return state.hash; }
  };
  struct Send {
    Message message;
    bool permanent;  ///< NdlogTransitionSystem::permanent of its predicate
  };
  struct Step {
    TableId table;
    std::vector<Send> outbound;
  };
  /// A cached step of the table it is filed under.
  struct StepRef {
    NodeId node;
    TupleId tuple;
    std::uint32_t step;  ///< index into steps_
  };

  /// Sorts `rows` and interns the table they make.
  TableId intern_table(std::vector<TupleId>& rows);
  const Step& local(NodeId node, TableId table, TupleId tuple);
  /// `node`'s entry in `scratch_`, inserted holding kEmptyTable when the
  /// node has none.
  Entry& entry(NodeId node);
  /// NetState::inflight order: destination name, then tuple.
  bool before(const Message& a, const Message& b) const;

  const NdlogTransitionSystem* ts_;
  detail::Interner<std::string> nodes_;
  detail::Interner<ndlog::Tuple, ndlog::TupleHash> tuples_;
  detail::Interner<std::vector<TupleId>, detail::IdsHash> tables_;
  detail::Interner<Packed, PackedHash> states_;
  /// The local-step cache: steps in a deque, which keeps them in place as
  /// it grows, filed by the table they start from.
  std::deque<Step> steps_;
  std::vector<std::vector<StepRef>> steps_by_table_;
  /// Scratch reused across calls: the successor being built, and a table's
  /// rows as ids or as tuples.
  Packed scratch_;
  std::vector<TupleId> row_ids_;
  std::vector<const ndlog::Tuple*> row_tuples_;
};

}  // namespace fvn::mc
