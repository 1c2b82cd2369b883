// Per-node execution of a compiled Plan: one tuple delta at a time through
// the rule strands (true incremental semi-naive — no per-message
// re-evaluation), plus incremental aggregate view maintenance driven by
// database-mirror hooks. The node core (runtime::NodeCore) owns the tables,
// keyed overwrite, soft-state expiry and the routing of what the engine
// derives; the engine owns only the compiled hot path.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <unordered_map>
#include <vector>

#include "dataflow/plan.hpp"
#include "ndlog/database.hpp"
#include "ndlog/eval.hpp"
#include "obs/metrics.hpp"

namespace fvn::dataflow {

/// Counters for one engine (aggregated across elements; per-element in/out
/// counters live in the obs registry under dataflow/elem/...).
struct EngineStats {
  std::uint64_t deltas_processed = 0;  // process() calls
  std::uint64_t tuples_emitted = 0;    // head tuples handed to the executive
  std::uint64_t probes = 0;            // tuples examined by relational elements
  std::uint64_t agg_updates = 0;       // group-state ± applications
};

class Engine {
 public:
  /// `plan` must outlive the engine. `metrics` may be null; when set, every
  /// element gets dataflow/elem/<rule>[d<pos>]/<elem>/{in,out} counters
  /// (shared across engines — i.e. across simulated nodes).
  explicit Engine(const Plan& plan, obs::Registry* metrics = nullptr);

  /// Push one delta tuple through every strand whose delta predicate
  /// matches, in plan order, appending head tuples to `out` in exactly the
  /// order the interpreter's eval_rule_delta loop would produce them. `db`
  /// is the node's local database (the delta itself need not be stored —
  /// transient periodic tuples are processed without installation).
  /// Precondition, here and in on_insert/on_erase: every table of `db`
  /// holds at most one row per declared key (keyed overwrite, as
  /// runtime::NodeCore installs). The planner's key-bound joins rely on it
  /// to match the interpreter's order (DESIGN.md §10).
  void process(const ndlog::Tuple& delta, const ndlog::Database& db,
               std::vector<ndlog::Tuple>& out);

  /// Database-mirror hooks: the caller MUST call these for every local
  /// table mutation (install, overwrite, expiry, retraction, aggregate-row
  /// erasure) so incremental aggregate state tracks the database exactly.
  void on_insert(const ndlog::Tuple& tuple, const ndlog::Database& db);
  void on_erase(const ndlog::Tuple& tuple, const ndlog::Database& db);

  std::size_t aggregate_count() const noexcept { return plan_->aggregates.size(); }

  /// One aggregate group whose output row changed since the last flush.
  /// `retract` is the previously-emitted row (absent for a new group),
  /// `assert_now` the current row (absent when the group emptied).
  struct AggDelta {
    std::optional<ndlog::Tuple> retract;
    std::optional<ndlog::Tuple> assert_now;
  };

  /// Aggregate maintenance for rule `index`: one AggDelta per group whose
  /// output row moved since the last flush, in strictly increasing
  /// group-key order, under both planner modes. An incremental plan visits
  /// only the groups its strands dirtied, so a flush costs O(changed
  /// groups); a recompute plan re-evaluates the rule over `db` and diffs
  /// that view against the rows it emitted last. Clears and fills `out`;
  /// returns true when `out` is non-empty.
  bool flush_aggregate(std::size_t index, const ndlog::Database& db,
                       std::vector<AggDelta>& out);

  const EngineStats& stats() const noexcept { return stats_; }
  const Plan& plan() const noexcept { return *plan_; }

 private:
  struct ElemObs {
    obs::Counter* in = nullptr;
    obs::Counter* out = nullptr;
  };
  using StrandObs = std::vector<ElemObs>;
  using GroupKey = std::vector<ndlog::Value>;
  /// Per-group aggregate state: group key (full head-args vector, nil at the
  /// aggregate position) -> multiset of bound aggregate-variable values.
  /// Never iterated, so its hash order is unobservable.
  using GroupState =
      std::unordered_map<GroupKey, std::map<ndlog::Value, std::int64_t>, ndlog::ValuesHash>;
  struct AggState {
    GroupState groups;
    bool dirty = false;
    /// Flush bookkeeping: groups touched since the last flush, in touch
    /// order with repeats (the flush sorts and de-duplicates them), and the
    /// aggregate value last emitted per group (absent = group never emitted
    /// / last emitted a retraction).
    std::vector<GroupKey> dirty_keys;
    std::unordered_map<GroupKey, ndlog::Value, ndlog::ValuesHash> emitted;
  };
  struct RunCtx {
    const Strand* strand = nullptr;
    const StrandObs* obs = nullptr;
    const ndlog::Tuple* delta = nullptr;
    const ndlog::Database* db = nullptr;
    std::vector<ndlog::Tuple>* out = nullptr;  // Project sink
    GroupState* groups = nullptr;              // Aggregate sink
    std::vector<GroupKey>* dirty_keys = nullptr;  // flush log
    int sign = +1;
  };

  void run_strand(const Strand& strand, const StrandObs& obs, const ndlog::Tuple& delta,
                  const ndlog::Database& db, std::vector<ndlog::Tuple>* out,
                  GroupState* groups, int sign,
                  std::vector<GroupKey>* dirty_keys = nullptr);
  static ndlog::Value aggregate_value(const AggregateRulePlan& ap,
                                      const std::map<ndlog::Value, std::int64_t>& group);
  void exec(RunCtx& ctx, std::size_t ei);
  bool match(const Element& element, const ndlog::Tuple& tuple);
  void touch(const ndlog::Tuple& tuple, int sign, const ndlog::Database& db);
  StrandObs series_of(const Strand& strand) const;

  const Plan* plan_;
  obs::Registry* metrics_;
  std::vector<StrandObs> strand_obs_;               // parallel to plan_->strands
  std::vector<std::vector<StrandObs>> agg_obs_;     // parallel to aggregates
  std::vector<AggState> agg_;
  ndlog::RuleEngine fallback_;  // recompute-mode aggregate evaluation
  std::vector<ndlog::Value> regs_;
  EngineStats stats_;
};

}  // namespace fvn::dataflow
