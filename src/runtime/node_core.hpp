// One node's P2 table semantics, implemented once for both distributed
// runtimes: runtime::Simulator runs a map of cores under its event queue and
// virtual clock, and each net::Node runs one core under its channels and
// reliability layer (DESIGN.md §12.4).
//
// A core owns the node's database, the keyed-overwrite index
// (`materialize(..., keys(...))`: a hash set over the declared key fields
// whose entries point at the rows in the database, so the table holds at
// most one row per declared key and an install costs one probe), the
// soft-state lifetime bookkeeping and the compiled dataflow::Engine. It runs the rules on every tuple it is
// handed, installs and re-derives local derivations depth-first, and keeps
// aggregate rules up to date in settle(). Everything the executive has to
// act on — a derivation bound for another node, and every install, retract,
// expiry and lifetime refresh — reaches it through one hook, in the order it
// happens.
//
// This header also holds the construction path both runtimes share: the
// static checks and compilation of the plan, the facts a program embeds, and
// the merged view of the nodes' databases.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "dataflow/engine.hpp"
#include "dataflow/plan.hpp"
#include "ndlog/ast.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/database.hpp"
#include "obs/metrics.hpp"
#include "runtime/pred_table.hpp"

namespace fvn::runtime {

/// The live tuple lifecycle hook both runtimes take
/// (SimOptions::tuple_events, ClusterOptions::tuple_events): kind "install",
/// "retract" or "expire", the owning node, the tuple, and the time in
/// seconds.
using TupleEventHook = std::function<void(std::string_view kind, const std::string& node,
                                          const ndlog::Tuple& tuple, double now)>;

/// Exclusive-time layer timers for one single-threaded run. A Scope charges
/// its layer the time it is open minus the time of the scopes opened inside
/// it, so the layers add up to the wall time the outermost scopes cover.
/// runtime::Simulator owns one when SimOptions::metrics is set and hands it
/// to its cores; a core given none (net::Node, the model checker) times
/// nothing, and each of its scopes then costs one pointer test.
class LayerClock {
 public:
  enum Layer : std::uint8_t {
    Eval,       ///< the rule strands (dataflow::Engine::process)
    Install,    ///< install/retract/expire: database, key index, lifetimes
    Aggregate,  ///< settle() and the engine's aggregate upkeep on each write
    Change,     ///< the executive's change hook: stats, trace, tuple events, monitors
    Queue,      ///< the event loop: pop, push, per-event bookkeeping
  };
  static constexpr std::array<const char*, 5> kNames = {"eval", "install", "aggregate",
                                                        "change", "queue"};

  class Scope {
   public:
    Scope(LayerClock* clock, Layer layer) noexcept : clock_(clock) {
      if (clock_ != nullptr) parent_ = clock_->switch_to(layer);
    }
    ~Scope() {
      if (clock_ != nullptr) clock_->switch_to(parent_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    LayerClock* clock_;
    int parent_ = -1;
  };

  /// Exclusive nanoseconds charged to `layer` so far.
  std::uint64_t ns(Layer layer) const noexcept { return ns_[layer]; }

 private:
  /// Charge the running layer up to now and run `next` (-1: none) from
  /// here; returns the layer that was running.
  int switch_to(int next) noexcept {
    const auto now = std::chrono::steady_clock::now();
    if (current_ >= 0) {
      ns_[static_cast<std::size_t>(current_)] += static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(now - mark_).count());
    }
    mark_ = now;
    return std::exchange(current_, next);
  }

  std::array<std::uint64_t, kNames.size()> ns_{};
  int current_ = -1;
  std::chrono::steady_clock::time_point mark_;
};

class NodeCore {
 public:
  /// What a core reports to its executive.
  enum class Change : std::uint8_t {
    Remote,   ///< derived for another node: the executive ships it
    Install,  ///< a row entered the table (new, or the new row of an overwrite)
    Retract,  ///< a row left it: overwritten, withdrawn by an aggregate, retract()
    Expire,   ///< a soft-state row's lifetime ran out (expire())
    Refresh,  ///< a soft-state row was (re)stamped; it expires at expiry(row)
  };
  /// Called in the middle of a core operation: it may read the core but
  /// must not call back into deliver/settle/retract/expire.
  using Hook = std::function<void(const NodeCore& core, Change change,
                                  const ndlog::Tuple& tuple)>;

  /// `plan` and `preds` must outlive the core, and `layers` when set.
  /// `metrics` may be null (see dataflow::Engine); so may `layers`, which
  /// then times nothing.
  NodeCore(std::string name, const dataflow::Plan& plan, const PredTable& preds,
           obs::Registry* metrics, Hook hook, LayerClock* layers = nullptr);
  NodeCore(const NodeCore&) = delete;
  NodeCore& operator=(const NodeCore&) = delete;

  /// Take a tuple that arrived at this node — a message, a base fact or a
  /// periodic event — at time `now`: install it (unless it is transient),
  /// then run the rules on it. A duplicate changes nothing and derives
  /// nothing. Aggregates are left for settle().
  void deliver(const ndlog::Tuple& tuple, double now);
  /// Aggregate maintenance: flush every aggregate rule and apply its deltas
  /// (withdraw the local rows that moved, route the new ones), repeating
  /// until a pass moves nothing — a pass's own installs can re-dirty one.
  void settle(double now);
  /// Delete a row (no derivation cascade, P2-style); no-op if absent.
  void retract(const ndlog::Tuple& tuple);
  /// Expire a soft-state row whose latest refresh is due by `now`. Returns
  /// false when a later refresh superseded it.
  bool expire(const ndlog::Tuple& tuple, double now);
  /// When the latest refresh of a soft-state row expires.
  double expiry(const ndlog::Tuple& tuple) const { return expires_at_.at(tuple); }
  /// Load a stored table into a fresh core: install `rows` with no hook
  /// call and no derivation, then flush every aggregate once and drop the
  /// deltas, so the engine's last emitted view is the table's. This is
  /// exact — the result is the core that stored the table — only for a
  /// table a settle() left, where no aggregate has a pending delta; those
  /// are the only tables mc::NdlogTransitionSystem stores. Rows get no
  /// lifetime: the checker models hard state only. `rows` are distinct and
  /// may come in any order: they are installed in ascending tuple order,
  /// because a database bucket keeps insertion order, and that order can
  /// decide which of two derivations with one key is installed last.
  void restore(std::span<const ndlog::Tuple* const> rows);

  const std::string& name() const noexcept { return name_; }
  const ndlog::Database& database() const noexcept { return db_; }
  /// Keyed overwrites among the installs so far.
  std::uint64_t overwrites() const noexcept { return overwrites_; }

 private:
  /// Keyed install; true when the table changed (new row or overwrite).
  bool install(const ndlog::Tuple& tuple, double now);
  /// Take `tuple` out of the key index and the database and tell the
  /// engine; false when the node does not store it.
  bool remove(const ndlog::Tuple& tuple);
  /// The engine's aggregate upkeep for one table write.
  void on_insert(const ndlog::Tuple& tuple);
  void on_erase(const ndlog::Tuple& tuple);
  /// Run the rules on one delta and route what they derive.
  void derive(const ndlog::Tuple& delta, double now);
  /// A derivation: install and re-derive it here, or report it as Remote.
  void route(const ndlog::Tuple& tuple, double now);

  std::string name_;
  const PredTable* preds_;
  Hook hook_;
  LayerClock* layers_;
  dataflow::Engine engine_;
  ndlog::Database db_;
  KeyIndex by_key_;
  /// Soft-state rows -> expiry of their latest refresh.
  std::map<ndlog::Tuple, double> expires_at_;
  std::vector<dataflow::Engine::AggDelta> deltas_;  // settle() scratch
  std::uint64_t overwrites_ = 0;
};

/// The static checks every run needs (arities, safety, and stratification
/// when required), then the compiled plan every node of a localized program
/// executes.
dataflow::Plan checked_plan(const ndlog::Program& localized, bool require_stratified,
                            const dataflow::PlanOptions& options);

/// The ground facts a program embeds (rules with empty bodies), evaluated.
std::vector<ndlog::Tuple> embedded_facts(const ndlog::Program& program);

/// True when a rule body reads `periodic`.
bool uses_periodic(const ndlog::Program& program);

/// What a runtime with no clock cannot run in `program`: "predicate <p> has
/// a finite lifetime (soft state)" for the first such predicate, else
/// "program uses periodic"; empty for a hard-state program. net::Cluster
/// and mc::NdlogTransitionSystem refuse a program this names.
std::string soft_state_feature(const ndlog::Program& program, const ndlog::Catalog& catalog);

/// Adds every row of `db` to `merged`: the runtimes' merged_database().
void merge_into(ndlog::Database& merged, const ndlog::Database& db);

}  // namespace fvn::runtime
