// The distributed declarative-networking executor — FVN's stand-in for the
// P2 system (arc 7 of Figure 1): a discrete-event simulator over one
// runtime::NodeCore per network node. Each core runs the compiled dataflow
// engine over its local tables; the simulator adds the event queue, the
// virtual clock and the delay/loss model, so derived tuples whose location
// specifier names another node travel as messages with configurable delay
// and loss.
//
// Features exercised by the experiments:
//   * location-specifier routing (the '@' of §2.2),
//   * per-(key) overwrite semantics for materialized tables (P2-style
//     primary keys from `materialize(..., keys(...))`, kept by the core),
//   * soft state: tuples with finite lifetime expire; `periodic(@N,I)`
//     events re-fire every I seconds (the native alternative to §4.2's
//     hard-state rewrite, experiment E8),
//   * a live tuple-event hook that runtime monitors watch (the
//     runtime-verification arc of §1),
//   * quiescence detection: convergence time and message counts (E5).
//
// Cadence: each delivered event (a message, a base fact, a periodic tick or
// a retraction) runs to completion at its node — the rules on the tuple,
// its local derivations depth-first — and then settles that node's
// aggregates once. Expiry does not settle: the node's aggregates catch up
// at its next delivery.
#pragma once

#include <chrono>
#include <map>
#include <memory>
#include <random>
#include <string_view>
#include <unordered_map>

#include "dataflow/plan.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/node_core.hpp"
#include "runtime/pred_table.hpp"

namespace fvn::runtime {

struct SimOptions {
  double default_link_delay = 0.01;  // seconds
  /// Per-message drop probability. Loss draws come from a dedicated RNG
  /// stream (derived from `seed`), separate from the jitter stream below, so
  /// a seeded loss pattern is stable when `delay_jitter` is toggled — and a
  /// seeded jitter schedule is stable when `loss_rate` is toggled.
  double loss_rate = 0.0;
  /// Seeds both RNG streams: the jitter stream directly, the loss stream via
  /// a splitmix64 derivation.
  std::uint64_t seed = 1;
  /// Seed-driven per-message delay jitter: each message's delay is
  /// multiplied by 1 + U(0, delay_jitter) drawn from the jitter RNG stream
  /// (seeded with `seed`), so different seeds explore different arrival
  /// orders. 0 (the default) keeps schedules fully deterministic — existing
  /// differential tests rely on bit-identical runs. The semantic analyzer's
  /// order-sensitivity cross-validation (ND0016/ND0017) uses this to witness
  /// racing fixpoints with two seeds; those witnesses depend on the jitter
  /// stream consuming exactly one draw per non-local send, which is why loss
  /// draws live on their own stream (see loss_rate).
  double delay_jitter = 0.0;
  double max_time = 1e6;
  std::size_t max_events = 5'000'000;
  /// Fire `periodic(@N,Interval)` events at every node that the program
  /// mentions, until max_time (bounded by this count per node).
  std::size_t max_periodic_rounds = 0;
  double periodic_interval = 1.0;
  /// Require the program to be stratifiable (the static semantics guarantee).
  /// Periodic/soft-state protocols whose aggregate feedback loops are broken
  /// by time rather than by strata (e.g. distance-vector with re-advertised
  /// best routes) set this to false; the executor's incremental semantics is
  /// still well-defined operationally, as in P2.
  bool require_stratified = true;
  /// Record an event trace (see Simulator::trace()); off by default — traces
  /// grow linearly with event count.
  bool record_trace = false;
  /// Observability sinks (may be null — the default — for zero overhead).
  /// With `metrics`, the simulator records per-node message counters
  /// (sim/node/<n>/{sent,received,dropped,installed}), overwrite/expiry
  /// counters, the per-element dataflow/elem/* series of the compiled rule
  /// strands, a sim/queue_depth histogram sampled at every event, and the
  /// split of run()'s wall time (timer sim/run) into exclusive layers
  /// (timers sim/layer/<name>, LayerClock::kNames: eval, install,
  /// aggregate, change, queue).
  /// With `obs_trace`, it emits instants and counter samples stamped in
  /// *virtual* time (simulated seconds as trace microseconds), so the
  /// exported Chrome trace shows protocol time, not host time.
  obs::Registry* metrics = nullptr;
  obs::Trace* obs_trace = nullptr;
  /// Live engine-agnostic tuple lifecycle hook: called after every database
  /// mutation with kind "install" / "retract" / "expire", the owning node,
  /// the tuple and the virtual time. Null (the default) costs nothing. LTL
  /// runtime monitors (`sim --monitor`, bench_ltl) attach here, as on
  /// ClusterOptions::tuple_events; the same stream is exported as cat
  /// "tuple" obs instants when obs_trace is set, with args
  /// {"node":...,"tuple":...}, one per table change.
  TupleEventHook tuple_events;
  /// Maintain aggregate views via per-group ± deltas where the planner
  /// proves it exact (false forces the recompute fallback for every
  /// aggregate rule — the ablation knob).
  bool incremental_aggregates = true;
  /// Compile with cost-guided join ordering
  /// (dataflow::PlanOptions::cost_order).
  bool cost_order = false;
};

/// One recorded simulation event (Pip-style trace entry for offline checks).
/// A Deliver entry (a message or base fact reaching `node`) comes before
/// the entries its processing records. Install, Retract (a row overwritten,
/// withdrawn by an aggregate, or retracted) and Expire are the table
/// changes, so folding them replays every node's table.
struct TraceEntry {
  double time = 0.0;
  enum class Kind : std::uint8_t { Send, Deliver, Install, Expire, Retract } kind;
  std::string node;  // acting node (sender for Send, owner otherwise)
  std::string detail;
};

struct SimStats {
  std::size_t events_processed = 0;
  std::size_t messages_sent = 0;
  std::size_t messages_dropped = 0;
  std::size_t tuples_derived = 0;
  std::size_t overwrites = 0;      // key-replacement updates
  std::size_t expirations = 0;     // soft-state timeouts
  double last_change_time = 0.0;   // convergence instant (quiescence)
  /// Per-predicate settle time: when each relation last changed anywhere
  /// (E5's "delayed convergence" is visible on bestRoute).
  std::map<std::string, double> last_change_by_predicate;
  double end_time = 0.0;
  bool quiesced = false;           // queue drained before budget exhausted
};

/// Discrete-event distributed executor for one NDlog program.
class Simulator {
 public:
  Simulator(ndlog::Program program, SimOptions options = {});
  /// Every node core's hook points back at this simulator.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  /// Nodes are created implicitly by fact locations; explicit creation is
  /// useful for nodes that only receive.
  void add_node(const std::string& name);

  /// Override the delay of the directed link a->b (defaults apply otherwise).
  void set_link_delay(const std::string& from, const std::string& to, double delay);

  /// Inject a base fact at `time`; it is delivered to the node named by its
  /// location attribute.
  void inject(const ndlog::Tuple& fact, double time = 0.0);
  void inject_all(const std::vector<ndlog::Tuple>& facts, double time = 0.0);

  /// Delete a base tuple at `time` (e.g. a link failure). No derivation
  /// cascade is performed (P2-style); soft state re-derives around it. The
  /// node's aggregates settle right after, like after a delivery.
  void retract(const ndlog::Tuple& fact, double time);

  /// Run to quiescence (or budget exhaustion). May be called once.
  SimStats run();

  /// Local database of a node (valid after run()).
  const ndlog::Database& database(const std::string& node) const;
  /// The compiled dataflow plan every node executes.
  const dataflow::Plan& plan() const noexcept { return plan_; }
  /// Recorded events (empty unless options.record_trace).
  const std::vector<TraceEntry>& trace() const noexcept { return trace_; }
  /// Union of all nodes' relations (for comparing with the centralized
  /// evaluator's result).
  ndlog::Database merged_database() const;
  std::vector<std::string> nodes() const;

 private:
  /// A min-heap entry of queue_, ordered by (time, sequence). It acts at
  /// the node its tuple's location attribute names.
  struct Event {
    double time = 0.0;
    std::uint64_t sequence = 0;  // FIFO tie-break for determinism
    enum class Kind : std::uint8_t { Deliver, Expire, Retract, Periodic } kind = Kind::Deliver;
    ndlog::Tuple tuple;
    bool operator>(const Event& other) const {
      if (time != other.time) return time > other.time;
      return sequence > other.sequence;
    }
  };

  /// One simulated node: its core, and its sim/node/<name>/... counters,
  /// each looked up on first use and kept (registry series never move), so
  /// the registry holds exactly the series a run records.
  struct Node {
    Node(Simulator& sim, const std::string& name);
    Node(const Node&) = delete;
    Node& operator=(const Node&) = delete;

    NodeCore core;
    obs::Counter* installed = nullptr;
    obs::Counter* sent = nullptr;
    obs::Counter* dropped = nullptr;
    obs::Counter* received = nullptr;
    obs::Counter* expired = nullptr;
  };
  /// The node named `name`, created on first use.
  Node& node_of(const std::string& name);
  /// The node at `tuple`'s location, created on first use.
  Node& node_at(const ndlog::Tuple& tuple);
  /// Adds one to `node`'s sim/node/<name>/<what> counter (kept in `slot`)
  /// when metrics are on.
  void count(const Node& node, obs::Counter*& slot, std::string_view what);
  void schedule(double time, Event::Kind kind, ndlog::Tuple tuple);
  /// Take the earliest event off the queue (moved, not copied).
  Event pop();
  void send(Node& sender, const ndlog::Tuple& tuple);
  /// Every core's hook: ships remote derivations, schedules expiries, and
  /// records every table change (stats, trace, metrics, tuple events) at the
  /// current event's time.
  void on_change(Node& target, NodeCore::Change change, const ndlog::Tuple& tuple);
  /// Structured tuple-event emission (SimOptions::tuple_events + cat "tuple"
  /// obs instants); `kind` is "install", "retract" or "expire".
  void tuple_event(std::string_view kind, const std::string& node,
                   const ndlog::Tuple& tuple);
  /// Fold the cores' overwrite counts into the stats and metrics at the end
  /// of run().
  SimStats& finish();

  ndlog::Program program_;
  ndlog::Catalog catalog_;
  SimOptions options_;
  dataflow::Plan plan_;
  PredTable preds_;

  /// The layer timers every core times into; null unless options_.metrics
  /// is set.
  std::unique_ptr<LayerClock> layers_;
  std::chrono::steady_clock::time_point run_start_;
  std::map<std::string, Node> nodes_;
  /// nodes_ by the interned symbol of each name: how an event finds its
  /// node when it pops.
  std::unordered_map<const ndlog::Symbol*, Node*> by_location_;
  /// Delay overrides by sender, then receiver: a send probes with the two
  /// names it holds, copying neither.
  std::map<std::string, std::map<std::string, double>> link_delays_;
  std::vector<Event> queue_;  // a heap: std::push_heap/pop_heap, std::greater
  std::uint64_t sequence_ = 0;
  /// Jitter stream (delay_jitter draws). Kept separate from loss_rng_ so the
  /// two fault knobs can be toggled independently without perturbing each
  /// other's seeded schedules.
  std::mt19937_64 rng_;
  /// Loss stream (loss_rate draws), seeded from `seed` via splitmix64.
  std::mt19937_64 loss_rng_;
  std::vector<TraceEntry> trace_;
  SimStats stats_;
  double now_ = 0.0;  ///< virtual time of the event being processed
  bool ran_ = false;
  bool uses_periodic_ = false;
};

}  // namespace fvn::runtime
