// fvn::net cluster — orchestrates N concurrently-executing Nodes over a
// Transport and detects distributed termination (DESIGN.md §12).
//
// Lifecycle: construct (localizes + checks the program, compiles the
// dataflow plan every node runs), inject() base facts, run() once. run() builds
// the transport, registers every node that can ever be addressed (every
// Addr value reachable from a base fact — location specifiers cannot be
// synthesized, only copied, so this is the complete node universe), starts
// one thread per node, then polls for quiescence:
//
//   quiesced  :=  for kConfirmingScans (3, cluster.cpp) consecutive scans:
//                 every node idle  AND  transport quiet (mailboxes, hold
//                 queues, kernel buffers empty)  AND  total unacked == 0
//                 AND  the summed activity counter did not change
//
// This is a double-scan (Safra-style) argument: a message in flight at poll
// time is either buffered somewhere (transport not quiet), unacknowledged
// (unacked > 0), held by a node that popped it or has not flushed what it
// derived (that node reads busy), or was already processed (activity moved
// between polls). Requiring all of them stable across consecutive scans
// closes the window in which a frame hops between the categories unseen.
// See DESIGN.md §12 for the full argument.
//
// Books: each node keeps its own NodeStats; after join, run() sums them into
// ClusterStats and, with a registry, adds them under net/node/<n>/..., so
// the registry is never written while node threads run.
//
// Scope: hard-state programs only. Soft state (finite lifetimes) and
// `periodic` need per-node clocks and never quiesce; the constructor rejects
// them with ClusterError — the discrete-event Simulator remains the executor
// for those.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fvn::net {

/// A program the cluster cannot run (soft state, periodic, no nodes), or a
/// run-time failure inside a node thread.
class ClusterError : public std::runtime_error {
 public:
  explicit ClusterError(const std::string& what) : std::runtime_error(what) {}
};

enum class TransportKind : std::uint8_t { InProc, Udp };

struct ClusterOptions {
  TransportKind transport = TransportKind::InProc;
  /// Seeded transport misbehavior, masked by the nodes' ack+retransmit
  /// channels.
  FaultOptions faults;
  /// Wall-clock budget; exceeded => stats.quiesced = false.
  double max_seconds = 30.0;
  bool require_stratified = true;
  bool incremental_aggregates = true;
  /// Compile with cost-guided join ordering.
  bool cost_order = false;
  /// Observability sinks (null = off). With `metrics`, nodes also record
  /// their histograms and timers, and run() adds every node's books after
  /// join as net/node/<n>/{sent,received,retransmitted,acked,installed,
  /// bytes_sent,bytes_received,ack_bytes,tuples_shipped} (counters),
  /// {mailbox_depth,batch_size} (histograms) and {encode,decode} (timers).
  /// With `trace`, the *coordinator* emits cluster-level counter samples each
  /// poll.
  obs::Registry* metrics = nullptr;
  obs::Trace* trace = nullptr;
  /// Live engine-agnostic tuple-event hook, invoked inline from node threads
  /// for every install/retract — the same signature (and kinds) as
  /// SimOptions::tuple_events, timestamped with the emitting node's clock in
  /// seconds. Fires concurrently from every node thread: the callee must be
  /// internally synchronized (`dist --monitor` locks a mutex around its
  /// ltl::MonitorSet; the concurrent serve::Feed locks its own). A
  /// node's call returns before the derivations the change triggers are
  /// shipped, so the serialized stream is a linearization of the run.
  runtime::TupleEventHook tuple_events;
};

struct ClusterStats {
  std::size_t nodes = 0;
  std::uint64_t messages_sent = 0;        ///< DataBatch frames first-transmitted
  std::uint64_t messages_received = 0;    ///< DataBatch frames delivered in order
  std::uint64_t tuples_shipped = 0;       ///< tuples carried by sent batches
  std::uint64_t tuples_received = 0;      ///< tuples carried by delivered batches
  std::uint64_t retransmitted = 0;
  std::uint64_t acked = 0;
  std::uint64_t acks_sent = 0;            ///< Ack frames transmitted
  std::uint64_t duplicates = 0;           ///< deduplicated re-deliveries
  std::uint64_t corrupt_frames = 0;
  std::uint64_t tuples_installed = 0;
  std::uint64_t overwrites = 0;
  /// Payload bytes handed to the transport: batches, retransmits, *and acks*
  /// (`ack_bytes` and `retransmit_bytes` break those shares out).
  std::uint64_t bytes_sent = 0;
  std::uint64_t bytes_received = 0;
  std::uint64_t ack_bytes = 0;
  std::uint64_t retransmit_bytes = 0;
  TransportStats transport;
  std::size_t coordinator_polls = 0;
  double wall_ms = 0.0;
  bool quiesced = false;
};

/// Distributed executor for one hard-state NDlog program. One-shot: run()
/// may be called once; databases are readable afterwards.
class Cluster {
 public:
  Cluster(ndlog::Program program, ClusterOptions options = {});

  /// Ensure a node exists even if no fact lives there (receive-only nodes).
  void add_node(const std::string& name);

  /// Queue a base fact; delivered to the node named by its location
  /// attribute when run() starts. Every Addr value inside the fact also
  /// registers a node, so derived tuples always have a live destination.
  void inject(const ndlog::Tuple& fact);
  void inject_all(const std::vector<ndlog::Tuple>& facts);

  /// Start the transport and node threads, run to quiescence (or budget),
  /// stop, join, aggregate. Throws TransportError if the transport cannot be
  /// built (UDP in a sandbox) and ClusterError if a node thread failed.
  ClusterStats run();

  /// Valid after run().
  const ndlog::Database& database(const std::string& node) const;
  /// Per-node books (valid after run(); throws on unknown node).
  const NodeStats& node_stats(const std::string& node) const;
  /// Union of all nodes' relations — the object the differential suite
  /// compares against runtime::Simulator::merged_database().
  ndlog::Database merged_database() const;
  std::vector<std::string> nodes() const;
  const ndlog::Program& program() const noexcept { return program_; }

 private:
  void register_addrs(const ndlog::Value& value);

  ndlog::Program program_;
  ndlog::Catalog catalog_;
  ClusterOptions options_;
  dataflow::Plan plan_;
  runtime::PredTable preds_;

  std::map<std::string, std::vector<ndlog::Tuple>> seeds_;  // node -> facts
  std::unique_ptr<Transport> transport_;
  std::map<std::string, std::unique_ptr<Node>> nodes_;
  bool ran_ = false;
};

}  // namespace fvn::net
