// fvn::net node runtime — one concurrently-executing NDlog node (DESIGN.md
// §12). A Node is channels and reliability over one runtime::NodeCore, the
// same core the simulator runs for each of its nodes: the node's slice of
// the distributed database, keyed overwrite, rule derivation and aggregate
// maintenance live there, implemented once, so the differential suite can
// demand an *identical* merged fixpoint from both executives. The Node runs
// an event loop on its own std::thread:
//
//   pump held frames -> retransmit overdue -> drain mailbox -> flush batches
//
// and settles the core's aggregates once per delivered batch.
//
// Delivery has one path: derived tuples bound for a remote node accumulate
// in a per-destination channel buffer and flush as one DataBatch wire frame
// per sweep — a whole delta round's worth of tuples pays for one encode, one
// mailbox crossing, one seq number, and one pending/retransmit entry instead
// of one each per tuple.
//
// Reliability: the transport may drop, duplicate, reorder and delay frames;
// the Node layers a per-directed-channel protocol on top that masks all four:
//
//   sender    every DataBatch carries a per-(src,dst) sequence number and
//             stays in a pending map until acked; a min-heap of due times
//             finds overdue batches in O(log n), and each retransmission
//             doubles the backoff (kInitialBackoffMs up to kMaxBackoffMs in
//             node.cpp) — but backoff and counters only advance after the
//             transport actually accepted the send.
//   receiver  delivers batches exactly once and in sequence order via a
//             reassembly buffer, and answers every DataBatch (including
//             duplicates — the previous ack may have been the casualty) with
//             a *cumulative* ack carrying the highest in-order seq delivered;
//             one ack can clear many pending batches.
//
// Exactly-once in-order delivery per channel makes the fault injection
// semantically invisible; it only costs retransmissions and time.
//
// Thread model: everything mutable on a Node is owned by its thread, except
// the std::atomic signals (idle/activity/unacked/failed) the coordinator
// polls for termination detection, and the transport (internally
// synchronized). A node keeps its own books (NodeStats, histograms and
// timers included); the Cluster adds them into its obs::Registry after
// join, so no node thread touches a shared registry.
//
// Idle discipline: `idle` goes false *before* a sweep looks at the mailbox
// and true only after a sweep that popped nothing, so a node reads busy for
// the whole time it holds a popped frame or derivations it has not flushed.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <queue>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "ndlog/catalog.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"
#include "runtime/node_core.hpp"
#include "runtime/pred_table.hpp"

namespace fvn::net {

/// A node's books, safe to read after its thread has been joined.
/// `bytes_sent`/`bytes_received` count every payload byte handed to / taken
/// from the transport — data batches, retransmissions, *and acks*; the ack
/// and retransmission shares are broken out so the protocol overhead stays
/// visible.
struct NodeStats {
  std::uint64_t sent = 0;            ///< DataBatch frames first-transmitted
  std::uint64_t received = 0;        ///< DataBatch frames delivered in-order
  std::uint64_t tuples_shipped = 0;  ///< tuples carried by `sent` batches
  std::uint64_t tuples_received = 0; ///< tuples carried by `received` batches
  std::uint64_t retransmitted = 0;   ///< DataBatch frames re-sent after timeout
  std::uint64_t acked = 0;           ///< pending batches cleared by (cumulative) acks
  std::uint64_t acks_sent = 0;       ///< Ack frames transmitted
  std::uint64_t duplicates = 0;      ///< already-delivered batches re-acked
  std::uint64_t corrupt_frames = 0;  ///< frames decode rejected (WireError)
  std::uint64_t installed = 0;       ///< local installs (new or overwrite)
  std::uint64_t overwrites = 0;      ///< keyed overwrites among installed
  std::uint64_t bytes_sent = 0;      ///< payload bytes handed to the transport
  std::uint64_t bytes_received = 0;
  std::uint64_t ack_bytes = 0;        ///< ack-frame bytes within bytes_sent
  std::uint64_t retransmit_bytes = 0; ///< re-sent batch bytes within bytes_sent
  /// Node-clock ms of the last frame/seed processed — max over nodes is when
  /// the cluster actually finished; wall_ms minus that is the detection tail.
  double last_active_ms = 0.0;
  // Recorded only by a metered node (the Cluster has a registry):
  /// Frames drained per non-empty mailbox sweep (the observable backlog).
  obs::Histogram mailbox_depth;
  /// Tuples per first-transmitted DataBatch (the batching win, observable).
  obs::Histogram batch_size;
  obs::Timer encode;
  obs::Timer decode;
};

/// One distributed NDlog node. Construct, seed(), then start(); the Cluster
/// owns the lifecycle.
class Node {
 public:
  /// `catalog`, `plan`, `transport` and `tuple_events` must outlive the
  /// node. `tuple_events` (null or empty = none) is called inline on this
  /// node's thread for every install/retract with the node clock in seconds,
  /// before the derivations the change triggers are shipped; nodes share
  /// it, so the callee must be internally synchronized.
  /// `metered` turns on the histograms and timers of NodeStats.
  Node(std::string name, const ndlog::Catalog& catalog, const dataflow::Plan& plan,
       Transport& transport, const runtime::TupleEventHook* tuple_events = nullptr,
       bool metered = false);

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  const std::string& name() const noexcept { return name_; }

  /// Queue a base fact for delivery at startup. Must be called before run().
  void seed(ndlog::Tuple fact);

  /// Thread body: process seeds, then loop until `stop` is set. Never throws;
  /// failures are recorded (failed()/error()) so the coordinator can abort.
  void run(const std::atomic<bool>& stop);

  // --- Coordinator-facing signals (safe while the thread runs) --------------

  /// True from the end of a sweep that found nothing to do until the next
  /// sweep starts.
  bool idle() const noexcept { return idle_.load(std::memory_order_acquire); }
  /// Monotonic count of frames/seeds processed — the double-scan input.
  std::uint64_t activity() const noexcept {
    return activity_.load(std::memory_order_acquire);
  }
  /// DataBatch frames sent but not yet acked.
  std::uint64_t unacked() const noexcept {
    return unacked_.load(std::memory_order_acquire);
  }
  bool failed() const noexcept { return failed_.load(std::memory_order_acquire); }

  // --- Post-join accessors (thread must have exited) ------------------------

  const std::string& error() const noexcept { return error_; }
  const ndlog::Database& database() const noexcept { return core_.database(); }
  const NodeStats& stats() const noexcept { return stats_; }

 private:
  struct Pending {
    std::string bytes;       // encoded frame, ready to re-send
    double due_ms = 0.0;     // next retransmit deadline (node clock)
    double backoff_ms = 0.0; // current backoff step
  };
  struct OutChannel {
    std::uint64_t next_seq = 1;
    std::map<std::uint64_t, Pending> pending;
  };
  struct InChannel {
    std::uint64_t next_expected = 1;
    std::map<std::uint64_t, std::vector<ndlog::Tuple>> reassembly;  // future seqs
  };
  /// Min-heap entry locating a retransmit deadline. Entries are lazy: an
  /// acked batch or a rescheduled deadline leaves a stale entry behind,
  /// detected by comparing due_ms against the live Pending record on pop.
  struct Due {
    double due_ms = 0.0;
    const std::string* dest = nullptr;  // stable: keys of out_ never move
    std::uint64_t seq = 0;
    bool operator>(const Due& other) const { return due_ms > other.due_ms; }
  };
  double now_ms() const;
  bool sweep();  ///< one loop iteration; true if any frame was processed
  void handle_frame(const std::string& bytes);
  void handle_batch(Frame&& frame);
  /// Deliver one batch to the core, then settle its aggregates once.
  void deliver_tuples(const std::vector<ndlog::Tuple>& tuples);
  void send_ack(const std::string& dest, std::uint64_t cumulative_seq);
  void retransmit_due();
  /// Queue a derivation for its node's channel buffer.
  void ship(const ndlog::Tuple& tuple);
  void flush_channels();
  /// The core's hook: ships remote derivations, counts installs and feeds
  /// the tuple-event hook.
  void on_change(runtime::NodeCore::Change change, const ndlog::Tuple& tuple);

  std::string name_;
  Transport* transport_;
  const runtime::TupleEventHook* tuple_events_;
  bool metered_;

  runtime::PredTable preds_;
  runtime::NodeCore core_;
  std::vector<ndlog::Tuple> seeds_;

  std::map<std::string, OutChannel> out_;
  std::map<std::string, InChannel> in_;
  /// Per-destination channel buffers: tuples shipped during the current sweep,
  /// flushed as one DataBatch each by flush_channels(). Map entries persist
  /// across sweeps, so steady-state flushes never re-insert.
  std::map<std::string, std::vector<ndlog::Tuple>> outbuf_;
  /// Count of non-empty outbuf_ buffers, so idle sweeps skip the flush scan.
  std::size_t outbuf_dirty_ = 0;
  std::priority_queue<Due, std::vector<Due>, std::greater<Due>> due_heap_;

  /// Transport mailbox cursor for name_, looked up once at run() start.
  void* rx_cursor_ = nullptr;

  std::chrono::steady_clock::time_point epoch_;
  NodeStats stats_;
  std::string error_;

  std::atomic<bool> idle_{false};
  std::atomic<std::uint64_t> activity_{0};
  std::atomic<std::uint64_t> unacked_{0};
  std::atomic<bool> failed_{false};
};

}  // namespace fvn::net
