// fvn::net stats-consistency suite — every counter the runtime exposes must
// tell the same story through every surface. Three layers report on the same
// run: NodeStats (each node's books, read post-join), the obs Registry
// series the Cluster adds from those books after join, and TransportStats
// (what actually crossed the wire). This suite pins their agreement across
// inproc/udp × loss seeds, plus two protocol-level regressions:
//
//   * a single-pass node's wire bytes are byte-identical across runs: one
//     batch per destination, numbered from seq 1;
//   * a TransportError during retransmission commits *nothing*: no backoff
//     escalation, no retransmitted/bytes_sent bump, no node failure — the
//     frame is simply retried later at the same backoff.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <deque>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "dataflow/plan.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "net/node.hpp"
#include "net/transport.hpp"
#include "net/wire.hpp"
#include "obs/metrics.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;

std::vector<Tuple> line_workload() {
  return core::link_facts(core::line_topology(4));
}

struct Config {
  std::string label;
  net::TransportKind transport = net::TransportKind::InProc;
  double drop_rate = 0.0;
  std::uint64_t seed = 1;
};

std::vector<Config> configs() {
  return {
      {"inproc/lossless", net::TransportKind::InProc, 0.0, 1},
      {"inproc/loss=0.2 seed=3", net::TransportKind::InProc, 0.2, 3},
      {"inproc/loss=0.2 seed=17", net::TransportKind::InProc, 0.2, 17},
      {"udp/lossless", net::TransportKind::Udp, 0.0, 1},
      {"udp/loss=0.2 seed=3", net::TransportKind::Udp, 0.2, 3},
  };
}

// ---------------------------------------------------------------------------
// NodeStats == obs counters, per node, for every configuration
// ---------------------------------------------------------------------------

TEST(NetStats, ObsCountersAgreeWithNodeStats) {
  const auto program = crossval::example_program("reachable");
  const auto facts = line_workload();
  for (const Config& cfg : configs()) {
    SCOPED_TRACE(cfg.label);
    obs::Registry registry;
    net::ClusterOptions options;
    options.transport = cfg.transport;
    options.faults.drop_rate = cfg.drop_rate;
    options.faults.seed = cfg.seed;
    options.metrics = &registry;
    net::Cluster cluster(program, options);
    cluster.inject_all(facts);
    net::ClusterStats stats;
    try {
      stats = cluster.run();
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
    ASSERT_TRUE(stats.quiesced);
    for (const auto& name : cluster.nodes()) {
      SCOPED_TRACE(name);
      const net::NodeStats& ns = cluster.node_stats(name);
      const std::string base = "net/node/" + name + "/";
      const auto counter = [&](const std::string& series) -> std::uint64_t {
        const auto* c = registry.find_counter(base + series);
        EXPECT_NE(c, nullptr) << series;
        return c == nullptr ? 0 : c->value();
      };
      EXPECT_EQ(counter("sent"), ns.sent);
      EXPECT_EQ(counter("received"), ns.received);
      EXPECT_EQ(counter("retransmitted"), ns.retransmitted);
      EXPECT_EQ(counter("acked"), ns.acked);
      EXPECT_EQ(counter("installed"), ns.installed);
      EXPECT_EQ(counter("bytes_sent"), ns.bytes_sent);
      EXPECT_EQ(counter("bytes_received"), ns.bytes_received);
      EXPECT_EQ(counter("ack_bytes"), ns.ack_bytes);
      EXPECT_EQ(counter("tuples_shipped"), ns.tuples_shipped);
      // The batch-size histogram samples exactly the sent batches and sums
      // to exactly the shipped tuples.
      const auto* batch = registry.find_histogram(base + "batch_size");
      ASSERT_NE(batch, nullptr);
      EXPECT_EQ(batch->count(), ns.sent);
      EXPECT_EQ(batch->sum(), ns.tuples_shipped);
    }
  }
}

// ---------------------------------------------------------------------------
// Cross-layer byte accounting: nodes vs transport
// ---------------------------------------------------------------------------

TEST(NetStats, NodeAndTransportByteAccountingAgree) {
  const auto program = crossval::example_program("path_vector");
  const auto facts = line_workload();
  for (const Config& cfg : configs()) {
    SCOPED_TRACE(cfg.label);
    net::ClusterOptions options;
    options.transport = cfg.transport;
    options.faults.drop_rate = cfg.drop_rate;
    options.faults.seed = cfg.seed;
    net::Cluster cluster(program, options);
    cluster.inject_all(facts);
    net::ClusterStats stats;
    try {
      stats = cluster.run();
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
    ASSERT_TRUE(stats.quiesced);
    // What the nodes handed down is what the transport saw handed down —
    // exactly, now that acks are counted (the transport then drops/dups per
    // its fault schedule, so only the pre-fault send counts can be compared).
    EXPECT_EQ(stats.transport.frames_sent,
              stats.messages_sent + stats.retransmitted + stats.acks_sent);
    // Every frame the transport delivered was drained and counted by a node.
    EXPECT_EQ(stats.bytes_received, stats.transport.bytes_delivered);
    if (cfg.drop_rate == 0.0 && cfg.transport == net::TransportKind::InProc) {
      // Lossless, duplicate-free, in-order: byte totals agree exactly and
      // every frame sent is a frame delivered.
      EXPECT_EQ(stats.bytes_sent, stats.transport.bytes_sent);
      EXPECT_EQ(stats.transport.frames_delivered, stats.transport.frames_sent);
      EXPECT_EQ(stats.bytes_sent, stats.bytes_received);
      // FIFO transport, no reorder => every arriving batch (first copy or
      // re-delivered retransmit) draws exactly one cumulative ack.
      // (Retransmits happen even losslessly when a receiver is slower than
      // the backoff, e.g. under sanitizers or a loaded machine.)
      EXPECT_EQ(stats.acks_sent, stats.messages_received + stats.duplicates);
    }
    EXPECT_EQ(stats.messages_received, stats.messages_sent);
    EXPECT_EQ(stats.acked, stats.messages_sent);
    EXPECT_EQ(stats.tuples_received, stats.tuples_shipped);
    EXPECT_GT(stats.ack_bytes, 0u);
    EXPECT_LT(stats.ack_bytes, stats.bytes_sent);
    // Re-sent bytes are a share of bytes_sent, present exactly when a batch
    // was re-sent.
    EXPECT_EQ(stats.retransmit_bytes > 0, stats.retransmitted > 0);
    EXPECT_LT(stats.ack_bytes + stats.retransmit_bytes, stats.bytes_sent);
  }
}

// ---------------------------------------------------------------------------
// A single-pass node: one batch from seq 1, byte-identical across runs
// ---------------------------------------------------------------------------

/// An already-local two-node program: a link fact at @S derives hops at @D.
/// Two links to the same destination give a two-tuple batch.
const char* kShipProgram =
    "materialize(link, infinity, infinity, keys(1,2,3)).\n"
    "materialize(hop, infinity, infinity, keys(1,2,3)).\n"
    "t1 hop(@D,S,C) :- link(@S,D,C).\n";

std::vector<Tuple> ship_seeds() {
  return {Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(1)}),
          Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(2)})};
}

/// Run a single sender node over a fault-free transport and return every
/// frame that lands in n1's mailbox, in order.
std::vector<std::string> ship_frames(const ndlog::Program& program,
                                     const ndlog::Catalog& catalog,
                                     net::NodeStats* out_stats) {
  const auto plan = dataflow::compile(program);
  net::InProcTransport transport;
  transport.add_node("n0");
  transport.add_node("n1");
  net::Node node("n0", catalog, plan, transport);
  for (const auto& fact : ship_seeds()) node.seed(fact);
  // Seeds are processed (and channels flushed) before the event loop starts,
  // so a pre-set stop flag gives a deterministic single-pass run.
  std::atomic<bool> stop{true};
  node.run(stop);
  EXPECT_FALSE(node.failed()) << node.error();
  EXPECT_EQ(node.unacked(), 1u) << "n1 never runs, so nobody acks the batch";
  if (out_stats != nullptr) *out_stats = node.stats();
  std::vector<std::string> frames;
  std::string frame;
  void* mailbox = transport.rx_cursor("n1");
  while (transport.recv(mailbox, frame)) frames.push_back(frame);
  return frames;
}

TEST(NetStats, NodeWithoutMailboxFailsWithTransportError) {
  const auto program = ndlog::parse_program(kShipProgram, "ship");
  const auto catalog = ndlog::Catalog::from_program(program);
  const auto plan = dataflow::compile(program);
  net::InProcTransport transport;
  transport.add_node("n1");  // n0 never registers a mailbox
  net::Node node("n0", catalog, plan, transport);
  std::atomic<bool> stop{true};
  node.run(stop);
  EXPECT_TRUE(node.failed());
  EXPECT_NE(node.error().find("no mailbox for n0"), std::string::npos) << node.error();
}

TEST(NetStats, SinglePassFramesAreByteIdenticalAcrossRuns) {
  const auto program = ndlog::parse_program(kShipProgram, "ship");
  const auto catalog = ndlog::Catalog::from_program(program);
  net::NodeStats stats;
  const auto first = ship_frames(program, catalog, &stats);
  const auto second = ship_frames(program, catalog, nullptr);
  EXPECT_EQ(first, second) << "a single pass's wire bytes must be reproducible";
  // Both derivations leave in the one batch the seeds' pass flushes, and the
  // channel numbers it 1.
  ASSERT_EQ(first.size(), 1u);
  const net::Frame decoded = net::decode_frame(first[0]);
  EXPECT_EQ(decoded.kind, net::Frame::Kind::DataBatch);
  EXPECT_EQ(decoded.seq, 1u);
  EXPECT_EQ(decoded.src, "n0");
  EXPECT_EQ(decoded.dst, "n1");
  EXPECT_EQ(decoded.tuples.size(), 2u);
  EXPECT_EQ(stats.sent, 1u);
  EXPECT_EQ(stats.tuples_shipped, 2u);
  EXPECT_EQ(stats.bytes_sent, first[0].size());
  EXPECT_EQ(stats.acks_sent, 0u);
  EXPECT_EQ(stats.ack_bytes, 0u);
  EXPECT_EQ(stats.retransmitted, 0u);
  EXPECT_EQ(stats.retransmit_bytes, 0u);
}

// ---------------------------------------------------------------------------
// Retransmit: a refused send commits nothing
// ---------------------------------------------------------------------------

/// A transport whose transmit() can be made to throw on demand; otherwise a
/// plain mutex-guarded mailbox (fault injection off, nothing held).
class FlakyTransport final : public net::Transport {
 public:
  std::atomic<bool> fail{false};

  void add_node(const std::string& name) override {
    net::Transport::add_node(name);
    std::lock_guard<std::mutex> lock(mutex_);
    boxes_[name];
  }

  void* rx_cursor(const std::string& node) override {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = boxes_.find(node);
    return it == boxes_.end() ? nullptr : &it->second;  // stable map storage
  }

  /// Test-side injection of a hand-built frame (e.g. a forged ack).
  void inject(const std::string& to, std::string frame) {
    transmit("test", to, std::move(frame));
  }

 protected:
  void transmit(const std::string& /*from*/, const std::string& to,
                std::string frame) override {
    if (fail.load(std::memory_order_acquire)) {
      throw net::TransportError("flaky: refusing frame to " + to);
    }
    std::lock_guard<std::mutex> lock(mutex_);
    boxes_.at(to).push_back(std::move(frame));
  }
  bool poll_cursor(void* cursor, std::string& frame) override {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& box = *static_cast<std::deque<std::string>*>(cursor);
    if (box.empty()) return false;
    frame = std::move(box.front());
    box.pop_front();
    return true;
  }
  bool impl_quiet() override {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [name, box] : boxes_) {
      if (!box.empty()) return false;
    }
    return true;
  }

 private:
  std::mutex mutex_;
  std::map<std::string, std::deque<std::string>> boxes_;
};

TEST(NetStats, RefusedRetransmitCommitsNoBackoffOrCounters) {
  const auto program = ndlog::parse_program(kShipProgram, "ship");
  const auto catalog = ndlog::Catalog::from_program(program);
  const auto plan = dataflow::compile(program);
  FlakyTransport transport;
  transport.add_node("n0");
  transport.add_node("n1");
  net::Node node("n0", catalog, plan, transport);
  for (const auto& fact : ship_seeds()) node.seed(fact);

  const auto spin = [&node](std::chrono::milliseconds for_ms) {
    std::atomic<bool> stop{false};
    std::thread t([&] { node.run(stop); });
    std::this_thread::sleep_for(for_ms);
    stop.store(true, std::memory_order_release);
    t.join();
  };

  // Phase 1: initial flush succeeds; nobody acks, so the batch stays pending.
  {
    std::atomic<bool> stop{true};
    node.run(stop);
  }
  ASSERT_FALSE(node.failed()) << node.error();
  ASSERT_EQ(node.stats().sent, 1u);
  ASSERT_EQ(node.unacked(), 1u);
  const std::uint64_t bytes_after_send = node.stats().bytes_sent;

  // Phase 2: the transport refuses everything. Many retransmit deadlines
  // elapse (initial backoff is 2ms), but none of those attempts happened —
  // the counters must not move, backoff must not escalate, and the node must
  // not be marked failed.
  transport.fail.store(true, std::memory_order_release);
  spin(std::chrono::milliseconds(40));
  EXPECT_FALSE(node.failed()) << node.error();
  EXPECT_EQ(node.stats().retransmitted, 0u);
  EXPECT_EQ(node.stats().retransmit_bytes, 0u);
  EXPECT_EQ(node.stats().bytes_sent, bytes_after_send);
  EXPECT_EQ(node.unacked(), 1u);

  // Phase 3: the transport recovers; the pending batch goes out promptly
  // (backoff never escalated past the 50ms cap, let alone stuck there).
  transport.fail.store(false, std::memory_order_release);
  spin(std::chrono::milliseconds(60));
  EXPECT_FALSE(node.failed()) << node.error();
  EXPECT_GE(node.stats().retransmitted, 1u);
  EXPECT_GT(node.stats().bytes_sent, bytes_after_send);
  // Everything sent since the first transmission was a re-send.
  EXPECT_EQ(node.stats().retransmit_bytes, node.stats().bytes_sent - bytes_after_send);
  EXPECT_EQ(node.unacked(), 1u);

  // Phase 4: a cumulative ack for seq 1 clears the pending batch.
  net::Frame ack;
  ack.kind = net::Frame::Kind::Ack;
  ack.seq = 1;
  ack.src = "n1";
  ack.dst = "n0";
  transport.inject("n0", net::encode_frame(ack));
  spin(std::chrono::milliseconds(10));
  EXPECT_FALSE(node.failed()) << node.error();
  EXPECT_EQ(node.stats().acked, 1u);
  EXPECT_EQ(node.unacked(), 0u);
}

}  // namespace
}  // namespace fvn
