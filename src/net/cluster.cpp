#include "net/cluster.hpp"

#include <atomic>
#include <cassert>
#include <chrono>
#include <thread>

#include "runtime/localize.hpp"

namespace fvn::net {

using ndlog::Tuple;
using ndlog::Value;

namespace {

/// Consecutive quiescent-looking scans that declare quiescence.
constexpr std::size_t kConfirmingScans = 3;
/// Longest the coordinator parks between scans while the cluster is busy:
/// the progress doorbell normally wakes it first, so this only backstops a
/// missed ring.
constexpr double kScanBackstopMs = 0.25;

/// Add one node's books into `m` under net/node/<name>/.
void add_books(obs::Registry& m, const std::string& name, const NodeStats& s) {
  const std::string base = "net/node/" + name + "/";
  m.counter(base + "sent").add(s.sent);
  m.counter(base + "received").add(s.received);
  m.counter(base + "retransmitted").add(s.retransmitted);
  m.counter(base + "acked").add(s.acked);
  m.counter(base + "installed").add(s.installed);
  m.counter(base + "bytes_sent").add(s.bytes_sent);
  m.counter(base + "bytes_received").add(s.bytes_received);
  m.counter(base + "ack_bytes").add(s.ack_bytes);
  m.counter(base + "tuples_shipped").add(s.tuples_shipped);
  m.histogram(base + "mailbox_depth").merge(s.mailbox_depth);
  m.histogram(base + "batch_size").merge(s.batch_size);
  m.timer(base + "encode").merge(s.encode);
  m.timer(base + "decode").merge(s.decode);
}

}  // namespace

Cluster::Cluster(ndlog::Program program, ClusterOptions options)
    : program_(runtime::localize(program)),
      catalog_(ndlog::Catalog::from_program(program_)),
      options_(options),
      plan_(runtime::checked_plan(program_, options.require_stratified,
                                  {options.incremental_aggregates, options.cost_order})),
      preds_(catalog_) {
  // Soft-state expiry and periodic refresh need per-node clocks and never
  // quiesce, so termination detection would be meaningless; the simulator
  // stays the executor for those.
  if (const auto feature = runtime::soft_state_feature(program_, catalog_); !feature.empty()) {
    throw ClusterError("cluster: " + feature +
                       "; the distributed runtime executes hard-state programs only — "
                       "use the simulator");
  }
  for (const auto& fact : runtime::embedded_facts(program_)) inject(fact);
}

void Cluster::register_addrs(const Value& value) {
  if (value.is_addr()) {
    seeds_[value.as_addr()];  // ensure the node exists (may stay seedless)
    return;
  }
  if (value.kind() == ndlog::ValueKind::List) {
    for (const auto& item : value.as_list()) register_addrs(item);
  }
}

void Cluster::add_node(const std::string& name) { seeds_[name]; }

void Cluster::inject(const Tuple& fact) {
  // Location specifiers can only be copied from base facts, never
  // synthesized, so registering every Addr reachable from the seeds
  // enumerates every node a derived tuple could ever address.
  for (const auto& v : fact.values()) register_addrs(v);
  seeds_[preds_.location_of(fact)].push_back(fact);
}

void Cluster::inject_all(const std::vector<Tuple>& facts) {
  for (const auto& f : facts) inject(f);
}

ClusterStats Cluster::run() {
  assert(!ran_ && "Cluster::run may be called once");
  ran_ = true;
  if (seeds_.empty()) throw ClusterError("cluster: no nodes (no facts injected)");

  switch (options_.transport) {
    case TransportKind::InProc:
      transport_ = std::make_unique<InProcTransport>(options_.faults);
      break;
    case TransportKind::Udp:
      transport_ = std::make_unique<UdpTransport>(options_.faults);
      break;
  }
  // Everything that touches shared structures (transport registration, node
  // construction, seeding) happens here, before any thread starts;
  // afterwards node threads only touch their own state.
  for (const auto& [name, facts] : seeds_) transport_->add_node(name);
  for (const auto& [name, facts] : seeds_) {
    auto node = std::make_unique<Node>(name, catalog_, plan_, *transport_,
                                       &options_.tuple_events, options_.metrics != nullptr);
    for (const auto& fact : facts) node->seed(fact);
    nodes_.emplace(name, std::move(node));
  }

  const auto start = std::chrono::steady_clock::now();
  const auto elapsed_ms = [&start]() {
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
  };

  ClusterStats stats;
  stats.nodes = nodes_.size();

  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  threads.reserve(nodes_.size());
  for (auto& [name, node] : nodes_) {
    Node* n = node.get();
    threads.emplace_back([n, &stop] { n->run(stop); });
  }

  // Double-scan termination detection (header comment has the argument).
  std::uint64_t last_activity = ~std::uint64_t{0};
  std::size_t stable = 0;
  bool failed = false;
  // Ticket discipline: snapshot the progress doorbell BEFORE the scan whose
  // verdict we might sleep on — a node parking mid-scan then advances the
  // signal past the snapshot and progress_wait returns immediately.
  std::uint64_t ticket = transport_->progress_ticket();
  for (;;) {
    // The stability argument counts *scans*, not wall time: once a scan looks
    // quiescent, confirming rescans only need to be distinct, so take them a
    // yield apart — detection then costs microseconds. While the cluster is
    // visibly busy, park on the progress doorbell: nodes ring it when they
    // go idle, so the scan that will observe quiescence starts one wakeup
    // after the last node parks, not a backstop timeout later.
    if (stable > 0) {
      std::this_thread::yield();
    } else {
      transport_->progress_wait(ticket, kScanBackstopMs);
    }
    ticket = transport_->progress_ticket();
    ++stats.coordinator_polls;
    std::uint64_t activity = 0;
    std::uint64_t unacked = 0;
    bool all_idle = true;
    for (const auto& [name, node] : nodes_) {
      if (node->failed()) failed = true;
      // Idle before activity: a node that reads idle after finishing a frame
      // has already published that frame's activity.
      all_idle = node->idle() && all_idle;
      activity += node->activity();
      unacked += node->unacked();
    }
    if (failed) break;
    const bool quiet = transport_->quiet();
    if (options_.trace != nullptr) {
      options_.trace->counter("net/activity", "net", static_cast<double>(activity));
      options_.trace->counter("net/unacked", "net", static_cast<double>(unacked));
    }
    if (all_idle && quiet && unacked == 0 && activity == last_activity) {
      ++stable;
    } else {
      stable = 0;
    }
    last_activity = activity;
    if (stable >= kConfirmingScans) {
      stats.quiesced = true;
      break;
    }
    if (elapsed_ms() > options_.max_seconds * 1e3) break;
  }

  stop.store(true, std::memory_order_release);
  transport_->wake_all();  // parked node threads exit now, not at their timeout
  for (auto& t : threads) t.join();
  stats.wall_ms = elapsed_ms();

  std::string errors;
  for (const auto& [name, node] : nodes_) {
    if (node->failed()) errors += (errors.empty() ? "" : "; ") + node->error();
  }
  if (!errors.empty()) throw ClusterError("cluster: node failure: " + errors);

  for (const auto& [name, node] : nodes_) {
    const NodeStats& ns = node->stats();
    stats.messages_sent += ns.sent;
    stats.messages_received += ns.received;
    stats.tuples_shipped += ns.tuples_shipped;
    stats.tuples_received += ns.tuples_received;
    stats.retransmitted += ns.retransmitted;
    stats.acked += ns.acked;
    stats.acks_sent += ns.acks_sent;
    stats.duplicates += ns.duplicates;
    stats.corrupt_frames += ns.corrupt_frames;
    stats.tuples_installed += ns.installed;
    stats.overwrites += ns.overwrites;
    stats.bytes_sent += ns.bytes_sent;
    stats.bytes_received += ns.bytes_received;
    stats.ack_bytes += ns.ack_bytes;
    stats.retransmit_bytes += ns.retransmit_bytes;
    if (options_.metrics != nullptr) add_books(*options_.metrics, name, ns);
  }
  stats.transport = transport_->stats();
  if (options_.trace != nullptr) {
    options_.trace->instant("net/quiesced", "net",
                            std::string("{\"quiesced\":") +
                                (stats.quiesced ? "true" : "false") + "}");
  }
  return stats;
}

const ndlog::Database& Cluster::database(const std::string& node) const {
  static const ndlog::Database empty;
  auto it = nodes_.find(node);
  return it == nodes_.end() ? empty : it->second->database();
}

const NodeStats& Cluster::node_stats(const std::string& node) const {
  auto it = nodes_.find(node);
  if (it == nodes_.end()) throw ClusterError("cluster: unknown node " + node);
  return it->second->stats();
}

ndlog::Database Cluster::merged_database() const {
  ndlog::Database out;
  for (const auto& [name, node] : nodes_) runtime::merge_into(out, node->database());
  return out;
}

std::vector<std::string> Cluster::nodes() const {
  std::vector<std::string> out;
  for (const auto& [name, node] : nodes_) out.push_back(name);
  if (out.empty()) {
    for (const auto& [name, facts] : seeds_) out.push_back(name);
  }
  return out;
}

}  // namespace fvn::net
