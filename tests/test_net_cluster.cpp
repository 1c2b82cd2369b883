// fvn::net differential suite — the correctness statement of DESIGN.md §12:
// for every shipped example program, the threaded Cluster (real concurrency,
// real frames on a transport) reaches the *identical* merged fixpoint as the
// discrete-event runtime::Simulator, on both transports, and under seeded
// fault injection with the ack+retransmit layer enabled.
//
// Workloads are chosen so the fixpoint is interleaving-independent (unique
// aggregate argmins, acyclic where the protocol diverges on cycles): the
// cluster's thread schedule is genuinely nondeterministic, so only confluent
// workloads admit an exact differential check. Order-sensitive runs are the
// semantic analyzer's ND0017 territory, pinned elsewhere.
#include <gtest/gtest.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/protocols.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using core::link_facts;
using ndlog::Tuple;
using ndlog::Value;

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

ndlog::Program example_program(const std::string& name) {
  const std::filesystem::path path =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" / name;
  return ndlog::parse_program(slurp(path), name);
}

/// A confluent workload for each example: the merged fixpoint must not depend
/// on message interleaving (unique argmins, no count-to-infinity).
std::vector<Tuple> example_workload(const std::string& name) {
  std::vector<Tuple> facts;
  const auto add_nodes_and_prefs = [&facts](const std::vector<core::Link>& links,
                                            bool with_nodes, bool with_pref) {
    std::set<std::string> names;
    for (const auto& l : links) {
      names.insert(l.src);
      names.insert(l.dst);
    }
    if (with_nodes) {
      for (const auto& n : names) {
        facts.emplace_back("node", std::vector<Value>{Value::addr(n)});
      }
    }
    for (const auto& t : link_facts(links)) facts.push_back(t);
    if (with_pref) {
      for (const auto& l : links) {
        facts.emplace_back("importPref",
                           std::vector<Value>{Value::addr(l.src), Value::addr(l.dst),
                                              Value::integer(100)});
      }
    }
  };
  if (name == "distance_vector.ndlog") {
    // Directed acyclic: DV counts to infinity on any cycle, and only a DAG
    // with unique per-(S,D) argmin costs makes bestHop interleaving-free.
    facts = link_facts({{"n0", "n1", 1},
                        {"n1", "n2", 2},
                        {"n2", "n3", 1},
                        {"n0", "n2", 5}});
  } else if (name == "link_state.ndlog") {
    // Coarse costs keep the C<1000 walk closure at <= 2 hops.
    add_nodes_and_prefs(core::line_topology(4, /*cost=*/400), false, false);
  } else if (name == "policy_path_vector.ndlog") {
    add_nodes_and_prefs(core::line_topology(4), true, true);
  } else if (name == "spanning_tree.ndlog") {
    add_nodes_and_prefs(core::line_topology(4), true, false);
  } else {
    // reachable / path_vector: unique simple paths on a line; reachable is
    // monotone anywhere but keeps the same 4-node line for uniformity.
    add_nodes_and_prefs(core::line_topology(4), false, false);
  }
  return facts;
}

std::vector<std::string> example_names() {
  std::vector<std::string> names;
  const std::filesystem::path dir =
      std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".ndlog") {
      names.push_back(entry.path().filename().string());
    }
  }
  std::sort(names.begin(), names.end());
  return names;
}

std::vector<std::string> sim_fixpoint(const ndlog::Program& program,
                                      const std::vector<Tuple>& facts) {
  runtime::Simulator sim(program);
  sim.inject_all(facts);
  const auto stats = sim.run();
  EXPECT_TRUE(stats.quiesced);
  return sim.merged_database().dump();
}

struct ClusterRun {
  std::vector<std::string> fixpoint;
  net::ClusterStats stats;
  std::size_t node_count = 0;
};

ClusterRun cluster_fixpoint(const ndlog::Program& program,
                            const std::vector<Tuple>& facts,
                            net::ClusterOptions options) {
  net::Cluster cluster(program, options);
  cluster.inject_all(facts);
  ClusterRun run;
  run.stats = cluster.run();
  run.node_count = cluster.nodes().size();
  run.fixpoint = cluster.merged_database().dump();
  return run;
}

// ---------------------------------------------------------------------------
// Core differential: every example, the cluster vs the simulator
// ---------------------------------------------------------------------------

TEST(ClusterDifferential, EveryExampleMatchesSimulatorBothEngines) {
  for (const auto& name : example_names()) {
    SCOPED_TRACE(name);
    const auto program = example_program(name);
    const auto facts = example_workload(name);
    const auto expected = sim_fixpoint(program, facts);
    const auto run = cluster_fixpoint(program, facts, net::ClusterOptions{});
    EXPECT_GE(run.node_count, 4u);
    EXPECT_TRUE(run.stats.quiesced);
    EXPECT_EQ(run.fixpoint, expected);
    // Reliable channels deliver exactly once: every first transmission is
    // eventually received and acked exactly once. (Retransmits may still
    // occur on a fault-free transport when a receiver is slower than the
    // backoff — e.g. under TSan — but dedup keeps them invisible here.)
    EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
    EXPECT_EQ(run.stats.acked, run.stats.messages_sent);
    EXPECT_EQ(run.stats.transport.frames_dropped, 0u);
  }
}

// ---------------------------------------------------------------------------
// Fault injection: retransmit masks seeded loss/dup/reorder/delay
// ---------------------------------------------------------------------------

TEST(ClusterDifferential, LossWithRetransmitStillMatches) {
  for (const auto& name : example_names()) {
    SCOPED_TRACE(name);
    const auto program = example_program(name);
    const auto facts = example_workload(name);
    const auto expected = sim_fixpoint(program, facts);
    for (const std::uint64_t seed : {3ull, 17ull, 40ull}) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      net::ClusterOptions options;
      options.faults.drop_rate = 0.2;
      options.faults.seed = seed;
      const auto run = cluster_fixpoint(program, facts, options);
      EXPECT_TRUE(run.stats.quiesced);
      EXPECT_EQ(run.fixpoint, expected);
      // Exactly-once delivery holds under loss too.
      EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
      EXPECT_EQ(run.stats.acked, run.stats.messages_sent);
    }
  }
}

TEST(ClusterDifferential, AllFaultsAtOnceStillMatches) {
  const auto program = example_program("path_vector.ndlog");
  const auto facts = example_workload("path_vector.ndlog");
  const auto expected = sim_fixpoint(program, facts);
  net::ClusterOptions options;
  options.faults.drop_rate = 0.15;
  options.faults.duplicate_rate = 0.15;
  options.faults.reorder_rate = 0.25;
  options.faults.delay_ms = 2.0;
  options.faults.seed = 9;
  const auto run = cluster_fixpoint(program, facts, options);
  EXPECT_TRUE(run.stats.quiesced);
  EXPECT_EQ(run.fixpoint, expected);
  EXPECT_EQ(run.stats.messages_received, run.stats.messages_sent);
}

TEST(ClusterDifferential, SlowTupleHookStillMatches) {
  // A node that wakes from parking and pops a frame must read busy until it
  // has handled the frame and flushed what it derived: its ack clears the
  // sender's unacked count before those derivations leave, and the activity
  // counter moves only after the frame is handled. A tuple-event hook that
  // sleeps on every install (a slow monitor or serve feed) stretches each
  // delivery to milliseconds, long enough for the coordinator's confirming
  // scans to run many times while nodes hold unfinished work.
  const auto program = example_program("reachable.ndlog");
  const auto facts = link_facts(core::random_topology(8, 1, 3));
  const auto expected = sim_fixpoint(program, facts);
  for (int attempt = 0; attempt < 10; ++attempt) {
    SCOPED_TRACE("run " + std::to_string(attempt));
    net::ClusterOptions options;
    options.tuple_events = [](std::string_view kind, const std::string&, const Tuple&,
                              double) {
      if (kind == "install") std::this_thread::sleep_for(std::chrono::milliseconds(1));
    };
    const auto run = cluster_fixpoint(program, facts, options);
    EXPECT_TRUE(run.stats.quiesced);
    ASSERT_EQ(run.fixpoint, expected);
  }
}

// ---------------------------------------------------------------------------
// UDP transport (loopback sockets; skipped cleanly where unavailable)
// ---------------------------------------------------------------------------

TEST(ClusterUdp, MatchesSimulatorAndSurvivesLoss) {
  const auto program = example_program("path_vector.ndlog");
  const auto facts = example_workload("path_vector.ndlog");
  const auto expected = sim_fixpoint(program, facts);
  for (const double loss : {0.0, 0.2}) {
    SCOPED_TRACE("loss " + std::to_string(loss));
    net::ClusterOptions options;
    options.transport = net::TransportKind::Udp;
    options.faults.drop_rate = loss;
    options.faults.seed = 5;
    try {
      const auto run = cluster_fixpoint(program, facts, options);
      EXPECT_TRUE(run.stats.quiesced);
      EXPECT_EQ(run.fixpoint, expected);
    } catch (const net::TransportError& e) {
      GTEST_SKIP() << "UDP sockets unavailable here: " << e.what();
    }
  }
}

// ---------------------------------------------------------------------------
// Scope guards, observability, termination bookkeeping
// ---------------------------------------------------------------------------

TEST(Cluster, RejectsSoftStateAndPeriodicPrograms) {
  const auto soft = ndlog::parse_program(
      "materialize(link, 30, infinity, keys(1,2)).\n"
      "r1 reach(@S,D) :- link(@S,D,_C).\n",
      "soft");
  EXPECT_THROW(net::Cluster{soft}, net::ClusterError);

  const auto periodic = ndlog::parse_program(
      "p1 ping(@N,T) :- periodic(@N,T).\n", "periodic");
  net::ClusterOptions lax;
  lax.require_stratified = false;
  EXPECT_THROW(net::Cluster(periodic, lax), net::ClusterError);
}

TEST(Cluster, RunWithoutFactsThrows) {
  const auto program = example_program("reachable.ndlog");
  net::Cluster cluster(program, {});
  EXPECT_THROW((void)cluster.run(), net::ClusterError);
}

TEST(Cluster, ReceiveOnlyNodesAreRegisteredFromFactAddresses) {
  // n3 appears only as a link *destination*; shipped tuples must still have
  // a live mailbox there.
  const auto program = example_program("reachable.ndlog");
  net::Cluster cluster(program, {});
  cluster.inject(Tuple("link", {Value::addr("n0"), Value::addr("n3"), Value::integer(1)}));
  const auto nodes = cluster.nodes();
  EXPECT_EQ(nodes, (std::vector<std::string>{"n0", "n3"}));
  const auto stats = cluster.run();
  EXPECT_TRUE(stats.quiesced);
  EXPECT_TRUE(cluster.database("n0").contains(
      Tuple("reachable", {Value::addr("n0"), Value::addr("n3")})));
  // The localized t2 join ships the link copy to its destination: n3 must
  // have a live mailbox even though it never sends.
  EXPECT_GE(stats.messages_sent, 1u);
}

TEST(Cluster, MetricsAndTraceAreThreadedThrough) {
  const auto program = example_program("reachable.ndlog");
  const auto facts = example_workload("reachable.ndlog");
  obs::Registry registry;
  obs::Trace trace;
  net::ClusterOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  const auto run = cluster_fixpoint(program, facts, options);
  EXPECT_TRUE(run.stats.quiesced);

  // Every node lists the same 13 series, whatever it did: 9 counters, 2
  // histograms and 2 timers, and nothing else is in the registry.
  const std::vector<std::string> counters = {
      "sent",      "received",       "retransmitted", "acked",         "installed",
      "bytes_sent", "bytes_received", "ack_bytes",     "tuples_shipped"};
  const std::vector<std::string> histograms = {"mailbox_depth", "batch_size"};
  const std::vector<std::string> timers = {"encode", "decode"};
  const std::vector<std::string> nodes = {"n0", "n1", "n2", "n3"};
  EXPECT_EQ(registry.counters().size(), counters.size() * nodes.size());
  EXPECT_EQ(registry.histograms().size(), histograms.size() * nodes.size());
  EXPECT_EQ(registry.timers().size(), timers.size() * nodes.size());

  // Per-node counters sum to the aggregate stats.
  std::uint64_t sent = 0;
  std::uint64_t received = 0;
  bool timers_ticked = false;
  for (const auto& name : nodes) {
    const std::string base = "net/node/" + name + "/";
    for (const auto& c : counters) EXPECT_NE(registry.find_counter(base + c), nullptr) << c;
    for (const auto& h : histograms) {
      EXPECT_NE(registry.find_histogram(base + h), nullptr) << h;
    }
    for (const auto& t : timers) EXPECT_NE(registry.find_timer(base + t), nullptr) << t;
    const auto* s = registry.find_counter(base + "sent");
    const auto* r = registry.find_counter(base + "received");
    ASSERT_NE(s, nullptr) << base;
    ASSERT_NE(r, nullptr) << base;
    sent += s->value();
    received += r->value();
    const auto* encode = registry.find_timer(base + "encode");
    ASSERT_NE(encode, nullptr);
    if (encode->count() > 0) timers_ticked = true;
  }
  EXPECT_EQ(sent, run.stats.messages_sent);
  EXPECT_EQ(received, run.stats.messages_received);
  EXPECT_TRUE(timers_ticked);
  // The coordinator emitted cluster-level trace samples.
  EXPECT_FALSE(trace.events().empty());
}

TEST(Cluster, StatsBytesMatchTransportAccounting) {
  const auto program = example_program("reachable.ndlog");
  const auto facts = example_workload("reachable.ndlog");
  const auto run = cluster_fixpoint(program, facts, {});
  EXPECT_TRUE(run.stats.quiesced);
  EXPECT_GT(run.stats.bytes_sent, 0u);
  // Node-level bytes_sent counts every payload handed to the transport —
  // batches, retransmits and acks alike — so on a lossless transport the two
  // layers must agree *exactly*, and the ack share is strictly inside it.
  EXPECT_EQ(run.stats.transport.bytes_sent, run.stats.bytes_sent);
  EXPECT_GT(run.stats.ack_bytes, 0u);
  EXPECT_LT(run.stats.ack_bytes, run.stats.bytes_sent);
  EXPECT_GT(run.stats.acks_sent, 0u);
  EXPECT_EQ(run.stats.transport.frames_delivered, run.stats.transport.frames_sent);
}

}  // namespace
}  // namespace fvn
