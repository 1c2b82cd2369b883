// Distributed-runtime benchmark: the same 16-node path-vector workload that
// bench_dataflow runs in the discrete-event Simulator, executed by the
// fvn::net Cluster — 16 real threads exchanging length-prefixed wire frames
// through the in-process transport, ack+retransmit enabled. The fixpoints
// are identical (pinned by test_net_cluster.cpp), so the delta against
// bench_dataflow's numbers is the cost of actual concurrency: encode/decode,
// mailbox synchronization, and termination detection vs a virtual clock.
//
// The instrumented workload records tuples/sec and bytes/sec plus the
// simulator reference into BENCH_net.json. The gated number,
// vs_simulator_x100, is the median over alternating cluster/simulator pairs
// of the per-pair throughput ratio: one run of each takes a few ms, too
// short to compare alone.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/protocols.hpp"
#include "net/cluster.hpp"
#include "runtime/simulator.hpp"

namespace {

using namespace fvn;

struct ClusterRun {
  net::ClusterStats stats;
  double seconds = 0;
  double tuples_per_sec = 0;
  double bytes_per_sec = 0;
};

ClusterRun run_cluster(std::size_t nodes, double loss = 0.0, bool cost_order = false) {
  net::ClusterOptions options;
  options.cost_order = cost_order;
  options.faults.drop_rate = loss;
  options.faults.seed = 7;
  const auto t0 = std::chrono::steady_clock::now();
  net::Cluster cluster(core::path_vector_program(), options);
  cluster.inject_all(core::link_facts(core::line_topology(nodes)));
  ClusterRun out;
  out.stats = cluster.run();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  if (out.seconds > 0) {
    out.tuples_per_sec = static_cast<double>(out.stats.tuples_installed) / out.seconds;
    out.bytes_per_sec =
        static_cast<double>(out.stats.transport.bytes_sent) / out.seconds;
  }
  return out;
}

double run_simulator_reference(std::size_t nodes) {
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Simulator sim(core::path_vector_program());
  sim.inject_all(core::link_facts(core::line_topology(nodes)));
  const auto stats = sim.run();
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return seconds > 0 ? static_cast<double>(stats.tuples_derived) / seconds : 0;
}

/// `pairs` cluster/simulator pairs, alternating which one runs first so a
/// slow drift of the machine weighs on both sides equally.
struct PairedRuns {
  ClusterRun last_cluster;
  bool all_quiesced = true;
  double cluster_tuples_per_sec = 0;  ///< median cluster run
  double cluster_bytes_per_sec = 0;   ///< median cluster run
  double sim_tuples_per_sec = 0;      ///< median simulator run
  double ratio = 0;                   ///< median of the per-pair ratios
};

PairedRuns paired_runs(std::size_t nodes, int pairs) {
  run_cluster(nodes);  // warm-up: allocator, threads and caches
  std::vector<double> cluster_tps;
  std::vector<double> cluster_bps;
  std::vector<double> sim_tps;
  std::vector<double> ratio;
  PairedRuns out;
  for (int i = 0; i < pairs; ++i) {
    double sim = 0;
    if (i % 2 == 0) {
      out.last_cluster = run_cluster(nodes);
      sim = run_simulator_reference(nodes);
    } else {
      sim = run_simulator_reference(nodes);
      out.last_cluster = run_cluster(nodes);
    }
    out.all_quiesced = out.all_quiesced && out.last_cluster.stats.quiesced;
    cluster_tps.push_back(out.last_cluster.tuples_per_sec);
    cluster_bps.push_back(out.last_cluster.bytes_per_sec);
    sim_tps.push_back(sim);
    ratio.push_back(sim > 0 ? out.last_cluster.tuples_per_sec / sim : 0);
  }
  out.cluster_tuples_per_sec = bench::median(cluster_tps);
  out.cluster_bytes_per_sec = bench::median(cluster_bps);
  out.sim_tuples_per_sec = bench::median(sim_tps);
  out.ratio = bench::median(ratio);
  return out;
}

void ClusterPathVector(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  ClusterRun last;
  for (auto _ : state) {
    last = run_cluster(nodes);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["tuples_per_sec"] = last.tuples_per_sec;
  state.counters["bytes_per_sec"] = last.bytes_per_sec;
  state.counters["messages"] = static_cast<double>(last.stats.messages_sent);
}
BENCHMARK(ClusterPathVector)->Arg(8)->Arg(16)->Unit(benchmark::kMillisecond);

void ClusterRetransmitOverhead(benchmark::State& state) {
  // Cost of masking 20% seeded loss with ack+retransmit on the 16-node run.
  const double loss = state.range(0) == 0 ? 0.0 : 0.2;
  ClusterRun last;
  for (auto _ : state) {
    last = run_cluster(16, loss);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(loss > 0 ? "loss_0.2" : "lossless");
  state.counters["retransmitted"] = static_cast<double>(last.stats.retransmitted);
  state.counters["tuples_per_sec"] = last.tuples_per_sec;
}
BENCHMARK(ClusterRetransmitOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "net");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Instrumented workload: the 16-node path-vector comparison against the
  // simulator numbers that BENCH_dataflow.json tracks (fewer pairs in smoke
  // mode, same comparison).
  const std::size_t nodes = 16;
  const int pairs = harness.smoke() ? 11 : 21;
  const auto runs = paired_runs(nodes, pairs);
  const auto& flow = runs.last_cluster;

  auto& m = harness.metrics();
  m.counter("net/bench/nodes").add(nodes);
  m.counter("net/bench/pairs").add(static_cast<std::uint64_t>(pairs));
  m.counter("net/bench/quiesced").add(runs.all_quiesced ? 1 : 0);
  m.counter("net/bench/dataflow/tuples_per_sec")
      .add(static_cast<std::uint64_t>(runs.cluster_tuples_per_sec));
  m.counter("net/bench/dataflow/bytes_per_sec")
      .add(static_cast<std::uint64_t>(runs.cluster_bytes_per_sec));
  m.counter("net/bench/messages").add(flow.stats.messages_sent);
  m.counter("net/bench/wire_bytes").add(flow.stats.transport.bytes_sent);
  // Cost-guided join ordering across the wire. The shipped path-vector plan
  // is already optimal (the one cheaper order the analyzer finds, on r4, is
  // unsafe to apply — ND0017 race), so this pins parity: same fixpoint work,
  // same message count, throughput within noise of the baseline.
  const auto ordered = run_cluster(nodes, 0.0, true);
  m.counter("net/bench/cost_order/tuples_per_sec")
      .add(static_cast<std::uint64_t>(ordered.tuples_per_sec));
  m.counter("net/bench/cost_order/messages_delta")
      .add(flow.stats.messages_sent > ordered.stats.messages_sent
               ? flow.stats.messages_sent - ordered.stats.messages_sent
               : ordered.stats.messages_sent - flow.stats.messages_sent);
  // Fixed-point ratio vs the virtual-clock executor: 100 = parity. The
  // cluster pays for real synchronization, so expect well below 100.
  m.counter("net/bench/vs_simulator_x100")
      .add(static_cast<std::uint64_t>(runs.ratio * 100));

  if (!harness.smoke()) {
    std::cout << "\n=== net cluster vs simulator (" << nodes << "-node path-vector, "
              << pairs << " alternating pairs) ===\n"
              << "cluster/dataflow:    " << flow.stats.tuples_installed
              << " tuples per run, " << runs.cluster_tuples_per_sec
              << " tuples/s (median), " << runs.cluster_bytes_per_sec
              << " B/s on the wire\n"
              << "simulator/dataflow:  " << runs.sim_tuples_per_sec
              << " tuples/s (median; virtual clock reference)\n"
              << "ratio:               " << runs.ratio * 100
              << " (x100, median of pairs)\n"
              << "messages:            " << flow.stats.messages_sent << " data frames, "
              << flow.stats.transport.bytes_sent << " wire bytes\n"
              << "cost-order:          " << ordered.tuples_per_sec
              << " tuples/s, " << ordered.stats.messages_sent
              << " data frames (plan already optimal: expect parity)\n";
  }
  return harness.finish();
}
