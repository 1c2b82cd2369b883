// LTL runtime-monitor overhead benchmark: the path-vector line run bare vs
// with SimOptions::tuple_events feeding an ltl::MonitorSet (the same
// lowering `fvn_cli sim --monitor` uses). The monitor steps once per tuple
// install/retract/expire, so this measures the full subset-construction cost
// on the hot path. Gate: overhead <= 10%, recorded as
// ltl/bench/overhead_pct_x100 in BENCH_ltl.json.
//
// The gated number is the median, over alternating bare/monitored pairs, of
// each pair's relative overhead, on a 48-node line (about 100 ms a run): a
// run of a few milliseconds sits at timer and scheduler noise, and best-of-N
// over two separate batches lets a drift between the batches read as
// overhead.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/protocols.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "runtime/simulator.hpp"

namespace {

using namespace fvn;

// The monitored property set: a liveness witness on the far end of the line
// plus convergence — the same shape the shipped examples/ndlog/*.ltl specs use.
ltl::Spec monitor_spec(std::size_t nodes) {
  std::string far = "n";
  far += std::to_string(nodes - 1);
  const std::string text =
      "delivers: F bestPath(@n0, " + far + ", _, _).\n" +
      "converges: F G stable(bestPath).\n";
  return ltl::parse_spec(text, "bench_ltl.spec");
}

struct MonitoredRun {
  runtime::SimStats stats;
  double seconds = 0;
  std::size_t events = 0;
  bool satisfied = true;
};

MonitoredRun run_path_vector(std::size_t nodes, bool monitored) {
  runtime::SimOptions options;
  ltl::Spec spec;
  ltl::MonitorSet* live = nullptr;
  std::unique_ptr<ltl::MonitorSet> monitors;
  if (monitored) {
    spec = monitor_spec(nodes);
    monitors = std::make_unique<ltl::MonitorSet>(spec);
    live = monitors.get();
    options.tuple_events = [live](std::string_view kind, const std::string& /*node*/,
                                  const ndlog::Tuple& tuple, double /*now*/) {
      live->on_event(ltl::event_kind(kind), tuple);
    };
  }
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(nodes)));
  MonitoredRun out;
  out.stats = sim.run();
  if (live) {
    const auto verdicts = live->finish();
    out.events = live->events();
    out.satisfied = std::all_of(verdicts.begin(), verdicts.end(),
                                [](const auto& v) { return v.satisfied; });
  }
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return out;
}

/// `pairs` bare/monitored pairs, alternating which one runs first so a slow
/// drift of the machine weighs on both sides equally.
struct PairedRuns {
  double baseline_s = 0;   ///< median bare run
  double monitored_s = 0;  ///< median monitored run
  double overhead_pct = 0; ///< median of the per-pair relative overheads
  MonitoredRun last_monitored;
};

PairedRuns paired_runs(std::size_t nodes, int pairs) {
  run_path_vector(nodes, false);  // warm-up: allocator and caches
  std::vector<double> bare;
  std::vector<double> monitored;
  std::vector<double> overhead;
  PairedRuns out;
  for (int i = 0; i < pairs; ++i) {
    MonitoredRun b;
    if (i % 2 == 0) {
      b = run_path_vector(nodes, false);
      out.last_monitored = run_path_vector(nodes, true);
    } else {
      out.last_monitored = run_path_vector(nodes, true);
      b = run_path_vector(nodes, false);
    }
    bare.push_back(b.seconds);
    monitored.push_back(out.last_monitored.seconds);
    overhead.push_back(b.seconds > 0
                           ? (out.last_monitored.seconds - b.seconds) / b.seconds * 100.0
                           : 0);
  }
  out.baseline_s = bench::median(bare);
  out.monitored_s = bench::median(monitored);
  out.overhead_pct = bench::median(overhead);
  return out;
}

void PathVectorMonitored(benchmark::State& state) {
  const bool monitored = state.range(0) != 0;
  const auto nodes = static_cast<std::size_t>(state.range(1));
  MonitoredRun last;
  for (auto _ : state) {
    last = run_path_vector(nodes, monitored);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(monitored ? "monitored" : "baseline");
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["tuples"] = static_cast<double>(last.stats.tuples_derived);
  state.counters["events"] = static_cast<double>(last.events);
}
BENCHMARK(PathVectorMonitored)
    ->Args({0, 8})
    ->Args({1, 8})
    ->Args({0, 16})
    ->Args({1, 16})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "ltl");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Instrumented workload: the 48-node path-vector line, bare vs monitored
  // (fewer pairs in smoke mode, same comparison).
  const std::size_t nodes = 48;
  const int pairs = harness.smoke() ? 11 : 21;
  const auto runs = paired_runs(nodes, pairs);
  const auto& monitored = runs.last_monitored;
  const double overhead_pct = runs.overhead_pct;

  auto& m = harness.metrics();
  m.counter("ltl/bench/nodes").add(nodes);
  m.counter("ltl/bench/pairs").add(static_cast<std::uint64_t>(pairs));
  m.counter("ltl/bench/baseline_us")
      .add(static_cast<std::uint64_t>(runs.baseline_s * 1e6));
  m.counter("ltl/bench/monitored_us")
      .add(static_cast<std::uint64_t>(runs.monitored_s * 1e6));
  m.counter("ltl/bench/monitor_events").add(monitored.events);
  // Fixed-point percent: 1000 = 10.00% (clamped at 0 for noise-negative runs).
  m.counter("ltl/bench/overhead_pct_x100")
      .add(static_cast<std::uint64_t>(std::max(0.0, overhead_pct) * 100));
  // The monitored run must actually verify something: all properties
  // satisfied and events observed, else the overhead number is meaningless.
  m.counter("ltl/bench/monitors_satisfied").add(monitored.satisfied ? 1 : 0);

  if (!harness.smoke()) {
    std::cout << "\n=== LTL monitor overhead (" << nodes << "-node path-vector, "
              << pairs << " alternating pairs) ===\n"
              << "baseline:  " << runs.baseline_s * 1000 << " ms (median)\n"
              << "monitored: " << runs.monitored_s * 1000 << " ms (median, "
              << monitored.events << " tuple events)\n"
              << "overhead:  " << overhead_pct << "% (median of pairs; budget 10%)\n"
              << "verdicts:  " << (monitored.satisfied ? "all satisfied" : "VIOLATION")
              << "\n";
  }
  if (!monitored.satisfied || monitored.events == 0) {
    std::cerr << "bench_ltl: monitored run did not verify the spec\n";
    return 1;
  }
  return harness.finish();
}
