// Dataflow executor benchmark: the simulator running the 16-node path-vector
// line (plus smaller/larger lines for scaling) on the compiled element
// strands of fvn::dataflow, cost-guided join ordering on a selective join,
// and the incremental-aggregate ablation.
//
// The instrumented workload records tuples/sec into the BENCH_dataflow.json
// metrics document.
#include <benchmark/benchmark.h>

#include <chrono>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/protocols.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"

namespace {

using namespace fvn;

struct EngineRun {
  runtime::SimStats stats;
  double seconds = 0;
  double tuples_per_sec = 0;
};

EngineRun run_path_vector(std::size_t nodes, bool incremental_aggregates = true) {
  runtime::SimOptions options;
  options.incremental_aggregates = incremental_aggregates;
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(nodes)));
  EngineRun out;
  out.stats = sim.run();
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.tuples_per_sec =
      out.seconds > 0 ? static_cast<double>(out.stats.tuples_derived) / out.seconds : 0;
  return out;
}

void PathVectorEngine(benchmark::State& state) {
  const auto nodes = static_cast<std::size_t>(state.range(0));
  EngineRun last;
  for (auto _ : state) {
    last = run_path_vector(nodes);
    benchmark::DoNotOptimize(last);
  }
  state.counters["nodes"] = static_cast<double>(nodes);
  state.counters["tuples"] = static_cast<double>(last.stats.tuples_derived);
  state.counters["tuples_per_sec"] = last.tuples_per_sec;
  state.counters["messages"] = static_cast<double>(last.stats.messages_sent);
}
BENCHMARK(PathVectorEngine)->Arg(8)->Arg(16)->Arg(32)->Unit(benchmark::kMillisecond);

// Cost-guided join ordering (SimOptions::cost_order). The shipped protocol
// plans are already optimal, so the planner's reorder is exercised on the
// same selective-join workload tests/test_cost_crossval.cpp pins: written
// order (a, b, c) builds an n^2 cross-join before c filters it; the
// analyzer's order (a, c, b) is linear. Fixpoints are identical either way.
const char* kReorderProgram =
    "materialize(seed, infinity, infinity, keys(1)).\n"
    "materialize(a, infinity, infinity, keys(1,2)).\n"
    "materialize(b, infinity, infinity, keys(1,2)).\n"
    "materialize(c, infinity, infinity, keys(1,2)).\n"
    "materialize(sel, infinity, infinity, keys(1,2,3)).\n"
    "w1 sel(@S,X,Y) :- a(@S,X), b(@S,Y), c(@S,X,Y).\n";

EngineRun run_reorder(bool cost_order, int n) {
  runtime::SimOptions options;
  options.cost_order = cost_order;
  const auto program = ndlog::parse_program(kReorderProgram, "reorder");
  std::vector<ndlog::Tuple> facts;
  facts.reserve(static_cast<std::size_t>(n) * 3);
  for (int i = 0; i < n; ++i) {
    std::string x = "x";
    x += std::to_string(i);
    facts.push_back(ndlog::parse_fact("a(@n0," + x + ")"));
    facts.push_back(ndlog::parse_fact("b(@n0," + x + ")"));
    facts.push_back(ndlog::parse_fact("c(@n0," + x + "," + x + ")"));
  }
  const auto t0 = std::chrono::steady_clock::now();
  runtime::Simulator sim(program, options);
  sim.inject_all(facts);
  EngineRun out;
  out.stats = sim.run();
  out.seconds = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.tuples_per_sec =
      out.seconds > 0 ? static_cast<double>(out.stats.tuples_derived) / out.seconds : 0;
  return out;
}

void DataflowCostOrder(benchmark::State& state) {
  const bool cost_order = state.range(0) != 0;
  const int n = static_cast<int>(state.range(1));
  EngineRun last;
  for (auto _ : state) {
    last = run_reorder(cost_order, n);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(cost_order ? "cost_order" : "written_order");
  state.counters["n"] = static_cast<double>(n);
  state.counters["tuples"] = static_cast<double>(last.stats.tuples_derived);
  state.counters["tuples_per_sec"] = last.tuples_per_sec;
}
BENCHMARK(DataflowCostOrder)
    ->Args({0, 100})
    ->Args({1, 100})
    ->Args({0, 300})
    ->Args({1, 300})
    ->Unit(benchmark::kMillisecond);

void DataflowAggregateAblation(benchmark::State& state) {
  // Incremental aggregate view maintenance vs the full-recompute fallback.
  const bool incremental = state.range(0) != 0;
  EngineRun last;
  for (auto _ : state) {
    last = run_path_vector(16, incremental);
    benchmark::DoNotOptimize(last);
  }
  state.SetLabel(incremental ? "incremental" : "recompute");
  state.counters["tuples_per_sec"] = last.tuples_per_sec;
}
BENCHMARK(DataflowAggregateAblation)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "dataflow");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Instrumented workload: the 16-node path-vector line that the
  // BENCH_dataflow.json trajectory tracks (smaller in smoke mode).
  const std::size_t nodes = harness.smoke() ? 8 : 16;
  const auto flow = run_path_vector(nodes);

  auto& m = harness.metrics();
  m.counter("dataflow/bench/nodes").add(nodes);
  m.counter("dataflow/bench/dataflow/tuples").add(flow.stats.tuples_derived);
  m.counter("dataflow/bench/dataflow/tuples_per_sec")
      .add(static_cast<std::uint64_t>(flow.tuples_per_sec));

  // Cost-guided join ordering on the selective-join workload: written order
  // vs the analyzer's order, same fixpoint.
  const int reorder_n = harness.smoke() ? 100 : 300;
  const auto written = run_reorder(false, reorder_n);
  const auto ordered = run_reorder(true, reorder_n);
  const double order_speedup =
      ordered.seconds > 0 ? written.seconds / ordered.seconds : 0;
  m.counter("dataflow/bench/cost_order/n").add(reorder_n);
  m.counter("dataflow/bench/cost_order/written/tuples_per_sec")
      .add(static_cast<std::uint64_t>(written.tuples_per_sec));
  m.counter("dataflow/bench/cost_order/ordered/tuples_per_sec")
      .add(static_cast<std::uint64_t>(ordered.tuples_per_sec));
  m.counter("dataflow/bench/cost_order/speedup_x100")
      .add(static_cast<std::uint64_t>(order_speedup * 100));
  // Equivalence sanity: the reorder must not change what is derived.
  m.counter("dataflow/bench/cost_order/tuples_delta")
      .add(written.stats.tuples_derived > ordered.stats.tuples_derived
               ? written.stats.tuples_derived - ordered.stats.tuples_derived
               : ordered.stats.tuples_derived - written.stats.tuples_derived);

  if (!harness.smoke()) {
    std::cout << "\n=== dataflow executor (" << nodes << "-node path-vector) ===\n"
              << "dataflow:    " << flow.stats.tuples_derived << " tuples in "
              << flow.seconds * 1000 << " ms (" << flow.tuples_per_sec
              << " tuples/s), " << flow.stats.messages_sent << " messages\n"
              << "\n=== cost-guided join order (n=" << reorder_n
              << " selective join) ===\n"
              << "written order: " << written.seconds * 1000 << " ms\n"
              << "cost order:    " << ordered.seconds * 1000 << " ms\n"
              << "speedup:       " << order_speedup << "x ("
              << written.stats.tuples_derived << " vs "
              << ordered.stats.tuples_derived << " tuples, must match)\n";
  }
  return harness.finish();
}
