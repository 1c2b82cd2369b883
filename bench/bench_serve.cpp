// fvn::serve benchmark: lookups/sec against the route-serving plane built
// from the 16-node path-vector fixpoint, idle and under convergence-style
// churn (the writer retracts/reinstalls routes and publishes epochs while
// the readers run). Acceptance (ISSUE 10):
//
//   - >= 1M lookups/sec with a single reader on the idle fixpoint
//   - churn throughput >= 0.5x idle (readers are wait-free; the writer
//     publishing epochs must not stall them)
//   - every reader-side checksum spot-check matches the published snapshot
//     (no torn reads), recorded as serve/bench/consistent
//   - snapshot publish latency recorded (p50/p99) and gated by check.sh
//
// Recorded in BENCH_serve.json (serve/bench/*), gated by scripts/check.sh.
// The box running this may be a single core: the churn writer sleeps ~50us
// between ops so readers actually get scheduled — the same pacing as
// `fvn_cli serve --readers <n>`.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/protocols.hpp"
#include "runtime/simulator.hpp"
#include "serve/plane.hpp"

namespace {

using namespace fvn;

constexpr std::size_t kNodes = 16;

struct Fixture {
  std::unique_ptr<serve::ServePlane> plane;  // ServePlane is not movable
  /// Live (node, tuple) pairs at the fixpoint — what the churn writer flips.
  std::vector<std::pair<std::string, ndlog::Tuple>> live;
  /// (interned node id, destination address bits) lookup targets.
  std::vector<std::pair<serve::Interner::Id, std::uint32_t>> targets;
};

/// Run the 16-node path-vector line to fixpoint with the serve feed attached
/// and keep the live bestPath tuples for churning.
Fixture build_fixture() {
  const auto catalog = ndlog::Catalog::from_program(core::path_vector_program());
  Fixture fx;
  fx.plane = std::make_unique<serve::ServePlane>(
      serve::ServeSpec::parse("bestPath:dst,nexthop,cost", catalog));
  serve::Feed feed(*fx.plane);

  std::map<std::string, std::pair<std::string, ndlog::Tuple>> live;
  runtime::SimOptions options;
  options.tuple_events = [&feed, &live](std::string_view kind,
                                        const std::string& node,
                                        const ndlog::Tuple& tuple, double now) {
    feed.on_event(kind, node, tuple, now);
    if (tuple.predicate() != "bestPath") return;
    const std::string id = node + "\x1f" + tuple.to_string();
    if (kind == "install") {
      live.emplace(id, std::make_pair(node, tuple));
    } else {
      live.erase(id);
    }
  };
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(kNodes)));
  sim.run();
  feed.finish();

  for (auto& [id, entry] : live) fx.live.push_back(entry);
  const serve::Snapshot& snap = fx.plane->current();
  for (std::size_t node = 0; node < snap.tables.size(); ++node) {
    if (snap.tables[node] == nullptr) continue;
    snap.tables[node]->for_each([&fx, node](serve::Key key, const serve::Row&) {
      fx.targets.emplace_back(static_cast<serve::Interner::Id>(node),
                              key.prefix);
    });
  }
  return fx;
}

struct Measured {
  std::uint64_t lookups = 0;
  double seconds = 0;
  std::uint64_t churn_ops = 0;
  bool consistent = true;
};

/// `readers` threads hammer the plane for ~`seconds`; when `churn`, this
/// thread concurrently flips live routes and publishes epochs.
Measured run_readers(Fixture& fx, int readers, double seconds, bool churn) {
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<std::uint64_t> total{0};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  for (int r = 0; r < readers; ++r) {
    pool.emplace_back([&fx, &stop, &torn, &total, r]() {
      auto reader = fx.plane->register_reader();
      std::uint64_t x = 0x9e3779b97f4a7c15ull ^ (static_cast<std::uint64_t>(r) + 1);
      std::uint64_t count = 0;
      std::uint64_t leases = 0;
      const std::size_t n = fx.targets.size();
      while (!stop.load(std::memory_order_relaxed)) {
        const auto lease = reader.acquire();
        // Periodic full-content verification: the torn-read tripwire (cheap
        // enough at this cadence to not distort the throughput number).
        if (++leases % 512 == 0 &&
            serve::recompute_checksum(*lease) != lease->checksum) {
          torn.store(true);
          stop.store(true);
        }
        for (int i = 0; i < 64; ++i) {
          x ^= x << 13;
          x ^= x >> 7;
          x ^= x << 17;
          const auto& t = fx.targets[static_cast<std::size_t>(x % n)];
          benchmark::DoNotOptimize(reader.lookup(lease, t.first, t.second));
          ++count;
        }
      }
      total.fetch_add(count, std::memory_order_relaxed);
    });
  }

  Measured out;
  const auto t0 = std::chrono::steady_clock::now();
  const auto deadline = t0 + std::chrono::duration<double>(seconds);
  if (churn) {
    std::size_t next = 0;
    while (std::chrono::steady_clock::now() < deadline &&
           !stop.load(std::memory_order_relaxed)) {
      const auto& [node, tuple] = fx.live[next % fx.live.size()];
      fx.plane->apply("retract", node, tuple);
      fx.plane->apply("install", node, tuple);
      ++next;
      ++out.churn_ops;
      if (next % 8 == 0) fx.plane->publish();
      // Yield the core(s) to the readers — this box may be single-core.
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
    fx.plane->publish(true);
  } else {
    while (std::chrono::steady_clock::now() < deadline &&
           !stop.load(std::memory_order_relaxed)) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }
  stop.store(true);
  for (auto& t : pool) t.join();
  out.seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  out.lookups = total.load();
  out.consistent = !torn.load();
  return out;
}

void ServeLookup(benchmark::State& state) {
  static Fixture fx = build_fixture();
  auto reader = fx.plane->register_reader();
  std::uint64_t x = 0x2545f4914f6cdd1dull;
  const std::size_t n = fx.targets.size();
  const auto lease = reader.acquire();
  for (auto _ : state) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const auto& t = fx.targets[static_cast<std::size_t>(x % n)];
    benchmark::DoNotOptimize(reader.lookup(lease, t.first, t.second));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(ServeLookup);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "serve");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  // Instrumented workload (runs in smoke mode too — these are the gated
  // numbers): idle and churn lookup throughput at 1/2/4 readers over the
  // 16-node path-vector fixpoint.
  const double window = harness.smoke() ? 0.15 : 0.4;
  Fixture fx = build_fixture();

  auto& m = harness.metrics();
  m.counter("serve/bench/nodes").add(kNodes);
  m.counter("serve/bench/routes").add(fx.plane->current().routes);

  bool consistent = true;
  std::map<int, double> idle_rate;
  std::map<int, double> churn_rate;
  std::uint64_t churn_ops = 0;
  for (const int readers : {1, 2, 4}) {
    const auto idle = run_readers(fx, readers, window, /*churn=*/false);
    const auto churn = run_readers(fx, readers, window, /*churn=*/true);
    idle_rate[readers] = static_cast<double>(idle.lookups) / idle.seconds;
    churn_rate[readers] = static_cast<double>(churn.lookups) / churn.seconds;
    consistent = consistent && idle.consistent && churn.consistent;
    churn_ops += churn.churn_ops;
    const std::string tag = "_r" + std::to_string(readers);
    m.counter("serve/bench/idle_lookups_per_s" + tag)
        .add(static_cast<std::uint64_t>(idle_rate[readers]));
    m.counter("serve/bench/churn_lookups_per_s" + tag)
        .add(static_cast<std::uint64_t>(churn_rate[readers]));
  }

  const auto stats = fx.plane->stats();
  // Fixed-point percent: 100 = 1.00x (churn throughput relative to idle,
  // single reader — the wait-free-readers gate).
  const double ratio = idle_rate[1] > 0 ? churn_rate[1] / idle_rate[1] : 0;
  m.counter("serve/bench/churn_ratio_x100")
      .add(static_cast<std::uint64_t>(ratio * 100));
  m.counter("serve/bench/churn_ops").add(churn_ops);
  m.counter("serve/bench/epochs_published").add(stats.epochs_published);
  m.counter("serve/bench/snapshots_reclaimed").add(stats.snapshots_reclaimed);
  m.counter("serve/bench/publish_p50_us").add(stats.publish_p50_us);
  m.counter("serve/bench/publish_p99_us").add(stats.publish_p99_us);
  m.counter("serve/bench/consistent").add(consistent ? 1 : 0);

  if (!harness.smoke()) {
    std::cout << "\n=== serve lookups (" << kNodes
              << "-node path-vector fixpoint, " << fx.plane->current().routes
              << " routes) ===\n";
    for (const int readers : {1, 2, 4}) {
      std::cout << "readers=" << readers << ": idle "
                << idle_rate[readers] / 1e6 << " M/s, churn "
                << churn_rate[readers] / 1e6 << " M/s\n";
    }
    std::cout << "churn ratio (1 reader): " << ratio << "x (budget >= 0.5x)\n"
              << "publish latency: p50 " << stats.publish_p50_us << " us, p99 "
              << stats.publish_p99_us << " us\n"
              << "epochs: " << stats.epochs_published << " published, "
              << stats.snapshots_reclaimed << " reclaimed\n"
              << (consistent ? "consistent\n" : "TORN READS OBSERVED\n");
  }
  if (!consistent) {
    std::cerr << "bench_serve: a reader observed a torn snapshot\n";
    return 1;
  }
  return harness.finish();
}
