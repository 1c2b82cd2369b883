// serve-lookup / serve-update: route serving under churn. Set-up converges
// the converge graph with a serve::Feed on `bestPath:dst,nexthop,cost`. Then
// two reader threads run closed-loop batches (acquire + 64 lookups) while
// this thread runs an open-loop writer: every 400 µs, 8 route flips (retract
// then reinstall) and one publish, each cycle timed from its due time. The
// writer spins to its due time: waking from a sleep adds tens of µs of timer
// slack to a cycle of under 100 µs. Both workloads run this same mix;
// serve-lookup reports the reader batch (in the reader's CPU time) as its op,
// serve-update the writer cycle (in wall time, since lateness against the
// schedule is part of it), both at reference speed (bench.hpp).
#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <optional>
#include <thread>

#include "bench.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"
#include "serve/plane.hpp"

namespace perfbench {

using namespace fvn;

namespace {

constexpr int kReaders = 2;
constexpr int kLookupsPerBatch = 64;
constexpr std::int64_t kWriterPeriodNs = 400'000;
constexpr int kFlipsPerCycle = 8;
/// Readers keep a uniform sample of their batch times (reservoir sampling:
/// fixed memory however fast they run) and, in a traced run, record spans
/// for every 16th batch.
constexpr std::size_t kReservoir = std::size_t{1} << 16;
constexpr std::uint64_t kSpanEvery = 16;
/// Every 512th lease is re-checksummed (outside the timed batch).
constexpr std::uint64_t kChecksumEvery = 512;
/// Every 16384th batch (about 0.14 s of batches) a reader runs one
/// calibration pass and scales the batch times since its last pass to
/// reference speed (bench.hpp).
constexpr std::uint64_t kBatchesPerCalibration = std::uint64_t{1} << 14;
/// Every 256 cycles (about 0.1 s) the writer pauses for one calibration pass
/// and scales those cycles the same way; its schedule restarts after the
/// pause, so the pause counts in no cycle's lateness.
constexpr std::uint64_t kCyclesPerCalibration = 256;

struct Fixture {
  ndlog::Program program;
  std::vector<ndlog::Tuple> facts;
  std::unique_ptr<serve::ServePlane> plane;  // ServePlane is not movable
  /// Live bestPath (node, tuple) pairs at the fixpoint, in flip order.
  std::vector<std::pair<std::string, ndlog::Tuple>> flips;
  /// (interned node id, destination key) lookup targets.
  std::vector<std::pair<serve::Interner::Id, std::uint32_t>> targets;
  std::uint64_t checksum = 0;
  runtime::SimStats stats;
  RuntimeCounts counts;  ///< traced runs only
};

/// Set-up: converge the graph, named from `naming`, with the Feed attached,
/// then collect the flips and the lookup targets. `seconds` is the time up to
/// the simulator's teardown, which falls outside the timed set-up as it falls
/// outside the timed converge op.
Fixture make_fixture(const Args& args, std::uint64_t naming, SpanLog* log, double& seconds) {
  const std::int64_t start = thread_cpu_ns();
  Fixture fx;
  {
    Scope s(log, "ndlog.parse");
    fx.program = ndlog::parse_program(kPathVectorSource, "path_vector");
  }
  {
    Scope s(log, "bench.inputs");
    fx.facts = mesh_graph(naming, args.small).link_facts();
  }
  std::optional<serve::Feed> feed;
  {
    Scope s(log, "serve.build");
    fx.plane = std::make_unique<serve::ServePlane>(serve::ServeSpec::parse(
        "bestPath:dst,nexthop,cost", ndlog::Catalog::from_program(fx.program)));
    feed.emplace(*fx.plane);
  }
  runtime::SimOptions options;
  options.tuple_events = [&feed, &fx, log](std::string_view kind, const std::string& node,
                                          const ndlog::Tuple& tuple, double now) {
    if (log != nullptr) fx.counts.on_event(kind, now);
    Scope s(log, "serve.feed");
    feed->on_event(kind, node, tuple, now);
  };
  std::optional<runtime::Simulator> sim;
  {
    Scope s(log, "runtime.construct");
    sim.emplace(fx.program, std::move(options));
  }
  {
    Scope s(log, "runtime.inject");
    sim->inject_all(fx.facts);
  }
  {
    Scope s(log, "runtime.run");
    fx.stats = sim->run();
  }
  {
    Scope s(log, "serve.feed");
    feed->finish();
  }
  if (log != nullptr) fx.counts.at_fixpoint(*sim, fx.stats);

  Scope s(log, "bench.targets");
  // Flip order: every node's routes in a seeded order, taken one per node in
  // a seeded node order, so that each cycle's flips hit distinct tables and
  // every cycle re-freezes the same number of tables.
  Rng rng(args.seed ^ 0x5eedf11b5ull);
  auto shuffle = [&rng](auto& items) {
    for (std::size_t i = items.size(); i > 1; --i) std::swap(items[i - 1], items[rng.below(i)]);
  };
  std::vector<std::string> nodes = sim->nodes();
  std::sort(nodes.begin(), nodes.end());
  shuffle(nodes);
  std::vector<std::vector<ndlog::Tuple>> routes;
  std::size_t most = 0;
  for (const std::string& node : nodes) {
    const auto& rel = sim->database(node).relation("bestPath");
    routes.emplace_back(rel.begin(), rel.end());
    std::sort(routes.back().begin(), routes.back().end());  // relation order is a hash order
    shuffle(routes.back());
    most = std::max(most, routes.back().size());
  }
  for (std::size_t round = 0; round < most; ++round) {
    for (std::size_t n = 0; n < nodes.size(); ++n) {
      if (round < routes[n].size()) fx.flips.emplace_back(nodes[n], routes[n][round]);
    }
  }
  const serve::Snapshot& snap = fx.plane->current();
  for (std::size_t node = 0; node < snap.tables.size(); ++node) {
    if (snap.tables[node] == nullptr) continue;
    snap.tables[node]->for_each([&fx, node](serve::Key key, const serve::Row&) {
      fx.targets.emplace_back(static_cast<serve::Interner::Id>(node), key.prefix);
    });
  }
  fx.checksum = snap.checksum;
  seconds = seconds_between(start, thread_cpu_ns());
  return fx;
}

/// One reader thread's tallies; [0] untraced batches, [1] traced ones.
struct ReaderTally {
  explicit ReaderTally(int index) : log("reader" + std::to_string(index)) {
    for (auto& samples : batch_s) samples.reserve(kReservoir);
    for (auto& samples : pending) samples.reserve(kBatchesPerCalibration);
  }

  /// One calibration pass: scale the pending batch times and offer them to
  /// the reservoirs.
  void calibrate(Rng& sampler) {
    const double calibration = calibrations.emplace_back(calibration_s());
    for (int kind = 0; kind < 2; ++kind) {
      auto& kept = batch_s[kind];
      for (const double raw : pending[kind]) {
        const double sample = at_reference_speed(raw, calibration);
        const std::uint64_t seen = ++offered[kind];
        if (kept.size() < kReservoir) {
          kept.push_back(sample);
        } else if (const auto slot = sampler.below(seen); slot < kReservoir) {
          kept[slot] = sample;
        }
      }
      pending[kind].clear();
    }
  }

  SpanLog log;
  std::vector<double> batch_s[2];      ///< reservoirs, at reference speed
  std::vector<double> pending[2];      ///< raw batch times since the last calibration
  std::uint64_t offered[2] = {0, 0};   ///< samples offered to each reservoir
  std::vector<double> calibrations;
  std::uint64_t batches[2] = {0, 0};
  std::uint64_t missed_batches = 0;
  std::uint64_t checksums = 0;
  std::uint64_t bad_checksums = 0;
};

void reader_loop(serve::ServePlane& plane, const Fixture& fx, std::uint64_t seed,
                 const std::atomic<bool>& stop, bool trace, ReaderTally& tally) {
  const auto reader = plane.register_reader();
  std::uint64_t x = seed | 1;
  Rng sampler(seed);
  const std::size_t n = fx.targets.size();
  std::uint64_t count = 0;
  std::uint32_t ordinal = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    ++count;
    SpanLog* log = trace && count % kSpanEvery == 0 ? &tally.log : nullptr;
    if (log != nullptr) log->set_op(++ordinal);
    bool all_hit = true;
    const std::int64_t start = thread_cpu_ns();
    {
      Scope op(log, "bench.batch");
      const auto lease = [&] {
        Scope s(log, "serve.acquire");
        return reader.acquire();
      }();
      Scope s(log, "serve.lookup");
      for (int i = 0; i < kLookupsPerBatch; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const auto& t = fx.targets[static_cast<std::size_t>(x % n)];
        all_hit = reader.lookup(lease, t.first, t.second).hit && all_hit;
      }
    }
    const std::int64_t end = thread_cpu_ns();
    const int kind = log != nullptr ? 1 : 0;
    if (log != nullptr) log->set_op(0);
    if (!all_hit) ++tally.missed_batches;
    ++tally.batches[kind];
    tally.pending[kind].push_back(seconds_between(start, end));
    if (count % kChecksumEvery == 0) {
      const auto lease = reader.acquire();
      ++tally.checksums;
      if (serve::recompute_checksum(*lease) != lease->checksum) ++tally.bad_checksums;
    }
    if (count % kBatchesPerCalibration == 0) tally.calibrate(sampler);
  }
  tally.calibrate(sampler);
}

/// The open-loop writer: one cycle per period until `seconds` have passed,
/// each timed from its due time to the end of its publish, with a
/// calibration pause every kCyclesPerCalibration cycles. With a log, every
/// other cycle records spans. Untraced cycles also give their lateness.
Samples run_writer(Fixture& fx, double seconds, SpanLog* log, std::vector<double>& lag_s,
                   std::vector<double>& calibrations, Report& report) {
  Samples out;
  Samples pending;  // raw cycle times since the last calibration
  auto calibrate = [&] {
    const double calibration = calibrations.emplace_back(calibration_s());
    for (const double raw : pending.untraced)
      out.untraced.push_back(at_reference_speed(raw, calibration));
    for (const double raw : pending.traced)
      out.traced.push_back(at_reference_speed(raw, calibration));
    pending = Samples{};
  };
  std::size_t next_flip = 0;
  std::uint32_t ordinal = 0;
  const std::int64_t begin = now_ns();
  const std::int64_t end = begin + static_cast<std::int64_t>(seconds * 1e9);
  std::uint64_t cycle = 0;
  for (std::int64_t due = begin; due < end; due += kWriterPeriodNs, ++cycle) {
    if (cycle > 0 && cycle % kCyclesPerCalibration == 0) {
      calibrate();
      due = now_ns();
    }
    std::int64_t start = now_ns();
    while (start < due) start = now_ns();
    SpanLog* traced = log != nullptr && cycle % 2 == 1 ? log : nullptr;
    std::size_t root = 0;
    if (traced != nullptr) {
      traced->set_op(++ordinal);
      root = traced->open("bench.cycle", due);
      traced->close(traced->open("bench.lag", due), start);
    }
    bool applied = true;
    for (int i = 0; i < kFlipsPerCycle; ++i) {
      const auto& [node, tuple] = fx.flips[next_flip++ % fx.flips.size()];
      {
        Scope s(traced, "serve.apply");
        applied = fx.plane->apply("retract", node, tuple) && applied;
      }
      Scope s(traced, "serve.apply");
      applied = fx.plane->apply("install", node, tuple) && applied;
    }
    {
      Scope s(traced, "serve.publish");
      fx.plane->publish();
    }
    const std::int64_t done = now_ns();
    if (traced != nullptr) {
      traced->close(root, done);
      traced->set_op(0);
      pending.traced.push_back(seconds_between(due, done));
    } else {
      pending.untraced.push_back(seconds_between(due, done));
      lag_s.push_back(seconds_between(due, start));
    }
    report.check(applied, "serve: a flip did not change the served table");
  }
  calibrate();
  return out;
}

}  // namespace

void run_serve(const Args& args, Report& report, bool report_writer) {
  SpanLog setup_log("setup");
  SpanLog writer_log("writer");
  SpanLog* slog = args.trace ? &setup_log : nullptr;
  SpanLog* wlog = args.trace ? &writer_log : nullptr;

  // Set-up, repeated; the last repeat's fixture is served. Each repeat is an
  // op of the setup log, so runtime/serve self times are per converge. The
  // first repeat is cold and is reported as runtime.cold_op_s, not in
  // setup_s. Every repeat runs before the window: set-ups after it ran 15 %
  // slower, on a heap that 20 s of publishes had churned.
  double cold_s = 0;
  std::vector<double> setup_samples;
  std::vector<double> calibrations;
  Fixture fx;
  const int repeats = args.small ? 2 : 16;
  Rng namings(args.seed);  // each repeat names the graph anew, as converge's ops do
  for (int i = 1; i <= repeats; ++i) {
    if (slog != nullptr) slog->set_op(static_cast<std::uint32_t>(i));
    double seconds = 0;
    std::optional<Fixture> next;
    {
      Scope s(slog, "bench.setup");
      next.emplace(make_fixture(args, namings.next(), slog, seconds));
    }
    if (i == 1) {
      cold_s = seconds;
    } else {
      const double calibration = calibrations.emplace_back(calibration_s());
      setup_samples.push_back(at_reference_speed(seconds, calibration));
    }
    fx = std::move(*next);  // frees the previous repeat's fixture, untimed
  }
  report.check(!fx.flips.empty() && !fx.targets.empty() && fx.stats.quiesced,
               "serve: the fixture did not converge to a non-empty route table");
  if (report.failed != 0) return;

  std::atomic<bool> stop{false};
  std::vector<std::unique_ptr<ReaderTally>> tallies;
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    tallies.push_back(std::make_unique<ReaderTally>(r));
    readers.emplace_back(reader_loop, std::ref(*fx.plane), std::cref(fx),
                         args.seed * 0x9e3779b97f4a7c15ull + static_cast<std::uint64_t>(r),
                         std::cref(stop), args.trace, std::ref(*tallies.back()));
  }
  const auto before = fx.plane->stats();
  const std::int64_t window_start = now_ns();
  std::vector<double> lag_s;
  const Samples cycles = run_writer(fx, args.seconds, wlog, lag_s, calibrations, report);
  stop.store(true);
  for (auto& t : readers) t.join();
  const double window_s = seconds_between(window_start, now_ns());
  // Before the sample vectors are merged and copied for the medians, whose
  // pages would otherwise make up the peak.
  const double peak_mb = peak_rss_mb();
  const auto after = fx.plane->stats();

  fx.plane->publish(true);
  report.check(fx.plane->current().checksum == fx.checksum,
               "serve: the final snapshot differs from the fixture");
  // Every reader batch is an op: it fails if any of its lookups missed.
  Samples batches;
  std::uint64_t lookups = 0;
  for (const auto& tally : tallies) {
    batches.untraced.insert(batches.untraced.end(), tally->batch_s[0].begin(),
                            tally->batch_s[0].end());
    batches.traced.insert(batches.traced.end(), tally->batch_s[1].begin(),
                          tally->batch_s[1].end());
    report.attempted += tally->batches[0] + tally->batches[1];
    lookups += (tally->batches[0] + tally->batches[1]) * kLookupsPerBatch;
    report.failed += tally->missed_batches;
    if (tally->missed_batches > 0)
      std::cerr << "perfbench: check failed: serve: " << tally->missed_batches
                << " reader batches missed a route\n";
    report.check(tally->bad_checksums == 0 && tally->checksums > 0,
                 "serve: " + std::to_string(tally->bad_checksums) + " of " +
                     std::to_string(tally->checksums) + " leases failed their checksum");
    calibrations.insert(calibrations.end(), tally->calibrations.begin(),
                        tally->calibrations.end());
  }

  const Samples& ops = report_writer ? cycles : batches;
  if (!args.trace) {
    report.set("op_s", median(ops.untraced), "s");
    report.set("setup_s", median(setup_samples), "s");
    report.set("peak_rss_mb", peak_mb, "MiB");
    return;
  }

  std::vector<double> eval_samples;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t start = now_ns();
    Scope s(slog, "ndlog.eval");
    [[maybe_unused]] const auto result = ndlog::Evaluator().run(fx.program, fx.facts);
    eval_samples.push_back(seconds_between(start, now_ns()));
  }

  report_op_timing(report, ops);
  std::vector<double> coverage;
  if (report_writer) {
    coverage = writer_log.coverage("bench.cycle");
  } else {
    for (const auto& tally : tallies) {
      const auto c = tally->log.coverage("bench.batch");
      coverage.insert(coverage.end(), c.begin(), c.end());
    }
  }
  report.set("bench.span_coverage", median(coverage), "ratio");
  report.set("bench.calibration_s", median(calibrations), "s");
  report.set("runtime.cold_op_s", cold_s, "s");
  report.set("runtime.run_self_s", median(setup_log.per_op_self_s("runtime.run")), "s");
  report.set("runtime.construct_s", median(setup_log.per_op_self_s("runtime.construct")), "s");
  fx.counts.report(report);
  report.set("ndlog.parse_s", median(setup_log.durations_s("ndlog.parse")), "s");
  report.set("ndlog.eval_s", median(eval_samples), "s");
  report.set("serve.feed_s", median(setup_log.per_op_self_s("serve.feed")), "s");
  report.set("serve.apply_s", median(writer_log.per_op_self_s("serve.apply")), "s");
  report.set("serve.publish_s", median(writer_log.per_op_self_s("serve.publish")), "s");
  report.set("serve.publish_p99_s", percentile(writer_log.durations_s("serve.publish"), 99), "s");
  report.set("serve.writer_lag_s", median(lag_s), "s");
  report.set("serve.epochs", static_cast<double>(after.epochs_published - before.epochs_published),
             "count");
  report.set("serve.reclaimed",
             static_cast<double>(after.snapshots_reclaimed - before.snapshots_reclaimed),
             "count");
  report.set("serve.batch_p99_s", percentile(batches.untraced, 99), "s");
  report.set("serve.lookups_per_s", static_cast<double>(lookups) / window_s, "1/s");
  if (!args.trace_out.empty()) {
    std::vector<const SpanLog*> logs = {&setup_log, &writer_log};
    for (const auto& tally : tallies) logs.push_back(&tally->log);
    if (!write_spans(args.trace_out, logs)) report.check(false, "cannot write " + args.trace_out);
  }
}

}  // namespace perfbench
