// Shared pieces of the benchmark binary: run arguments, the result report,
// sample statistics, the span recorder of the traced run, and the inputs the
// benchmark generates from its seed. See perfbench/README.md for the
// workloads and what each metric is meant to move.
#pragma once

#include <chrono>
#include <cstdint>
#include <ctime>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "ndlog/tuple.hpp"

namespace fvn::runtime {
class Simulator;
struct SimStats;
}  // namespace fvn::runtime

namespace perfbench {

// ---------------------------------------------------------------------------
// Run arguments and the report every workload fills in.
// ---------------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  /// Reduced inputs (8-node graph, 3-node line) for the benchmark's own
  /// tests: same code paths, a fraction of the work.
  bool small = false;
  /// Deliberately wrong expectation (verify: expect `wrong` to hold), so the
  /// tests can show that a failed check fails the op and the run.
  bool expect_wrong_holds = false;
  /// Where the traced run writes its spans (empty = keep them in memory only).
  std::string trace_out;
};

struct Metric {
  double value = 0;
  std::string unit;
};

struct Report {
  std::map<std::string, Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  /// Count one checked op; a failed check also prints why on stderr.
  void check(bool ok, const std::string& what);
};

/// Simulator counts of a traced run (converge ops, serve set-ups): events
/// seen at the tuple-event hook, then totals read at the fixpoint.
struct RuntimeCounts {
  std::size_t installs = 0;
  std::size_t retracts = 0;
  std::size_t rounds = 0;  ///< distinct virtual times seen at the hook
  double last_now = -1;
  std::size_t messages = 0;
  std::size_t best_rows = 0;
  std::size_t path_rows = 0;

  void on_event(std::string_view kind, double now) noexcept {
    installs += kind == "install" ? 1 : 0;
    retracts += kind == "retract" ? 1 : 0;
    rounds += now != last_now ? 1 : 0;
    last_now = now;
  }
  void at_fixpoint(const fvn::runtime::Simulator& sim, const fvn::runtime::SimStats& stats);
  /// Sets runtime.installs, .retracts, .rounds, .messages and .best_share.
  void report(Report& report) const;
};

void run_converge(const Args& args, Report& report);
/// Both serve workloads run the same readers + writer mix; `report_writer`
/// selects which op's median is op_s (writer cycle vs reader batch).
void run_serve(const Args& args, Report& report, bool report_writer);
void run_verify(const Args& args, Report& report);

// ---------------------------------------------------------------------------
// Timing and sample statistics.
// ---------------------------------------------------------------------------

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// CPU time of the calling thread, in ns. Single-threaded ops and set-ups
/// are timed with it: unlike the wall clock it stops while the hypervisor
/// runs another guest on this vCPU (steal time), which on a shared machine
/// moved wall-clock medians by a third between runs of the same code.
inline std::int64_t thread_cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

inline double seconds_between(std::int64_t start_ns, std::int64_t end_ns) {
  return static_cast<double>(end_ns - start_ns) * 1e-9;
}

/// Median (mean of the middle pair for even sizes); 0 for no samples.
double median(std::vector<double> samples);

/// The sample at rank p% (nearest rank below); 0 for no samples.
double percentile(std::vector<double> samples, double p);

/// The highest of the percentiles 50/75/90/95/99/99.9 that still has at least
/// ten samples above it, with its value.
struct Tail {
  double percentile = 50;
  double value = 0;
};
Tail tail(std::vector<double> samples);

/// Peak resident set size of this process so far, in MiB.
double peak_rss_mb();

// ---------------------------------------------------------------------------
// Machine-speed correction. On a shared host the same single-threaded op ran
// at up to twice the speed at one time as at another, in user CPU time with
// no steal, page faults or system time; a fixed ALU loop moved by 15 % over
// the same stretch, code that allocates and hashes strings by 30–60 %.
// Every sample behind op_s and setup_s is therefore scaled to the speed of a
// reference machine by a pass of a calibration kernel that follows it: one
// pass after each converge or verify op and each serve set-up, and one per
// reader every kBatchesPerCalibration batches and per writer every
// kCyclesPerCalibration cycles (serve.cpp).
// ---------------------------------------------------------------------------

/// CPU time of one pass of the calibration kernel: fixed work of the
/// benchmark's own with the profile of the simulator's and the model
/// checker's inner loops (short string keys in hash and ordered maps, many
/// small allocations), which no change to the fvn libraries can speed up.
double calibration_s();

/// Median calibration_s() on the reference machine (the 4-vCPU guest that
/// perfbench/README.md describes).
constexpr double kReferenceCalibrationS = 0.011;

/// A timed sample as it would read at the reference machine's speed: scaled
/// by kReferenceCalibrationS over `calibration`, a calibration_s() taken on
/// the same thread after the sample.
inline double at_reference_speed(double sample_s, double calibration) {
  return sample_s * (kReferenceCalibrationS / calibration);
}

// ---------------------------------------------------------------------------
// Spans of the traced run. One SpanLog per thread; spans nest by the order
// they open and close. Every helper takes a nullable log so the untraced run
// executes the same calls with recording switched off.
// ---------------------------------------------------------------------------

struct Span {
  const char* name = "";     ///< static string
  std::int32_t parent = -1;  ///< index into the same log, -1 = top level
  std::uint32_t op = 0;      ///< op ordinal, 0 = outside any op
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

class SpanLog {
 public:
  explicit SpanLog(std::string thread_name) : thread_(std::move(thread_name)) {}

  /// Spans opened from now on belong to op `op` (0 = none).
  void set_op(std::uint32_t op) noexcept { op_ = op; }
  std::size_t open(const char* name, std::int64_t start_ns);
  void close(std::size_t id, std::int64_t end_ns);

  const std::vector<Span>& spans() const noexcept { return spans_; }
  const std::string& thread() const noexcept { return thread_; }

  /// Per span: duration minus the time its child spans cover.
  std::vector<std::int64_t> self_ns() const;
  /// Per op: summed self time of the spans called `name` (ops without one
  /// contribute 0).
  std::vector<double> per_op_self_s(const char* name) const;
  /// Durations of every span called `name`, in seconds.
  std::vector<double> durations_s(const char* name) const;
  /// For every span called `root`: the share of its duration its direct
  /// children cover.
  std::vector<double> coverage(const char* root) const;

 private:
  /// Per span: the summed duration of its direct children.
  std::vector<std::int64_t> child_ns() const;

  std::string thread_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
  std::uint32_t op_ = 0;
  std::uint32_t max_op_ = 0;
};

/// RAII span; records nothing when `log` is null.
class Scope {
 public:
  Scope(SpanLog* log, const char* name)
      : log_(log), id_(log != nullptr ? log->open(name, now_ns()) : 0) {}
  ~Scope() {
    if (log_ != nullptr) log_->close(id_, now_ns());
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog* log_;
  std::size_t id_;
};

/// Op times of one run. An untraced run has only untraced samples. A traced
/// run alternates: every other op records spans, so that both kinds sample
/// the same stretch of time (a shared machine's speed can drift by tens of
/// percent over seconds) and bench.trace_overhead compares like with like.
struct Samples {
  std::vector<double> untraced;
  std::vector<double> traced;
};

/// Run `op` back to back until `seconds` have passed (at least once). `op`
/// takes the log to record into (null for an untraced op) and returns its
/// own timed duration in seconds, so checking and tearing down a result stay
/// outside the sample. Spans a traced op opens carry its ordinal.
template <class Op>
Samples run_ops(double seconds, SpanLog* log, Op&& op) {
  Samples out;
  std::uint32_t ordinal = 0;
  const std::int64_t deadline = now_ns() + static_cast<std::int64_t>(seconds * 1e9);
  for (std::uint64_t i = 0;; ++i) {
    SpanLog* traced = log != nullptr && i % 2 == 1 ? log : nullptr;
    if (traced != nullptr) traced->set_op(++ordinal);
    (traced != nullptr ? out.traced : out.untraced).push_back(op(traced));
    if (traced != nullptr) traced->set_op(0);
    if (now_ns() >= deadline) break;
  }
  return out;
}

/// CPU time of `make()`; its result is destroyed after the clock stops.
template <class Make>
double time_construction(Make&& make) {
  const std::int64_t start = thread_cpu_ns();
  const auto result = make();
  return seconds_between(start, thread_cpu_ns());
}

/// Set-up repeats run after every op of an untraced run, so that setup_s is
/// a median over the same stretch of time as op_s.
constexpr int kSetupsPerOp = 4;

/// Per-layer summary of one op timing: bench.op_tail_* and bench.op_samples
/// from the untraced samples, bench.trace_overhead against the traced ones.
void report_op_timing(Report& report, const Samples& samples);

/// Write every log's spans as Chrome trace_event JSON ("X" events with the
/// op ordinal and parent index in args). Returns false if the file could not
/// be written.
bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs);

// ---------------------------------------------------------------------------
// Inputs, generated from the seed by the benchmark itself.
// ---------------------------------------------------------------------------

/// The paper's path-vector program (§2.2, rules r1–r4), embedded so that the
/// workload does not change when the protocol library does.
extern const char* const kPathVectorSource;

struct Link {
  std::size_t a = 0;
  std::size_t b = 0;
  std::int64_t cost = 1;
};

/// A bidirectional weighted graph over nodes named by `names`.
struct Graph {
  std::vector<std::string> names;
  std::vector<Link> links;  ///< one entry per undirected edge

  /// `link(@a,b,c)` facts, both directions of every edge.
  std::vector<fvn::ndlog::Tuple> link_facts() const;
  /// All-pairs shortest-path costs (Dijkstra from every node), keyed by
  /// (source name, destination name); unreachable pairs are absent.
  std::map<std::pair<std::string, std::string>, std::int64_t> shortest_costs() const;
};

/// The converge/serve graph: a fixed 16-node shape (random spanning tree plus
/// 4 extra edges) with fixed link costs in 1..10, both drawn once from
/// constants, so every seed does nearly the same amount of work. The seed
/// permutes the node names. `small` gives an 8-node tree plus 2 extra edges.
Graph mesh_graph(std::uint64_t seed, bool small);

/// The verify graph: a line of 4 nodes (3 when `small`) with the same fixed
/// costs; the seed permutes the names along the line. names[0] and
/// names.back() are the line's ends.
Graph line_graph(std::uint64_t seed, bool small);

/// splitmix64, seeded from the run's seed: every random choice in the inputs
/// comes from it.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() noexcept;
  /// Uniform in [0, bound) (bound > 0).
  std::uint64_t below(std::uint64_t bound) noexcept { return next() % bound; }

 private:
  std::uint64_t state_;
};

}  // namespace perfbench
