// fvn::obs metrics — zero-dependency counters, histograms, timers and the
// Registry that names them. This is the measurement substrate the evaluator,
// the distributed simulator, the prover and the model checker report into
// (DESIGN.md §9): every hot layer takes an optional `Registry*` and records
// nothing when it is null, so disabled instrumentation stays off the profile.
//
// Naming convention: slash-separated hierarchical series names, e.g.
//   eval/rule/r2/firings      sim/node/n3/sent      prover/tactic/assert
// The JSON exporter emits one deterministic document per registry
// (std::map ordering), which is what `fvn_cli --metrics`, the BENCH_*.json
// trajectories, and the golden tests all consume.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>

namespace fvn::obs {

/// Monotonically increasing event count.
class Counter {
 public:
  void add(std::uint64_t n = 1) noexcept { value_ += n; }
  std::uint64_t value() const noexcept { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Power-of-two-bucketed distribution of non-negative integer samples
/// (delta sizes, queue depths, message counts). Bucket b counts samples whose
/// bit width is b: bucket 0 holds sample 0, bucket 1 holds 1, bucket 2 holds
/// 2-3, bucket 3 holds 4-7, ... — fixed memory, no configuration.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 65;  // bit widths 0..64

  void observe(std::uint64_t sample) noexcept {
    ++count_;
    sum_ += sample;
    if (count_ == 1 || sample < min_) min_ = sample;
    if (sample > max_) max_ = sample;
    ++buckets_[bucket_of(sample)];
  }

  /// Add every sample `other` observed, as if observed here.
  void merge(const Histogram& other) noexcept {
    if (other.count_ == 0) return;
    if (count_ == 0 || other.min_ < min_) min_ = other.min_;
    if (other.max_ > max_) max_ = other.max_;
    count_ += other.count_;
    sum_ += other.sum_;
    for (std::size_t b = 0; b < kBuckets; ++b) buckets_[b] += other.buckets_[b];
  }

  std::uint64_t count() const noexcept { return count_; }
  std::uint64_t sum() const noexcept { return sum_; }
  std::uint64_t min() const noexcept { return count_ == 0 ? 0 : min_; }
  std::uint64_t max() const noexcept { return max_; }
  double mean() const noexcept {
    return count_ == 0 ? 0.0 : static_cast<double>(sum_) / static_cast<double>(count_);
  }
  const std::array<std::uint64_t, kBuckets>& buckets() const noexcept { return buckets_; }

  static std::size_t bucket_of(std::uint64_t sample) noexcept {
    std::size_t bits = 0;
    while (sample != 0) {
      ++bits;
      sample >>= 1;
    }
    return bits;
  }

 private:
  std::uint64_t count_ = 0;
  std::uint64_t sum_ = 0;
  std::uint64_t min_ = 0;
  std::uint64_t max_ = 0;
  std::array<std::uint64_t, kBuckets> buckets_{};
};

/// Accumulated wall time. Use `Timer::Scope` to time a block, or record_ns()
/// directly (which is also what deterministic tests do).
class Timer {
 public:
  void record_ns(std::uint64_t ns) noexcept {
    total_ns_ += ns;
    ++count_;
  }
  /// Add every measurement `other` recorded, as if recorded here.
  void merge(const Timer& other) noexcept {
    total_ns_ += other.total_ns_;
    count_ += other.count_;
  }
  std::uint64_t total_ns() const noexcept { return total_ns_; }
  std::uint64_t count() const noexcept { return count_; }
  double total_ms() const noexcept { return static_cast<double>(total_ns_) / 1e6; }

  /// RAII measurement; tolerates a null timer (disabled instrumentation).
  class Scope {
   public:
    explicit Scope(Timer* timer) noexcept
        : timer_(timer),
          start_(timer ? std::chrono::steady_clock::now()
                       : std::chrono::steady_clock::time_point{}) {}
    ~Scope() {
      if (timer_ == nullptr) return;
      const auto elapsed = std::chrono::steady_clock::now() - start_;
      timer_->record_ns(static_cast<std::uint64_t>(
          std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Timer* timer_;
    std::chrono::steady_clock::time_point start_;
  };

 private:
  std::uint64_t total_ns_ = 0;
  std::uint64_t count_ = 0;
};

/// Named metric store. Lookup creates on first use; references remain valid
/// for the registry's lifetime (node-based map storage).
class Registry {
 public:
  Counter& counter(const std::string& name) { return counters_[name]; }
  Histogram& histogram(const std::string& name) { return histograms_[name]; }
  Timer& timer(const std::string& name) { return timers_[name]; }

  /// Read-only lookups (nullptr when the series was never recorded).
  const Counter* find_counter(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;
  const Timer* find_timer(const std::string& name) const;

  const std::map<std::string, Counter>& counters() const noexcept { return counters_; }
  const std::map<std::string, Histogram>& histograms() const noexcept {
    return histograms_;
  }
  const std::map<std::string, Timer>& timers() const noexcept { return timers_; }

  bool empty() const noexcept {
    return counters_.empty() && histograms_.empty() && timers_.empty();
  }
  std::size_t series_count() const noexcept {
    return counters_.size() + histograms_.size() + timers_.size();
  }

  /// Sum of every counter whose name starts with `prefix` — the consistency
  /// checks use this to pin per-rule series against the EvalStats aggregate.
  std::uint64_t sum_counters_with_prefix(std::string_view prefix) const;

  /// Deterministic JSON document:
  ///   {"counters":{...},"histograms":{name:{count,sum,min,max,mean}},
  ///    "timers":{name:{count,total_ns}}}
  /// Histogram buckets are elided from JSON (summary stats carry the
  /// trajectory signal); render_summary() shows them as a sparkline instead.
  std::string to_json() const;

  /// Human-readable aligned dump (what `fvn_cli --metrics` prints).
  std::string render_summary() const;

 private:
  std::map<std::string, Counter> counters_;
  std::map<std::string, Histogram> histograms_;
  std::map<std::string, Timer> timers_;
};

/// Write `content` to `path`, throwing std::runtime_error on I/O failure.
void write_file(const std::string& path, const std::string& content);

}  // namespace fvn::obs
