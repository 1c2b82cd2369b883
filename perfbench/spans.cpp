// Sample statistics, the calibration kernel, the span recorder and its
// analyses.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <unordered_map>

#include "bench.hpp"

namespace perfbench {

void Report::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failed <= 10) std::cerr << "perfbench: check failed: " << what << "\n";
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0;
  const std::size_t mid = samples.size() / 2;
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid),
                   samples.end());
  const double upper = samples[mid];
  if (samples.size() % 2 == 1) return upper;
  const double lower =
      *std::max_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(mid));
  return (lower + upper) / 2;
}

double percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const auto rank =
      static_cast<std::size_t>(p / 100 * static_cast<double>(samples.size() - 1));
  std::nth_element(samples.begin(), samples.begin() + static_cast<std::ptrdiff_t>(rank),
                   samples.end());
  return samples[rank];
}

Tail tail(std::vector<double> samples) {
  Tail out;
  const double n = static_cast<double>(samples.size());
  for (const double p : {50.0, 75.0, 90.0, 95.0, 99.0, 99.9}) {
    if (n * (1 - p / 100) < 10) break;
    out.percentile = p;
  }
  out.value = percentile(std::move(samples), out.percentile);
  return out;
}

void report_op_timing(Report& report, const Samples& samples) {
  const Tail t = tail(samples.untraced);
  report.set("bench.op_tail_s", t.value, "s");
  report.set("bench.op_tail_pct", t.percentile, "%");
  report.set("bench.op_samples", static_cast<double>(samples.untraced.size()), "count");
  const double base = median(samples.untraced);
  if (base > 0 && !samples.traced.empty())
    report.set("bench.trace_overhead", median(samples.traced) / base - 1, "ratio");
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across exec,
  // so a binary started from run.py read the Python parent's 14 MiB.
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // in kB
  }
  return 0;
}

double calibration_s() {
  // Small key spaces keep the kernel's heap under 0.5 MiB, below the ops'
  // own: a kernel with 20 000 map entries set peak_rss_mb on converge.
  constexpr std::int64_t kSteps = 20000;
  static volatile std::size_t sink = 0;  // keeps the work observable
  const std::int64_t start = thread_cpu_ns();
  {
    Rng rng(0xca1b);
    std::unordered_map<std::string, std::vector<std::string>> recent;
    std::map<std::string, std::vector<std::int64_t>> ordered;
    std::size_t total = 0;
    for (std::int64_t i = 0; i < kSteps; ++i) {
      const std::string key = "n" + std::to_string(rng.below(400));
      auto& rows = recent[key];
      if (rows.size() > 6) {
        total += rows.front().size();
        rows.erase(rows.begin());
      }
      rows.push_back(key + ":" + std::to_string(i));
      ordered["n" + std::to_string(rng.below(500)) + "/" + std::to_string(i % 5)].push_back(i);
    }
    for (const auto& [key, values] : ordered) total += key.size() + values.size();
    sink = total;
  }
  return seconds_between(start, thread_cpu_ns());
}

// ---------------------------------------------------------------------------
// SpanLog
// ---------------------------------------------------------------------------

std::size_t SpanLog::open(const char* name, std::int64_t start_ns) {
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back(Span{name, parent, op_, start_ns, start_ns});
  max_op_ = std::max(max_op_, op_);
  stack_.push_back(static_cast<std::int32_t>(spans_.size() - 1));
  return spans_.size() - 1;
}

void SpanLog::close(std::size_t id, std::int64_t end_ns) {
  spans_[id].end_ns = end_ns;
  if (!stack_.empty() && stack_.back() == static_cast<std::int32_t>(id)) stack_.pop_back();
}

std::vector<std::int64_t> SpanLog::child_ns() const {
  std::vector<std::int64_t> covered(spans_.size(), 0);
  for (const Span& span : spans_) {
    if (span.parent >= 0)
      covered[static_cast<std::size_t>(span.parent)] += span.end_ns - span.start_ns;
  }
  return covered;
}

std::vector<std::int64_t> SpanLog::self_ns() const {
  std::vector<std::int64_t> self = child_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i)
    self[i] = spans_[i].end_ns - spans_[i].start_ns - self[i];
  return self;
}

std::vector<double> SpanLog::per_op_self_s(const char* name) const {
  std::vector<double> per_op(max_op_ + 1, 0.0);
  const auto self = self_ns();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, name) == 0)
      per_op[spans_[i].op] += static_cast<double>(self[i]) * 1e-9;
  }
  per_op.erase(per_op.begin());  // op 0 is "outside any op"
  return per_op;
}

std::vector<double> SpanLog::durations_s(const char* name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (std::strcmp(span.name, name) == 0)
      out.push_back(seconds_between(span.start_ns, span.end_ns));
  }
  return out;
}

std::vector<double> SpanLog::coverage(const char* root) const {
  const std::vector<std::int64_t> covered = child_ns();
  std::vector<double> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (std::strcmp(spans_[i].name, root) != 0) continue;
    const std::int64_t total = spans_[i].end_ns - spans_[i].start_ns;
    if (total > 0)
      out.push_back(static_cast<double>(covered[i]) / static_cast<double>(total));
  }
  return out;
}

bool write_spans(const std::string& path, const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path);
  if (!out) return false;
  std::int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& span : log->spans()) origin = std::min(origin, span.start_ns);
  }
  out << "{\"traceEvents\":[";
  bool first = true;
  for (std::size_t tid = 0; tid < logs.size(); ++tid) {
    const auto& spans = logs[tid]->spans();
    out << (first ? "" : ",") << "\n{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":"
        << tid << ",\"args\":{\"name\":\"" << logs[tid]->thread() << "\"}}";
    first = false;
    // The first kMaxWritten spans of each thread: whole early ops, enough to
    // read in a trace viewer, without writing hundreds of MB per run.
    constexpr std::size_t kMaxWritten = 50000;
    for (std::size_t i = 0; i < std::min(spans.size(), kMaxWritten); ++i) {
      const Span& s = spans[i];
      out << ",\n{\"ph\":\"X\",\"name\":\"" << s.name << "\",\"pid\":1,\"tid\":" << tid
          << ",\"ts\":" << static_cast<double>(s.start_ns - origin) / 1e3
          << ",\"dur\":" << static_cast<double>(s.end_ns - s.start_ns) / 1e3
          << ",\"args\":{\"id\":" << i << ",\"parent\":" << s.parent << ",\"op\":" << s.op
          << "}}";
    }
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
