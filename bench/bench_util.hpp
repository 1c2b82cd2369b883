// Shared harness for FVN benchmark binaries: strips the fvn-specific flags
// before Google Benchmark parses argv, owns the obs::Registry each binary
// fills with a small instrumented workload after RunSpecifiedBenchmarks, and
// writes + re-validates the BENCH_<name>.json metrics document. This is what
// makes BENCH_*.json trajectories comparable across runs, and what the
// `bench_smoke` CTest label asserts on.
//
// Flags (consumed here, invisible to benchmark::Initialize):
//   --fvn-smoke                 skip the heavy post-run report sections
//   --fvn-metrics-out=<path>    where to write the metrics JSON
//                               (default: BENCH_<name>.json in the CWD)
#pragma once

#include <algorithm>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fvn::bench {

/// The median of a non-empty sample: what the gated smokes report over
/// their alternating pairs of runs.
inline double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid] : (values[mid - 1] + values[mid]) / 2;
}

class Harness {
 public:
  Harness(int& argc, char** argv, std::string name)
      : name_(std::move(name)), metrics_path_("BENCH_" + name_ + ".json") {
    int kept = 1;
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      constexpr std::string_view kOut = "--fvn-metrics-out=";
      if (arg == "--fvn-smoke") {
        smoke_ = true;
      } else if (arg.starts_with(kOut)) {
        metrics_path_ = std::string(arg.substr(kOut.size()));
      } else {
        argv[kept++] = argv[i];
      }
    }
    argc = kept;
    argv[argc] = nullptr;
  }

  /// Smoke mode (the bench_smoke CTest runs every binary with
  /// `--benchmark_filter=^$ --fvn-smoke`): no benchmark iterations, no heavy
  /// post-run report — only the instrumented workload and the metrics JSON.
  bool smoke() const noexcept { return smoke_; }
  obs::Registry& metrics() noexcept { return registry_; }
  const std::string& metrics_path() const noexcept { return metrics_path_; }

  /// Write {"bench":<name>,"metrics":<registry JSON>} to metrics_path, then
  /// re-read and re-parse the file, printing `FVN_METRICS_OK <path>` only if
  /// the round trip yields valid JSON. Returns main's exit code.
  int finish() {
    const std::string doc = "{\"bench\":\"" + obs::json_escape(name_) +
                            "\",\"metrics\":" + registry_.to_json() + "}";
    try {
      obs::write_file(metrics_path_, doc);
    } catch (const std::exception& e) {
      std::cerr << "FVN_METRICS_WRITE_FAILED: " << e.what() << "\n";
      return 1;
    }
    std::ifstream in(metrics_path_);
    std::ostringstream read_back;
    read_back << in.rdbuf();
    if (!in || !obs::json_valid(read_back.str())) {
      std::cerr << "FVN_METRICS_INVALID: " << metrics_path_ << "\n";
      return 1;
    }
    std::cout << "FVN_METRICS_OK " << metrics_path_ << "\n";
    return 0;
  }

 private:
  std::string name_;
  std::string metrics_path_;
  bool smoke_ = false;
  obs::Registry registry_;
};

}  // namespace fvn::bench
