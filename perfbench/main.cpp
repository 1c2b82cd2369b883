// fvn_perfbench: one workload, one process.
//
//   fvn_perfbench --workload <converge|serve-lookup|serve-update|verify>
//                 --seed N --seconds S --trace <0|1>
//                 [--small] [--expect-wrong-holds] [--trace-out FILE]
//
// Prints diagnostics on stderr and, as the last line of stdout, one JSON
// object {"correct", "attempted", "failed", "metrics"}: the end-to-end
// metrics when untraced, the per-layer metrics when traced. Exit code 0 iff
// every op passed its check; 2 on bad usage.
#include <cmath>
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "bench.hpp"

namespace {

using perfbench::Args;
using perfbench::Report;

struct MetricName {
  const char* name;
  const char* unit;
};

// Must match BENCHMARK.json.
const std::vector<MetricName> kEndToEnd = {
    {"op_s", "s"},
    {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},
};

// Layers a workload does not exercise read 0.
const std::vector<MetricName> kPerLayer = {
    {"runtime.run_self_s", "s"},     {"runtime.construct_s", "s"},
    {"runtime.cold_op_s", "s"},      {"runtime.installs", "count"},
    {"runtime.retracts", "count"},   {"runtime.messages", "count"},
    {"runtime.rounds", "count"},     {"runtime.best_share", "ratio"},
    {"ndlog.parse_s", "s"},          {"ndlog.eval_s", "s"},
    {"ltl.monitor_s", "s"},          {"ltl.buchi_s", "s"},
    {"ltl.check_hold_s", "s"},       {"ltl.check_violated_s", "s"},
    {"ltl.render_s", "s"},           {"ltl.product_states", "count"},
    {"ltl.transitions", "count"},    {"ltl.lasso_steps", "count"},
    {"mc.construct_s", "s"},         {"mc.initial_s", "s"},
    {"mc.explore_s", "s"},           {"mc.states", "count"},
    {"mc.cold_op_s", "s"},           {"serve.feed_s", "s"},
    {"serve.apply_s", "s"},          {"serve.publish_s", "s"},
    {"serve.publish_p99_s", "s"},    {"serve.writer_lag_s", "s"},
    {"serve.epochs", "count"},       {"serve.reclaimed", "count"},
    {"serve.batch_p99_s", "s"},      {"serve.lookups_per_s", "1/s"},
    {"bench.trace_overhead", "ratio"}, {"bench.span_coverage", "ratio"},
    {"bench.op_tail_s", "s"},        {"bench.op_tail_pct", "%"},
    {"bench.op_samples", "count"},    {"bench.calibration_s", "s"},
};

int usage(const std::string& why) {
  std::cerr << "fvn_perfbench: " << why
            << "\nusage: fvn_perfbench --workload <converge|serve-lookup|serve-update|verify>"
               " --seed N --seconds S --trace <0|1> [--small] [--expect-wrong-holds]"
               " [--trace-out FILE]\n";
  return 2;
}

bool parse_args(int argc, char** argv, Args& args, std::string& error) {
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--small") {
      args.small = true;
      continue;
    }
    if (flag == "--expect-wrong-holds") {
      args.expect_wrong_holds = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "missing value for " + flag;
      return false;
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value) != 0;
      } else if (flag == "--trace-out") {
        args.trace_out = value;
      } else {
        error = "unknown flag " + flag;
        return false;
      }
    } catch (const std::exception&) {
      error = "bad value for " + flag + ": " + value;
      return false;
    }
  }
  if (!have_workload) error = "--workload is required";
  else if (!(args.seconds > 0) || args.seconds > 120) error = "--seconds must be in (0, 120]";
  return error.empty();
}

std::string json_number(double value) {
  if (!std::isfinite(value)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", value);
  return buf;
}

/// The last stdout line. Every listed metric is printed; a listed metric the
/// workload did not set reads 0, and a metric it set that is not listed is a
/// bug in this program.
bool print_result(const Report& report, const std::vector<MetricName>& names) {
  bool ok = true;
  for (const auto& [name, metric] : report.metrics) {
    bool listed = false;
    for (const MetricName& m : names) listed = listed || (name == m.name && metric.unit == m.unit);
    if (!listed) {
      std::cerr << "fvn_perfbench: unlisted metric " << name << " [" << metric.unit << "]\n";
      ok = false;
    }
  }
  const bool correct = report.failed == 0 && report.attempted > 0;
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << report.attempted << ", \"failed\": " << report.failed
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < names.size(); ++i) {
    const auto it = report.metrics.find(names[i].name);
    const double value = it == report.metrics.end() ? 0.0 : it->second.value;
    std::cout << (i == 0 ? "" : ", ") << "\"" << names[i].name
              << "\": {\"value\": " << json_number(value) << ", \"unit\": \"" << names[i].unit
              << "\"}";
  }
  std::cout << "}}" << std::endl;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!parse_args(argc, argv, args, error)) return usage(error);

  Report report;
  try {
    if (args.workload == "converge") {
      perfbench::run_converge(args, report);
    } else if (args.workload == "serve-lookup" || args.workload == "serve-update") {
      perfbench::run_serve(args, report, args.workload == "serve-update");
    } else if (args.workload == "verify") {
      perfbench::run_verify(args, report);
    } else {
      return usage("unknown workload " + args.workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "fvn_perfbench: " << args.workload << ": " << e.what() << "\n";
    return 1;
  }
  if (!print_result(report, args.trace ? kPerLayer : kEndToEnd)) return 3;
  return report.failed == 0 && report.attempted > 0 ? 0 : 1;
}
