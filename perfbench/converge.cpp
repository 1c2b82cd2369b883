// converge: the paper's path-vector program run to quiescence in the
// discrete-event simulator on the 16-node graph, with two LTL runtime
// monitors on the tuple-event stream. One op = construct the Simulator,
// inject the link facts, run() to quiescence, read the monitor verdicts.
// Successive ops cycle through kNamings node namings drawn from the seed.
#include <optional>

#include "bench.hpp"
#include "ltl/formula.hpp"
#include "ltl/monitor.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"

namespace perfbench {

using namespace fvn;

namespace {

/// The node names alone moved the op time by about 5 % from one seed to
/// another, so a run spreads its ops over several namings instead of resting
/// its median on one.
constexpr std::size_t kNamings = 8;

struct Inputs {
  ndlog::Program program;
  ltl::Spec spec;
  std::vector<Graph> graphs;  ///< the one graph under kNamings namings
  std::vector<std::vector<ndlog::Tuple>> facts;
};

/// n0 and the highest-numbered name exist under every seed's relabelling.
std::string monitor_spec(bool small) {
  const std::string far = small ? "n7" : "n15";
  return "delivers: F bestPath(@n0, " + far + ", _, _).\n"
         "converges: F G stable(bestPath).\n";
}

/// Set-up: parse the program and the spec, generate the graphs and their
/// facts.
Inputs make_inputs(const Args& args, SpanLog* log) {
  Inputs in;
  {
    Scope s(log, "ndlog.parse");
    in.program = ndlog::parse_program(kPathVectorSource, "path_vector");
  }
  {
    Scope s(log, "ltl.parse");
    in.spec = ltl::parse_spec(monitor_spec(args.small), "converge.ltl");
  }
  Scope s(log, "bench.inputs");
  Rng namings(args.seed);
  for (std::size_t i = 0; i < kNamings; ++i) {
    in.graphs.push_back(mesh_graph(namings.next(), args.small));
    in.facts.push_back(in.graphs.back().link_facts());
  }
  return in;
}

ltl::TupleEvent to_event(std::string_view kind, const std::string& node,
                         const ndlog::Tuple& tuple, double now) {
  ltl::TupleEvent e;
  e.kind = kind == "install"   ? ltl::TupleEvent::Kind::Install
           : kind == "retract" ? ltl::TupleEvent::Kind::Retract
                               : ltl::TupleEvent::Kind::Expire;
  e.node = node;
  e.tuple = tuple;
  e.ts_us = static_cast<std::uint64_t>(now * 1e6);
  return e;
}

using Oracle = std::map<std::pair<std::string, std::string>, std::int64_t>;

class Converge {
 public:
  Converge(const Inputs& in, Report& report) : in_(in), report_(report) {
    for (const Graph& graph : in.graphs) oracles_.push_back(graph.shortest_costs());
  }

  /// One op on naming `naming`; checks its result (outside the timing) and
  /// returns its time. A traced op on naming 0 reports the runtime counts.
  double op(SpanLog* log, std::size_t naming) {
    RuntimeCounts counts;
    std::optional<ltl::MonitorSet> monitors;
    std::optional<runtime::Simulator> sim;
    runtime::SimStats stats;
    std::vector<ltl::MonitorVerdict> verdicts;

    const std::int64_t start = thread_cpu_ns();
    {
      Scope op(log, "bench.op");
      {
        Scope s(log, "ltl.monitor_build");
        monitors.emplace(in_.spec);
      }
      runtime::SimOptions options;
      options.tuple_events = [&monitors, &counts, log](std::string_view kind,
                                                       const std::string& node,
                                                       const ndlog::Tuple& tuple, double now) {
        if (log != nullptr) counts.on_event(kind, now);
        Scope s(log, "ltl.monitor");
        monitors->on_event(to_event(kind, node, tuple, now));
      };
      {
        Scope s(log, "runtime.construct");
        sim.emplace(in_.program, std::move(options));
      }
      {
        Scope s(log, "runtime.inject");
        sim->inject_all(in_.facts[naming]);
      }
      {
        Scope s(log, "runtime.run");
        stats = sim->run();
      }
      Scope s(log, "ltl.monitor_finish");
      verdicts = monitors->finish();
    }
    const double elapsed = seconds_between(start, thread_cpu_ns());

    check(*sim, stats, verdicts, oracles_[naming]);
    if (log != nullptr && naming == 0) {
      counts.at_fixpoint(*sim, stats);
      counts.report(report_);
    }
    return elapsed;
  }

 private:
  void check(const runtime::Simulator& sim, const runtime::SimStats& stats,
             const std::vector<ltl::MonitorVerdict>& verdicts, const Oracle& oracle) {
    bool ok = stats.quiesced;
    for (const auto& v : verdicts) ok = ok && v.satisfied;
    std::size_t matched = 0;
    for (const std::string& node : sim.nodes()) {
      for (const ndlog::Tuple& t : sim.database(node).relation("bestPathCost")) {
        const auto it = oracle.find({t.at(0).as_addr(), t.at(1).as_addr()});
        if (it != oracle.end() && it->second == t.at(2).as_int()) ++matched;
        else ok = false;
      }
    }
    report_.check(ok && matched == oracle.size(),
                  "converge: quiesced=" + std::to_string(stats.quiesced) +
                      " monitors satisfied, bestPathCost matched " + std::to_string(matched) +
                      "/" + std::to_string(oracle.size()) + " oracle pairs");
  }

  const Inputs& in_;
  Report& report_;
  std::vector<Oracle> oracles_;  ///< one per naming
};

}  // namespace

void RuntimeCounts::at_fixpoint(const runtime::Simulator& sim, const runtime::SimStats& stats) {
  messages = stats.messages_sent;
  for (const std::string& node : sim.nodes()) {
    best_rows += sim.database(node).size("bestPath");
    path_rows += sim.database(node).size("path");
  }
}

void RuntimeCounts::report(Report& report) const {
  report.set("runtime.installs", static_cast<double>(installs), "count");
  report.set("runtime.retracts", static_cast<double>(retracts), "count");
  report.set("runtime.rounds", static_cast<double>(rounds), "count");
  report.set("runtime.messages", static_cast<double>(messages), "count");
  report.set("runtime.best_share",
             path_rows == 0 ? 0.0 : static_cast<double>(best_rows) / static_cast<double>(path_rows),
             "ratio");
}

void run_converge(const Args& args, Report& report) {
  SpanLog trace_log("main");
  SpanLog* log = args.trace ? &trace_log : nullptr;

  // Set-up once for the inputs the ops use; a traced run repeats it for
  // ndlog.parse_s.
  Inputs in = make_inputs(args, log);
  for (int i = 0; log != nullptr && i < 50; ++i) {
    Scope s(log, "bench.setup");
    make_inputs(args, log);
  }
  std::vector<double> setup_samples;
  std::vector<double> calibrations;

  Converge converge(in, report);
  const double cold = converge.op(nullptr, 0);  // kept out of op_s: it fills process-wide caches
  std::size_t ops = 0;
  const Samples samples = run_ops(args.seconds, log, [&](SpanLog* l) {
    // Ops go in pairs per naming, so that a traced run, which traces every
    // other op, traces every naming too.
    const double elapsed = converge.op(l, ops++ / 2 % kNamings);
    const double calibration = calibrations.emplace_back(calibration_s());
    for (int i = 0; !args.trace && i < kSetupsPerOp; ++i) {
      const double setup = time_construction([&] { return make_inputs(args, nullptr); });
      setup_samples.push_back(at_reference_speed(setup, calibration));
    }
    return at_reference_speed(elapsed, calibration);
  });
  if (!args.trace) {
    report.set("op_s", median(samples.untraced), "s");
    report.set("setup_s", median(setup_samples), "s");
    report.set("peak_rss_mb", peak_rss_mb(), "MiB");
    return;
  }

  // Layer probe: the centralized evaluator on the same program and facts.
  std::vector<double> eval_samples;
  for (int i = 0; i < 5; ++i) {
    const std::int64_t start = now_ns();
    Scope s(log, "ndlog.eval");
    [[maybe_unused]] const auto result = ndlog::Evaluator().run(in.program, in.facts[0]);
    eval_samples.push_back(seconds_between(start, now_ns()));
  }

  report_op_timing(report, samples);
  report.set("bench.calibration_s", median(calibrations), "s");
  report.set("runtime.cold_op_s", cold, "s");
  report.set("runtime.run_self_s", median(log->per_op_self_s("runtime.run")), "s");
  report.set("runtime.construct_s", median(log->per_op_self_s("runtime.construct")), "s");
  report.set("ltl.monitor_s", median(log->per_op_self_s("ltl.monitor")), "s");
  report.set("ndlog.parse_s", median(log->durations_s("ndlog.parse")), "s");
  report.set("ndlog.eval_s", median(eval_samples), "s");
  report.set("bench.span_coverage", median(log->coverage("bench.op")), "ratio");
  if (!args.trace_out.empty() && !write_spans(args.trace_out, {log}))
    report.check(false, "cannot write " + args.trace_out);
}

}  // namespace perfbench
