// verify: LTL model checking of path-vector over a 4-node line. One op =
// build the mc::NdlogTransitionSystem, compute the initial state, check
// `reach` (holds: the nested DFS explores the whole product) and `wrong`
// (violated: the search stops at the first lasso). check_ltl is a loop of
// check_property over the spec; the op makes those calls itself so that the
// traced run can time each property.
#include <optional>

#include "bench.hpp"
#include "ltl/buchi.hpp"
#include "ltl/checker.hpp"
#include "ltl/formula.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/parser.hpp"

namespace perfbench {

using namespace fvn;

namespace {

struct Inputs {
  ndlog::Program program;
  ltl::Spec spec;
  Graph graph;
  std::vector<ndlog::Tuple> facts;
};

/// Both properties name the two ends of the line, wherever the seed put them.
std::string verify_spec(const Graph& line) {
  const std::string pattern =
      "bestPath(@" + line.names.front() + ", " + line.names.back() + ", _, _)";
  return "reach: F " + pattern + ".\nwrong: G !" + pattern + ".\n";
}

Inputs make_inputs(const Args& args, SpanLog* log) {
  Inputs in;
  {
    Scope s(log, "ndlog.parse");
    in.program = ndlog::parse_program(kPathVectorSource, "path_vector");
  }
  {
    Scope s(log, "bench.inputs");
    in.graph = line_graph(args.seed, args.small);
    in.facts = in.graph.link_facts();
  }
  Scope s(log, "ltl.parse");
  in.spec = ltl::parse_spec(verify_spec(in.graph), "verify.ltl");
  return in;
}

struct Verdicts {
  ltl::PropertyResult reach;
  ltl::PropertyResult wrong;
};

class Verify {
 public:
  Verify(const Inputs& in, const Args& args, Report& report)
      : in_(in), args_(args), report_(report) {}

  double op(SpanLog* log) {
    std::optional<mc::NdlogTransitionSystem> ts;
    mc::NetState initial;
    Verdicts v;
    const std::int64_t start = thread_cpu_ns();
    {
      Scope op(log, "bench.op");
      {
        Scope s(log, "mc.construct");
        ts.emplace(in_.program);
      }
      {
        Scope s(log, "mc.initial");
        initial = ts->initial(in_.facts);
      }
      {
        Scope s(log, "ltl.check_hold");
        v.reach = ltl::check_property(*ts, initial, in_.spec.properties[0]);
      }
      Scope s(log, "ltl.check_violated");
      v.wrong = ltl::check_property(*ts, initial, in_.spec.properties[1]);
    }
    const double elapsed = seconds_between(start, thread_cpu_ns());
    check(v);
    last_ = std::move(v);
    return elapsed;
  }

  const Verdicts& last() const noexcept { return last_; }

 private:
  void check(const Verdicts& v) {
    const bool reach_ok = v.reach.holds && v.reach.exhausted;
    const std::size_t lasso = v.wrong.stem.size() + v.wrong.cycle.size();
    const bool wrong_ok = args_.expect_wrong_holds ? v.wrong.holds : !v.wrong.holds && lasso > 0;
    report_.check(reach_ok && wrong_ok,
                  "verify: reach holds=" + std::to_string(v.reach.holds) +
                      " exhausted=" + std::to_string(v.reach.exhausted) +
                      ", wrong holds=" + std::to_string(v.wrong.holds) +
                      " lasso=" + std::to_string(lasso) +
                      (args_.expect_wrong_holds ? " (expected to hold)" : ""));
  }

  const Inputs& in_;
  const Args& args_;
  Report& report_;
  Verdicts last_;
};

}  // namespace

void run_verify(const Args& args, Report& report) {
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

  Verify verify(in, args, report);
  const double cold = verify.op(nullptr);
  const Samples samples = run_ops(args.seconds, log, [&](SpanLog* l) {
    const double elapsed = verify.op(l);
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

  // Layer probes, outside any op.
  std::vector<double> buchi_samples;
  for (int i = 0; i < 200; ++i) {
    const std::int64_t start = now_ns();
    Scope s(log, "ltl.buchi");
    for (const ltl::Property& property : in.spec.properties) {
      ltl::ApSet aps;
      const ltl::NnfPtr negated = ltl::to_nnf(property.formula, aps, /*negated=*/true);
      [[maybe_unused]] const ltl::Buchi buchi = ltl::build_buchi(negated, aps.aps.size());
    }
    buchi_samples.push_back(seconds_between(start, now_ns()));
  }
  std::vector<double> render_samples;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t start = now_ns();
    Scope s(log, "ltl.render");
    [[maybe_unused]] const std::string text = ltl::render_counterexample(verify.last().wrong);
    render_samples.push_back(seconds_between(start, now_ns()));
  }
  mc::NdlogTransitionSystem ts(in.program);
  const mc::NetState initial = ts.initial(in.facts);
  std::vector<double> explore_samples;
  std::size_t states = 0;
  for (int i = 0; i < 2; ++i) {
    const std::int64_t start = now_ns();
    Scope s(log, "mc.explore");
    const auto quiescence =
        ts.check_quiescent_states(initial, [](const mc::NetState&) { return true; });
    explore_samples.push_back(seconds_between(start, now_ns()));
    report.check(quiescence.exhausted && quiescence.confluent,
                 "verify: exploration not exhausted or not confluent");
    states = quiescence.states_explored;
  }
  std::vector<double> eval_samples;
  for (int i = 0; i < 20; ++i) {
    const std::int64_t start = now_ns();
    Scope s(log, "ndlog.eval");
    [[maybe_unused]] const auto result = ndlog::Evaluator().run(in.program, in.facts);
    eval_samples.push_back(seconds_between(start, now_ns()));
  }

  const Verdicts& v = verify.last();
  report_op_timing(report, samples);
  report.set("bench.calibration_s", median(calibrations), "s");
  report.set("mc.cold_op_s", cold, "s");
  report.set("mc.construct_s", median(log->per_op_self_s("mc.construct")), "s");
  report.set("mc.initial_s", median(log->per_op_self_s("mc.initial")), "s");
  report.set("mc.explore_s", median(explore_samples), "s");
  report.set("mc.states", static_cast<double>(states), "count");
  report.set("ltl.check_hold_s", median(log->per_op_self_s("ltl.check_hold")), "s");
  report.set("ltl.check_violated_s", median(log->per_op_self_s("ltl.check_violated")), "s");
  report.set("ltl.buchi_s", median(buchi_samples), "s");
  report.set("ltl.render_s", median(render_samples), "s");
  report.set("ltl.product_states",
             static_cast<double>(v.reach.product_states + v.wrong.product_states), "count");
  report.set("ltl.transitions", static_cast<double>(v.reach.transitions + v.wrong.transitions),
             "count");
  report.set("ltl.lasso_steps", static_cast<double>(v.wrong.stem.size() + v.wrong.cycle.size()),
             "count");
  report.set("ndlog.parse_s", median(log->durations_s("ndlog.parse")), "s");
  report.set("ndlog.eval_s", median(eval_samples), "s");
  report.set("bench.span_coverage", median(log->coverage("bench.op")), "ratio");
  if (!args.trace_out.empty() && !write_spans(args.trace_out, {log}))
    report.check(false, "cannot write " + args.trace_out);
}

}  // namespace perfbench
