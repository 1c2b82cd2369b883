// fvn_cli — the command-line face of FVN: parse, analyze, translate,
// evaluate, query, simulate and trace NDlog programs from files.
//
// Usage:
//   fvn_cli check     <prog.ndlog>                  static analysis report
//   fvn_cli lint      [--json] <prog.ndlog>...      all diagnostics (ND0001..)
//   fvn_cli analyze   [--json|--dot] <prog.ndlog>...  semantic analysis:
//                     divergence prediction + CALM convergence (ND0014..18);
//                     --cost adds the ND0019..ND0021 cost model;
//                     --dot prints the dependency graph with strata/SCCs
//                     (with --cost: the cost-annotated graph)
//   fvn_cli translate <prog.ndlog>                  PVS-style theory (arc 4)
//   fvn_cli linear    <prog.ndlog>                  linear-logic view (§4.2)
//   fvn_cli run       <prog.ndlog> <facts.txt>      centralized evaluation
//   fvn_cli query     <prog.ndlog> <facts.txt> <goal>
//   fvn_cli simulate  <prog.ndlog> <facts.txt>      distributed execution
//                                                   (discrete-event simulator)
//   fvn_cli dist      <prog.ndlog> <facts.txt>      distributed execution on
//                     real concurrent node threads (fvn::net Cluster):
//                     --nodes=<n>            assert the fact-derived node count
//                     --transport=<inproc|udp>  mailboxes (default) or loopback
//                                            UDP sockets
//                     --loss=<p> --seed=<s>  seeded per-frame drop injection
//                                            (masked by ack+retransmit)
//                     --cost-order, --metrics, --trace
//   fvn_cli plan      <prog.ndlog> [--dot|--json]   compiled dataflow graph
//                     --cost-order  cost-guided join order
//   fvn_cli explain   <prog.ndlog> <facts.txt> <fact>   derivation tree
//   fvn_cli serve     <prog.ndlog> <facts.txt> --serve-pred <pred>
//                     run to fixpoint with the fvn::serve route-serving plane
//                     attached, then answer LPM lookups:
//                     --serve-cols dst,nexthop,cost  column roles for the
//                                            served predicate (dst keys the
//                                            trie; len = prefix length;
//                                            _ skips; others label payload)
//                     --queries <file>       "<node> <dst>" lines (default:
//                                            stdin); one answer per line
//                     --readers <n> --churn  instead of the query loop, run n
//                                            concurrent reader threads doing
//                                            wait-free lookups while the
//                                            writer churns routes and
//                                            publishes epoch snapshots;
//                                            verifies snapshot consistency
//                     --churn-seconds <s>    churn duration (default 1.0)
//                     --metrics/--trace as simulate
//   fvn_cli verify    <prog.ndlog> <facts.txt> --ltl <spec.ltl>
//                     LTL model checking over every message interleaving
//                     (fvn::mc x fvn::ltl product automaton, nested DFS):
//                     --max-states=<n>   product-state budget (default 200000)
//                     --trace <out.json> render the first counterexample lasso
//                                        as a Chrome trace
//                     exit 0 = every property holds (possibly bounded),
//                     1 = a property is violated (counterexample printed),
//                     2 = usage / parse error (LT0001), or a program the
//                     checker refuses: a failed static check, a finite
//                     lifetime or `periodic` (it models hard state only)
//
// simulate/sim and dist additionally accept
//   --monitor <spec.ltl>  compile each property into an online runtime
//                     monitor over the live tuple-event stream
//                     (install/retract/expire); verdicts print after the run
//                     and a violated property makes the exit code 1.
//   --serve <pred[:cols]>  attach the fvn::serve plane to the same stream
//                     (sim publishes at delta-round boundaries, dist on an
//                     apply-count cadence from the concurrent node threads)
//                     and report routes/epochs/publish latency after the run.
//
// Exit codes everywhere: 0 success, 1 runtime failure (divergence, transport
// unavailable, non-quiescence, monitor violation), 2 usage / unreadable
// input / parse error. Output paths (--trace, --metrics-out) are validated
// up front: an unwritable path is a usage error (exit 2), not a silent or
// late failure.
//
// --metrics-out <path> (run/sim/dist/serve) writes the metrics registry as
// JSON to a file (implies collection, independent of the --metrics stderr
// summary).
//
// `eval` is an alias for `run`, `sim` for `simulate`. Both accept the
// observability flags:
//   --metrics            print a metrics summary (fvn::obs Registry) to stderr
//   --trace <out.json>   write a Chrome trace_event file (open in
//                        chrome://tracing or Perfetto); the simulator stamps
//                        events in virtual (protocol) time
// simulate/sim additionally takes
//   --cost-order         compile the rule strands with cost-guided join
//                        order. Every node runs the compiled dataflow strands;
//                        --metrics exposes their per-element counters, and
//                        splits run()'s wall time into exclusive layers
//                        (eval, install, aggregate, change, queue) with the
//                        share of it they attribute.
//
// facts.txt: one ground fact per line, e.g. `link(@n0,n1,1)`; blank lines
// and lines starting with `#` are ignored.
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>

#include "logic/pvs_emit.hpp"
#include "ltl/checker.hpp"
#include "ltl/monitor.hpp"
#include "mc/ndlog_ts.hpp"
#include "ndlog/analysis.hpp"
#include "ndlog/cost.hpp"
#include "ndlog/eval.hpp"
#include "ndlog/lint.hpp"
#include "ndlog/parser.hpp"
#include "ndlog/provenance.hpp"
#include "ndlog/query.hpp"
#include "ndlog/semantic.hpp"
#include "net/cluster.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"
#include "serve/plane.hpp"
#include "translate/linear_view.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace {

/// Bad invocation (unreadable input, malformed flag value): exit 2, like a
/// usage error — distinct from runtime failures (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

/// Validate an output path before doing any work: probe it in append mode so
/// an existing file is not truncated, and treat failure as a usage error
/// (exit 2). Previously an unwritable --trace/--metrics path only surfaced
/// after the whole run (or not at all).
void require_writable(const std::string& path) {
  if (path.empty()) return;
  std::ofstream probe(path, std::ios::app);
  if (!probe) throw UsageError("cannot write " + path);
}

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("cannot read " + path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::vector<fvn::ndlog::Tuple> load_facts(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("cannot read " + path);
  std::vector<fvn::ndlog::Tuple> facts;
  std::string line;
  while (std::getline(in, line)) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    facts.push_back(fvn::ndlog::parse_fact(line));
  }
  return facts;
}

int usage() {
  std::cerr << "usage: fvn_cli <check|lint|analyze|translate|linear|run|query|simulate|dist|plan|explain|verify|serve> "
               "<prog.ndlog> [facts.txt] [goal|fact]\n"
               "       fvn_cli verify <prog.ndlog> <facts.txt> --ltl <spec.ltl> "
               "[--max-states=<n>] [--trace <out.json>]   "
               "(exit 0 holds, 1 violated, 2 parse error or refused program)\n"
               "       sim/dist take --monitor <spec.ltl> to run the same "
               "properties as online monitors (violation => exit 1)\n"
               "       fvn_cli dist <prog.ndlog> <facts.txt> [--nodes=<n>] "
               "[--transport=<inproc|udp>] [--loss=<p>] [--seed=<s>] "
               "[--cost-order] "
               "[--metrics] [--trace <out.json>]\n"
               "       fvn_cli lint [--json] <prog.ndlog>...   "
               "(exit 0 clean, 1 warnings, 2 errors)\n"
               "       fvn_cli analyze [--json|--dot|--metrics|--cost] "
               "<prog.ndlog>...   "
               "(semantic passes ND0014..ND0018; --cost adds the ND0019..ND0021 "
               "cost model; same exit convention)\n"
               "       fvn_cli plan <prog.ndlog> [--dot|--json] [--cost-order]   "
               "(localize + compile to dataflow strands)\n"
               "       eval = run, sim = simulate; both take --metrics and "
               "--trace <out.json>; sim takes --cost-order\n"
               "       fvn_cli serve <prog.ndlog> <facts.txt> --serve-pred <pred> "
               "[--serve-cols dst,nexthop,cost] [--queries <file>] "
               "[--readers <n> --churn] [--churn-seconds <s>]   "
               "(run to fixpoint, then answer '<node> <dst>' LPM lookups; "
               "--churn measures concurrent readers during route churn)\n"
               "       sim/dist take --serve <pred[:cols]> to attach the "
               "serving plane to a normal run\n"
               "       run/sim/dist/serve take --metrics-out <path> to write "
               "the metrics registry as JSON\n";
  return 2;
}

/// `fvn_cli plan <prog.ndlog> [--dot|--json]` — localize the program and
/// compile it to the fvn::dataflow element graph, printing a human summary
/// (default), Graphviz DOT, or JSON.
int cmd_plan(const std::vector<std::string>& args) {
  bool dot = false;
  bool json = false;
  bool cost_order = false;
  std::vector<std::string> files;
  for (const auto& a : args) {
    if (a == "--dot") {
      dot = true;
    } else if (a == "--json") {
      json = true;
    } else if (a == "--cost-order") {
      cost_order = true;
    } else if (a.rfind("--", 0) == 0) {  // a flag, never a file name
      throw UsageError("unknown flag " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.size() != 1 || (dot && json)) return usage();
  auto program = fvn::ndlog::parse_program(slurp(files[0]), files[0]);
  auto localized = fvn::runtime::localize(program);
  fvn::dataflow::PlanOptions plan_options;
  plan_options.cost_order = cost_order;
  auto plan = fvn::dataflow::compile(localized, plan_options);
  if (dot) {
    std::cout << plan.to_dot();
  } else if (json) {
    std::cout << plan.to_json() << "\n";
  } else {
    std::cout << plan.summary();
  }
  return 0;
}

/// `fvn_cli lint [--json] <file>...` — run every diagnostic pass over each
/// file, printing human-readable or JSON output. Parse failures become
/// ND0001 diagnostics instead of aborting the run.
int cmd_lint(const std::vector<std::string>& args) {
  bool json = false;
  std::vector<std::string> files;
  for (const auto& a : args) {
    if (a == "--json") {
      json = true;
    } else if (a.rfind("--", 0) == 0) {  // a flag, never a file name
      throw UsageError("unknown flag " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.empty()) return usage();

  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::ostringstream json_out;
  json_out << "{\"files\":[";
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string& file = files[f];
    fvn::ndlog::DiagnosticSink sink;
    try {
      auto program = fvn::ndlog::parse_program(slurp(file), file);
      fvn::ndlog::lint_program(program, sink);
    } catch (const fvn::ndlog::ParseError& e) {
      sink.error("ND0001", e.what(),
                 fvn::ndlog::SourceSpan::at({e.line(), e.column()}));
    } catch (const std::exception& e) {
      sink.error("ND0001", e.what());
    }
    errors += sink.count(fvn::ndlog::Severity::Error);
    warnings += sink.count(fvn::ndlog::Severity::Warning);
    if (json) {
      json_out << (f != 0 ? "," : "") << "{\"file\":\"" << fvn::ndlog::json_escape(file)
               << "\",\"diagnostics\":" << fvn::ndlog::render_json(sink.diagnostics())
               << "}";
    } else {
      std::cout << fvn::ndlog::render_human(sink.diagnostics(), file);
    }
  }
  if (json) {
    json_out << "],\"errors\":" << errors << ",\"warnings\":" << warnings << "}";
    std::cout << json_out.str() << "\n";
  } else {
    std::cout << "lint: " << errors << " errors, " << warnings << " warnings\n";
  }
  return errors != 0 ? 2 : warnings != 0 ? 1 : 0;
}

/// `fvn_cli analyze [--json|--dot|--metrics|--cost] <file>...` — run the
/// core checks plus the semantic passes (ND0014–ND0018: dead rules,
/// divergence prediction, CALM order-sensitivity). Exit convention matches
/// lint: 0 clean, 1 warnings, 2 errors. `--dot` prints the annotated
/// predicate dependency graph for a single file.
int cmd_analyze(const std::vector<std::string>& args) {
  bool json = false;
  bool dot = false;
  bool want_metrics = false;
  bool want_cost = false;
  std::vector<std::string> files;
  for (const auto& a : args) {
    if (a == "--json") {
      json = true;
    } else if (a == "--dot") {
      dot = true;
    } else if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--cost") {
      want_cost = true;
    } else if (a == "--parallel") {
      throw UsageError("--parallel: the shard-parallel analysis was removed "
                       "(EXPERIMENTS.md E10)");
    } else if (a.rfind("--", 0) == 0) {  // a flag, never a file name
      throw UsageError("unknown flag " + a);
    } else {
      files.push_back(a);
    }
  }
  if (files.empty() || (dot && json) || (dot && files.size() != 1)) return usage();

  fvn::obs::Registry registry;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::ostringstream json_out;
  json_out << "{\"files\":[";
  for (std::size_t f = 0; f < files.size(); ++f) {
    const std::string& file = files[f];
    fvn::ndlog::DiagnosticSink sink;
    std::string summary_json;
    std::string cost_json;
    std::string cost_human;
    try {
      auto program = fvn::ndlog::parse_program(slurp(file), file);
      fvn::ndlog::check_arities(program, sink);
      fvn::ndlog::check_safety(program, fvn::ndlog::BuiltinRegistry::standard(),
                               sink);
      fvn::ndlog::stratify(program, sink);
      if (!sink.has_errors()) {
        fvn::ndlog::SemanticOptions options;
        if (want_metrics) options.metrics = &registry;
        auto report = fvn::ndlog::analyze_semantics(program, sink, options);
        summary_json = fvn::ndlog::semantic_json(report);
        if (want_cost) {
          auto cost_report = fvn::ndlog::cost::analyze(program, report, sink);
          cost_json = fvn::ndlog::cost::to_json(cost_report);
          if (!json && !dot) cost_human = fvn::ndlog::cost::to_human(cost_report);
          if (dot) std::cout << fvn::ndlog::cost::to_dot(program, cost_report);
        } else if (dot) {
          std::cout << fvn::ndlog::semantic_dot(program, report);
        }
      }
      fvn::ndlog::dedupe_localized_diagnostics(program, sink);
      sink.sort_by_location();
    } catch (const fvn::ndlog::ParseError& e) {
      sink.error("ND0001", e.what(),
                 fvn::ndlog::SourceSpan::at({e.line(), e.column()}));
    } catch (const std::exception& e) {
      sink.error("ND0001", e.what());
    }
    errors += sink.count(fvn::ndlog::Severity::Error);
    warnings += sink.count(fvn::ndlog::Severity::Warning);
    if (json) {
      json_out << (f != 0 ? "," : "") << "{\"file\":\"" << fvn::ndlog::json_escape(file)
               << "\",\"diagnostics\":" << fvn::ndlog::render_json(sink.diagnostics());
      if (!summary_json.empty()) json_out << ",\"summary\":" << summary_json;
      if (!cost_json.empty()) json_out << ",\"cost\":" << cost_json;
      json_out << "}";
    } else if (!dot) {
      std::cout << fvn::ndlog::render_human(sink.diagnostics(), file);
      if (!cost_human.empty()) std::cout << cost_human;
    }
  }
  if (json) {
    json_out << "],\"errors\":" << errors << ",\"warnings\":" << warnings << "}";
    std::cout << json_out.str() << "\n";
  } else if (!dot) {
    std::cout << "analyze: " << errors << " errors, " << warnings << " warnings\n";
  }
  if (want_metrics) std::cerr << registry.render_summary();
  return errors != 0 ? 2 : warnings != 0 ? 1 : 0;
}

double parse_double_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw UsageError("bad value for " + flag + ": '" + value + "'");
  }
}

std::uint64_t parse_uint_flag(const std::string& flag, const std::string& value) {
  try {
    std::size_t used = 0;
    const unsigned long long v = std::stoull(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    throw UsageError("bad value for " + flag + ": '" + value + "'");
  }
}

/// Load and validate an `.ltl` spec against the program's catalog. Malformed
/// specs render as an LT0001 diagnostic and exit 2 (UsageError); consistency
/// warnings (LT0002..LT0005) print to stderr but do not block.
fvn::ltl::Spec load_ltl_spec(const std::string& path,
                             const fvn::ndlog::Program& program) {
  const std::string source = slurp(path);
  fvn::ndlog::DiagnosticSink sink;
  fvn::ltl::Spec spec;
  try {
    spec = fvn::ltl::parse_spec(source, path);
  } catch (const fvn::ndlog::ParseError& e) {
    sink.error("LT0001", e.what(),
               fvn::ndlog::SourceSpan::at({e.line(), e.column()}));
    std::cerr << fvn::ndlog::render_human(sink.diagnostics(), path);
    throw UsageError("cannot parse LTL spec " + path);
  }
  const auto catalog = fvn::ndlog::Catalog::from_program(program);
  fvn::ltl::check_spec(spec, catalog, sink);
  if (!sink.diagnostics().empty()) {
    std::cerr << fvn::ndlog::render_human(sink.diagnostics(), path);
  }
  if (spec.properties.empty()) {
    throw UsageError("LTL spec " + path + " declares no properties");
  }
  return spec;
}

/// `fvn_cli verify <prog.ndlog> <facts.txt> --ltl <spec.ltl>` — model-check
/// every property of the spec over every message interleaving of the program
/// on the given facts (DESIGN.md §14.3). Violations print a full lasso
/// counterexample (per-step valuations and node tables) and optionally render
/// it as a Chrome trace.
int cmd_verify(const std::vector<std::string>& args) {
  std::string spec_path;
  std::string trace_path;
  std::size_t max_states = 200000;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      if (a.size() > flag.size()) return a.substr(flag.size() + 1);  // --flag=v
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      return args[++i];
    };
    if (a == "--ltl" || a.rfind("--ltl=", 0) == 0) {
      spec_path = value_of("--ltl");
    } else if (a == "--trace" || a.rfind("--trace=", 0) == 0) {
      trace_path = value_of("--trace");
    } else if (a == "--max-states" || a.rfind("--max-states=", 0) == 0) {
      max_states = static_cast<std::size_t>(
          parse_uint_flag("--max-states", value_of("--max-states")));
    } else if (a.rfind("--", 0) == 0) {
      throw UsageError("unknown flag " + a);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2 || spec_path.empty()) return usage();
  require_writable(trace_path);

  auto program = fvn::ndlog::parse_program(slurp(positional[0]), positional[0]);
  auto facts = load_facts(positional[1]);
  auto spec = load_ltl_spec(spec_path, program);

  // A program the checker refuses gets no verdict, so exit 2, not 1.
  std::optional<fvn::mc::NdlogTransitionSystem> ts;
  try {
    ts.emplace(program);
  } catch (const fvn::ndlog::AnalysisError& e) {
    throw UsageError(e.what());
  }
  const auto initial = ts->initial(facts);
  fvn::ltl::CheckOptions options;
  options.max_product_states = max_states;
  const auto result = fvn::ltl::check_ltl(*ts, initial, spec, options);

  bool any_violated = false;
  for (const auto& p : result.properties) {
    if (p.holds) {
      std::cout << "property " << p.name << ": " << p.formula << " — HOLDS"
                << (p.exhausted ? "" : " (bounded: state budget exhausted)")
                << " [" << p.product_states << " product states, "
                << p.transitions << " transitions, " << p.system_states
                << " system states, " << p.local_steps << " local steps]\n";
    } else {
      any_violated = true;
      // render_counterexample prints the "property ... VIOLATED" header.
      std::cout << fvn::ltl::render_counterexample(p);
    }
  }
  if (!trace_path.empty()) {
    fvn::obs::Trace trace;
    for (const auto& p : result.properties) {
      if (!p.holds) {
        fvn::ltl::counterexample_to_trace(p, trace);
        break;
      }
    }
    trace.write(trace_path);
  }
  return any_violated ? 1 : 0;
}

/// Parse "pred[:cols]" against the program, turning spec mistakes into usage
/// errors (exit 2) rather than runtime failures.
fvn::serve::ServeSpec parse_serve_spec(const std::string& text,
                                       const fvn::ndlog::Program& program) {
  try {
    return fvn::serve::ServeSpec::parse(
        text, fvn::ndlog::Catalog::from_program(program));
  } catch (const fvn::serve::ServeError& e) {
    throw UsageError(e.what());
  }
}

void print_serve_summary(const fvn::serve::ServePlane& plane) {
  const auto s = plane.stats();
  std::cerr << "serve: routes=" << s.routes << " epochs=" << s.epochs_published
            << " applied=" << s.applied
            << " reclaimed=" << s.snapshots_reclaimed
            << " retired_live=" << s.retired_live
            << " publish_p99_us=" << s.publish_p99_us << "\n";
}

/// `sim --metrics`: run()'s wall time split into the simulator's exclusive
/// layers, and the share of it the layers attribute.
void print_layer_split(const fvn::obs::Registry& registry) {
  const fvn::obs::Timer* run = registry.find_timer("sim/run");
  if (run == nullptr || run->total_ns() == 0) return;
  std::uint64_t attributed = 0;
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << "sim layers (exclusive ms):";
  for (const char* name : fvn::runtime::LayerClock::kNames) {
    const fvn::obs::Timer* layer = registry.find_timer(std::string("sim/layer/") + name);
    const std::uint64_t ns = layer == nullptr ? 0 : layer->total_ns();
    attributed += ns;
    os << " " << name << "=" << static_cast<double>(ns) / 1e6;
  }
  os << std::setprecision(1) << "\nsim attributed "
     << 100.0 * static_cast<double>(attributed) / static_cast<double>(run->total_ns())
     << "% of run() " << std::setprecision(3) << run->total_ms() << " ms\n";
  std::cerr << os.str();
}

/// `first` then `second` on every tuple event (`second` alone when `first`
/// is empty): how --monitor and --serve share one runtime's hook.
fvn::runtime::TupleEventHook chain(fvn::runtime::TupleEventHook first,
                                   fvn::runtime::TupleEventHook second) {
  if (!first) return second;
  return [first = std::move(first), second = std::move(second)](
             std::string_view kind, const std::string& node,
             const fvn::ndlog::Tuple& tuple, double now) {
    first(kind, node, tuple, now);
    second(kind, node, tuple, now);
  };
}

/// serve --churn: n reader threads do wait-free lookups (verifying snapshot
/// checksums) while the main thread retracts/reinstalls fixpoint routes and
/// publishes epoch snapshots. Returns 1 if any reader saw a torn snapshot.
int run_serve_churn(fvn::serve::ServePlane& plane,
                    const std::vector<std::pair<std::string, fvn::ndlog::Tuple>>& routes,
                    std::uint64_t readers, double seconds) {
  using namespace fvn;
  if (routes.empty()) {
    std::cerr << "error: no routes at fixpoint — nothing to churn\n";
    return 1;
  }
  // Lookup targets: every (node, prefix) in the published fixpoint.
  std::vector<std::pair<serve::Interner::Id, std::uint32_t>> targets;
  {
    const serve::Snapshot& snap = plane.current();
    for (std::size_t n = 0; n < snap.tables.size(); ++n) {
      if (!snap.tables[n]) continue;
      snap.tables[n]->for_each([&](serve::Key key, const serve::Row&) {
        targets.emplace_back(static_cast<serve::Interner::Id>(n), key.prefix);
      });
    }
  }
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::vector<std::thread> pool;
  pool.reserve(static_cast<std::size_t>(readers));
  for (std::uint64_t r = 0; r < readers; ++r) {
    pool.emplace_back([&plane, &stop, &torn, &targets, r]() {
      auto reader = plane.register_reader();
      std::uint64_t x = 0x9e3779b97f4a7c15ull ^ (r + 1);
      std::uint64_t batches = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        auto lease = reader.acquire();
        // Periodic torn-read tripwire: the content checksum of everything
        // reachable from the lease must match what the writer published.
        if ((batches++ & 0xff) == 0 &&
            serve::recompute_checksum(*lease) != lease->checksum) {
          torn.store(true);
          stop.store(true);
        }
        for (int i = 0; i < 64; ++i) {
          x ^= x << 13; x ^= x >> 7; x ^= x << 17;  // xorshift64
          const auto& t = targets[x % targets.size()];
          reader.lookup(lease, t.first, t.second);
        }
      }
    });
  }
  const auto start = std::chrono::steady_clock::now();
  const auto deadline = start + std::chrono::duration_cast<
      std::chrono::steady_clock::duration>(std::chrono::duration<double>(seconds));
  std::size_t i = 0;
  std::uint64_t churn_ops = 0;
  while (std::chrono::steady_clock::now() < deadline &&
         !stop.load(std::memory_order_relaxed)) {
    const auto& [node, tuple] = routes[i % routes.size()];
    plane.apply("retract", node, tuple);
    plane.apply("install", node, tuple);
    churn_ops += 2;
    if (++i % 8 == 0) plane.publish();
    // Pace the writer at a realistic protocol rate so readers own the cores.
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  plane.publish(/*force=*/true);
  stop.store(true);
  for (auto& t : pool) t.join();
  const double elapsed =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  const auto s = plane.stats();
  std::cout << "churn: readers=" << readers << " seconds=" << elapsed
            << " lookups=" << s.lookups << " lookups_per_sec="
            << static_cast<std::uint64_t>(static_cast<double>(s.lookups) /
                                          (elapsed > 0 ? elapsed : 1.0))
            << " churn_ops=" << churn_ops << " epochs=" << s.epochs_published
            << (torn.load() ? " TORN" : " consistent") << "\n";
  if (torn.load()) {
    std::cerr << "error: a reader observed a torn snapshot\n";
    return 1;
  }
  return 0;
}

/// `fvn_cli serve <prog.ndlog> <facts.txt> --serve-pred <pred> [...]` — run
/// to fixpoint on the simulator with the serving plane attached to the
/// tuple-event stream, then either answer "<node> <dst>" lookups from
/// --queries/stdin or (--readers N --churn) measure concurrent wait-free
/// readers while the writer churns routes.
int cmd_serve(const std::vector<std::string>& args) {
  std::string pred;
  std::string cols;
  std::string queries_path;
  std::string trace_path;
  std::string metrics_out;
  bool want_metrics = false;
  bool churn = false;
  std::uint64_t readers = 0;
  double churn_seconds = 1.0;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      if (a.size() > flag.size()) return a.substr(flag.size() + 1);  // --flag=v
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      return args[++i];
    };
    if (a == "--serve-pred" || a.rfind("--serve-pred=", 0) == 0) {
      pred = value_of("--serve-pred");
    } else if (a == "--serve-cols" || a.rfind("--serve-cols=", 0) == 0) {
      cols = value_of("--serve-cols");
    } else if (a == "--queries" || a.rfind("--queries=", 0) == 0) {
      queries_path = value_of("--queries");
    } else if (a == "--readers" || a.rfind("--readers=", 0) == 0) {
      readers = parse_uint_flag("--readers", value_of("--readers"));
    } else if (a == "--churn") {
      churn = true;
    } else if (a == "--churn-seconds" || a.rfind("--churn-seconds=", 0) == 0) {
      churn_seconds =
          parse_double_flag("--churn-seconds", value_of("--churn-seconds"));
    } else if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--metrics-out" || a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = value_of("--metrics-out");
    } else if (a == "--trace" || a.rfind("--trace=", 0) == 0) {
      trace_path = value_of("--trace");
    } else if (a.rfind("--", 0) == 0) {
      throw UsageError("unknown flag " + a);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2 || pred.empty()) return usage();
  if (churn && readers == 0) throw UsageError("--churn needs --readers >= 1");
  if (churn_seconds <= 0.0 || churn_seconds > 60.0) {
    throw UsageError("--churn-seconds must be in (0,60]");
  }
  require_writable(trace_path);
  require_writable(metrics_out);

  auto program = fvn::ndlog::parse_program(slurp(positional[0]), positional[0]);
  auto facts = load_facts(positional[1]);

  fvn::obs::Registry registry;
  fvn::obs::Trace obs_trace;
  const bool collect_metrics = want_metrics || !metrics_out.empty();
  fvn::serve::ServePlane plane(
      parse_serve_spec(cols.empty() ? pred : pred + ":" + cols, program),
      fvn::serve::ServePlane::Options{collect_metrics ? &registry : nullptr});
  fvn::serve::Feed feed(plane);  // sim: publish at delta-round boundaries

  // Track the live set of served-predicate installs so churn mode can
  // retract/reinstall exactly the fixpoint's routes.
  std::map<std::string, std::pair<std::string, fvn::ndlog::Tuple>> live;
  auto hook = feed.hook();
  fvn::runtime::SimOptions sim_options;
  sim_options.tuple_events = [&](std::string_view kind, const std::string& node,
                                 const fvn::ndlog::Tuple& tuple, double now) {
    hook(kind, node, tuple, now);
    if (!churn || tuple.predicate() != plane.spec().predicate) return;
    const std::string key = node + "\x1f" + tuple.to_string();
    if (kind == "install") {
      live.emplace(key, std::make_pair(node, tuple));
    } else {
      live.erase(key);
    }
  };
  if (collect_metrics) sim_options.metrics = &registry;
  if (!trace_path.empty()) sim_options.obs_trace = &obs_trace;

  fvn::runtime::Simulator sim(program, sim_options);
  sim.inject_all(facts);
  const auto stats = sim.run();
  feed.finish();  // the fixpoint snapshot

  int rc = stats.quiesced ? 0 : 1;
  if (churn) {
    std::vector<std::pair<std::string, fvn::ndlog::Tuple>> routes;
    routes.reserve(live.size());
    for (auto& [key, entry] : live) routes.push_back(entry);
    const int churn_rc =
        run_serve_churn(plane, routes, readers, churn_seconds);
    if (churn_rc != 0) rc = churn_rc;
  } else {
    std::ifstream query_file;
    std::istream* in = &std::cin;
    if (!queries_path.empty()) {
      query_file.open(queries_path);
      if (!query_file) throw UsageError("cannot read " + queries_path);
      in = &query_file;
    }
    std::string line;
    while (std::getline(*in, line)) {
      std::istringstream row(line);
      std::string node;
      std::string dst;
      if (!(row >> node) || node[0] == '#') continue;
      if (!(row >> dst)) {
        std::cout << "error: query needs '<node> <dst>'\n";
        continue;
      }
      std::cout << plane.query(node, dst) << "\n";
    }
  }

  print_serve_summary(plane);
  plane.flush_metrics();
  if (!trace_path.empty()) obs_trace.write(trace_path);
  if (!metrics_out.empty()) {
    fvn::obs::write_file(metrics_out, registry.to_json() + "\n");
  }
  if (want_metrics) std::cerr << registry.render_summary();
  return rc;
}

/// `fvn_cli dist <prog.ndlog> <facts.txt> [flags]` — run the program on the
/// fvn::net Cluster: one thread per node, frames on a real transport. Prints
/// each node's database (same shape as `simulate`) and a summary line.
int cmd_dist(const std::vector<std::string>& args) {
  bool want_metrics = false;
  std::string trace_path;
  std::string metrics_out;
  std::string serve_spec_text;
  std::string monitor_path;
  std::string transport_name = "inproc";
  bool cost_order = false;
  double loss = 0.0;
  std::uint64_t seed = 1;
  std::int64_t expected_nodes = -1;
  std::vector<std::string> positional;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    auto value_of = [&](const std::string& flag) -> std::string {
      if (a.size() > flag.size()) return a.substr(flag.size() + 1);  // --flag=v
      if (i + 1 >= args.size()) throw UsageError(flag + " needs a value");
      return args[++i];
    };
    if (a == "--metrics") {
      want_metrics = true;
    } else if (a == "--trace" || a.rfind("--trace=", 0) == 0) {
      trace_path = value_of("--trace");
    } else if (a == "--metrics-out" || a.rfind("--metrics-out=", 0) == 0) {
      metrics_out = value_of("--metrics-out");
    } else if (a == "--serve" || a.rfind("--serve=", 0) == 0) {
      serve_spec_text = value_of("--serve");
    } else if (a == "--monitor" || a.rfind("--monitor=", 0) == 0) {
      monitor_path = value_of("--monitor");
    } else if (a == "--cost-order") {
      cost_order = true;
    } else if (a == "--transport" || a.rfind("--transport=", 0) == 0) {
      transport_name = value_of("--transport");
    } else if (a == "--loss" || a.rfind("--loss=", 0) == 0) {
      loss = parse_double_flag("--loss", value_of("--loss"));
    } else if (a == "--seed" || a.rfind("--seed=", 0) == 0) {
      seed = parse_uint_flag("--seed", value_of("--seed"));
    } else if (a == "--nodes" || a.rfind("--nodes=", 0) == 0) {
      expected_nodes =
          static_cast<std::int64_t>(parse_uint_flag("--nodes", value_of("--nodes")));
    } else if (a.rfind("--", 0) == 0) {
      throw UsageError("unknown flag " + a);
    } else {
      positional.push_back(a);
    }
  }
  if (positional.size() != 2) return usage();
  if (transport_name != "inproc" && transport_name != "udp") {
    throw UsageError("unknown transport '" + transport_name +
                     "' (expected inproc or udp)");
  }
  if (loss < 0.0 || loss >= 1.0) throw UsageError("--loss must be in [0,1)");
  require_writable(trace_path);
  require_writable(metrics_out);

  auto program = fvn::ndlog::parse_program(slurp(positional[0]), positional[0]);
  auto facts = load_facts(positional[1]);
  std::optional<fvn::ltl::Spec> monitor_spec;
  if (!monitor_path.empty()) monitor_spec = load_ltl_spec(monitor_path, program);

  fvn::obs::Registry registry;
  fvn::obs::Trace obs_trace;
  const bool collect_metrics = want_metrics || !metrics_out.empty();
  // --serve: the plane consumes the live tuple-event stream concurrently
  // from every node thread, so the feed serializes with its mutex and
  // publishes on an apply-count cadence (node clocks are not comparable).
  std::optional<fvn::serve::ServePlane> serve_plane;
  std::optional<fvn::serve::Feed> serve_feed;
  if (!serve_spec_text.empty()) {
    serve_plane.emplace(
        parse_serve_spec(serve_spec_text, program),
        fvn::serve::ServePlane::Options{collect_metrics ? &registry : nullptr});
    fvn::serve::Feed::Options feed_options;
    feed_options.publish_on_time_advance = false;
    feed_options.publish_every = 64;
    feed_options.thread_safe = true;
    serve_feed.emplace(*serve_plane, feed_options);
  }
  fvn::net::ClusterOptions options;
  options.cost_order = cost_order;
  options.transport = transport_name == "udp" ? fvn::net::TransportKind::Udp
                                              : fvn::net::TransportKind::InProc;
  options.faults.drop_rate = loss;
  options.faults.seed = seed;
  if (collect_metrics) options.metrics = &registry;
  if (!trace_path.empty()) options.trace = &obs_trace;
  // --monitor: node threads call the hook concurrently, so the monitors
  // step under a mutex, in the order the calls serialize.
  std::optional<fvn::ltl::MonitorSet> monitors;
  std::mutex monitors_mu;
  if (monitor_spec.has_value()) {
    monitors.emplace(*monitor_spec);
    options.tuple_events = [&monitors, &monitors_mu](std::string_view kind,
                                                     const std::string& /*node*/,
                                                     const fvn::ndlog::Tuple& tuple,
                                                     double /*now*/) {
      const std::lock_guard<std::mutex> lock(monitors_mu);
      monitors->on_event(fvn::ltl::event_kind(kind), tuple);
    };
  }
  if (serve_feed.has_value()) {
    options.tuple_events = chain(std::move(options.tuple_events), serve_feed->hook());
  }

  fvn::net::Cluster cluster(program, options);
  cluster.inject_all(facts);
  const auto nodes = cluster.nodes();
  if (expected_nodes >= 0 &&
      nodes.size() != static_cast<std::size_t>(expected_nodes)) {
    std::cerr << "error: facts span " << nodes.size() << " nodes, --nodes="
              << expected_nodes << " expected\n";
    return 1;
  }
  auto stats = cluster.run();
  if (serve_feed.has_value()) serve_feed->finish();  // the fixpoint snapshot
  for (const auto& node : cluster.nodes()) {
    std::cout << "--- " << node << " ---\n";
    for (const auto& row : cluster.database(node).dump()) std::cout << row << "\n";
  }
  std::cerr << "nodes=" << stats.nodes << " sent=" << stats.messages_sent
            << " received=" << stats.messages_received
            << " retransmitted=" << stats.retransmitted
            << " acked=" << stats.acked << " bytes=" << stats.transport.bytes_sent
            << " wall_ms=" << stats.wall_ms
            << (stats.quiesced ? "" : " (no quiescence before budget)") << "\n";
  if (serve_plane.has_value()) {
    print_serve_summary(*serve_plane);
    serve_plane->flush_metrics();
  }
  if (!trace_path.empty()) obs_trace.write(trace_path);
  if (!metrics_out.empty()) {
    fvn::obs::write_file(metrics_out, registry.to_json() + "\n");
  }
  if (want_metrics) std::cerr << registry.render_summary();
  bool monitors_ok = true;
  if (monitors.has_value()) {
    std::cout << fvn::ltl::render_verdicts(monitors->finish());
    monitors_ok = monitors->all_satisfied();
  }
  return stats.quiesced && monitors_ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fvn;
  if (argc < 3) return usage();
  const std::string command = argv[1];
  if (command == "lint" || command == "analyze" || command == "plan" ||
      command == "dist" || command == "verify" || command == "serve") {
    try {
      const std::vector<std::string> rest(argv + 2, argv + argc);
      return command == "lint"      ? cmd_lint(rest)
             : command == "analyze" ? cmd_analyze(rest)
             : command == "plan"    ? cmd_plan(rest)
             : command == "dist"    ? cmd_dist(rest)
             : command == "serve"   ? cmd_serve(rest)
                                    : cmd_verify(rest);
    } catch (const ndlog::ParseError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    } catch (const UsageError& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 2;
    } catch (const std::exception& e) {
      std::cerr << "error: " << e.what() << "\n";
      return 1;
    }
  }

  // Flags of the shared commands; everything else is positional:
  // <prog.ndlog> [facts.txt] [goal|fact]. An unknown flag, or one the
  // command would ignore, is a usage error.
  const bool simulates = command == "simulate" || command == "sim";
  const bool observes = simulates || command == "run" || command == "eval";
  bool want_metrics = false;
  std::string trace_path;
  std::string metrics_out;
  std::string serve_spec_text;
  std::string monitor_path;
  bool cost_order = false;
  std::vector<std::string> args;
  try {
    for (int i = 2; i < argc; ++i) {
      const std::string a = argv[i];
      // True when `a` is `name` (with its value, "--name v" or "--name=v",
      // stored in `*value` when the flag takes one); throws when the command
      // would ignore it.
      auto flag = [&](const std::string& name, bool applies, std::string* value = nullptr) {
        if (a != name && (value == nullptr || a.rfind(name + "=", 0) != 0)) return false;
        if (!applies) throw UsageError(name + " does not apply to " + command);
        if (value == nullptr) return true;
        if (a.size() == name.size() && i + 1 >= argc) throw UsageError(name + " needs a value");
        *value = a.size() > name.size() ? a.substr(name.size() + 1) : argv[++i];
        return true;
      };
      if (flag("--metrics", observes)) {
        want_metrics = true;
      } else if (flag("--cost-order", simulates)) {
        cost_order = true;
      } else if (!flag("--trace", observes, &trace_path) &&
                 !flag("--metrics-out", observes, &metrics_out) &&
                 !flag("--serve", simulates, &serve_spec_text) &&
                 !flag("--monitor", simulates, &monitor_path)) {
        if (a.rfind("--", 0) == 0) throw UsageError("unknown flag " + a);  // never a file
        args.push_back(a);
      }
    }
    if (args.empty()) return usage();
    require_writable(trace_path);
    require_writable(metrics_out);
    auto program = ndlog::parse_program(slurp(args[0]), "cli_program");

    if (command == "check") {
      auto strat = ndlog::analyze(program);
      std::cout << "program OK: " << program.rules.size() << " rules, "
                << ndlog::predicates_of(program).size() << " predicates, "
                << strat.stratum_count << " strata\n";
      for (const auto& [pred, stratum] : strat.stratum_of) {
        std::cout << "  stratum " << stratum << ": " << pred << "\n";
      }
      return 0;
    }
    if (command == "translate") {
      std::cout << logic::to_pvs_source(translate::to_logic(program));
      return 0;
    }
    if (command == "linear") {
      std::cout << translate::render_linear_view(program);
      return 0;
    }

    if (args.size() < 2) return usage();
    auto facts = load_facts(args[1]);

    obs::Registry registry;
    obs::Trace obs_trace;
    const bool collect_metrics = want_metrics || !metrics_out.empty();
    auto flush_obs = [&]() {
      if (!trace_path.empty()) obs_trace.write(trace_path);
      if (!metrics_out.empty()) {
        obs::write_file(metrics_out, registry.to_json() + "\n");
      }
      if (want_metrics) std::cerr << registry.render_summary();
    };

    if (command == "run" || command == "eval") {
      ndlog::Evaluator eval;
      ndlog::EvalOptions opts;
      if (collect_metrics) opts.metrics = &registry;
      if (!trace_path.empty()) opts.trace = &obs_trace;
      auto result = eval.run(program, facts, opts);
      for (const auto& row : result.database.dump()) std::cout << row << "\n";
      std::cerr << "derived " << result.stats.tuples_derived << " tuples in "
                << result.stats.iterations << " rounds\n";
      flush_obs();
      return 0;
    }
    if (command == "query") {
      if (args.size() < 3) return usage();
      auto result = ndlog::query(program, args[2], facts);
      for (const auto& t : ndlog::sorted_strings(result.answers)) std::cout << t << "\n";
      std::cerr << result.answers.size() << " answers; evaluated "
                << result.rules_relevant << "/" << result.rules_total
                << " relevant rules\n";
      return 0;
    }
    if (command == "simulate" || command == "sim") {
      runtime::SimOptions sim_options;
      if (collect_metrics) sim_options.metrics = &registry;
      if (!trace_path.empty()) sim_options.obs_trace = &obs_trace;
      sim_options.cost_order = cost_order;
      std::optional<ltl::MonitorSet> ltl_monitors;
      if (!monitor_path.empty()) {
        const auto spec = load_ltl_spec(monitor_path, program);
        ltl_monitors.emplace(spec);
        // Live monitoring: the simulator calls this hook on every database
        // mutation, in virtual-time order.
        sim_options.tuple_events = [&ltl_monitors](std::string_view kind,
                                                   const std::string& /*node*/,
                                                   const ndlog::Tuple& tuple,
                                                   double /*now*/) {
          ltl_monitors->on_event(ltl::event_kind(kind), tuple);
        };
      }
      // --serve: attach the serving plane to the same stream (the simulator
      // is single-threaded, so the feed publishes at delta-round boundaries
      // with no locking). Composes with --monitor by chaining the hooks.
      std::optional<serve::ServePlane> serve_plane;
      std::optional<serve::Feed> serve_feed;
      if (!serve_spec_text.empty()) {
        serve_plane.emplace(
            parse_serve_spec(serve_spec_text, program),
            serve::ServePlane::Options{collect_metrics ? &registry : nullptr});
        serve_feed.emplace(*serve_plane);
        sim_options.tuple_events =
            chain(std::move(sim_options.tuple_events), serve_feed->hook());
      }
      runtime::Simulator sim(program, sim_options);
      sim.inject_all(facts);
      auto stats = sim.run();
      if (serve_feed.has_value()) serve_feed->finish();
      if (serve_plane.has_value()) {
        print_serve_summary(*serve_plane);
        serve_plane->flush_metrics();
      }
      for (const auto& node : sim.nodes()) {
        std::cout << "--- " << node << " ---\n";
        for (const auto& row : sim.database(node).dump()) std::cout << row << "\n";
      }
      std::cerr << "events=" << stats.events_processed
                << " messages=" << stats.messages_sent
                << " converged_at=" << stats.last_change_time << "s"
                << (stats.quiesced ? "" : " (budget exhausted)") << "\n";
      flush_obs();
      if (want_metrics) print_layer_split(registry);
      bool monitors_ok = true;
      if (ltl_monitors.has_value()) {
        const auto verdicts = ltl_monitors->finish();
        std::cout << ltl::render_verdicts(verdicts);
        monitors_ok = ltl_monitors->all_satisfied();
      }
      // Same convention as dist: a run that never quiesced is a runtime
      // failure (1), not success. A fired monitor is a violation (1) too.
      return stats.quiesced && monitors_ok ? 0 : 1;
    }
    if (command == "explain") {
      if (args.size() < 3) return usage();
      auto result = ndlog::eval_with_provenance(program, facts);
      auto target = ndlog::parse_fact(args[2]);
      auto derivation = result.derivation_of(target);
      if (!derivation) {
        std::cerr << target.to_string() << " is not derivable\n";
        return 1;
      }
      std::cout << derivation->to_string();
      return 0;
    }
    return usage();
  } catch (const ndlog::ParseError& e) {
    // Same convention as lint/analyze: malformed input exits 2, runtime
    // failures (divergence, budget exhaustion, transport errors) exit 1.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const UsageError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
