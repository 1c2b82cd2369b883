// fvn_cli — the command-line face of FVN: parse, analyze, translate,
// evaluate, query, simulate, run, verify and serve NDlog programs from files.
//
// `fvn_cli` alone prints usage(): every command with its arguments and its
// flags, from the one table (commands()) that the parser reads as well. A
// flag is written `--f`, `--f=v` or `--f v`. An unknown flag, a flag the
// command does not take, and a positional argument too many are usage
// errors, reported before any input is read.
//
// Exit codes everywhere: 0 success, 1 runtime failure (divergence, transport
// unavailable, non-quiescence, monitor violation, violated property), 2 usage
// / unreadable input / parse error / a program `verify` refuses. Output paths
// (--trace, --metrics-out) are validated up front: an unwritable path is a
// usage error (exit 2), not a silent or late failure.
//
// facts.txt: one ground fact per line, e.g. `link(@n0,n1,1)`; blank lines
// and lines starting with `#` are ignored. Every parse error reads
// `error: <source>:<line>:<col>: <message>` (exit 2): the source is the
// program or facts file, or `goal`/`fact` for query's and explain's last
// argument. lint and analyze report it as ND0001 instead, an .ltl spec as
// LT0001, at the same position.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string_view>
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
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "runtime/localize.hpp"
#include "runtime/simulator.hpp"
#include "serve/plane.hpp"
#include "translate/linear_view.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace {

using namespace fvn;

/// Bad invocation (unreadable or malformed input, malformed flag value):
/// exit 2, like a usage error — distinct from runtime failures (exit 1).
struct UsageError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

// --- the command table ------------------------------------------------------

/// One flag of a command: its name, the placeholder of its value (empty for
/// a switch) and one help line.
struct Flag {
  std::string_view name;
  std::string_view value;
  std::string_view help;
};

struct Args;

/// One command: its positional arguments, its flags and what runs it.
struct Command {
  std::string_view name;
  std::string_view alias;      ///< empty when none
  std::string_view synopsis;   ///< the positional arguments, for usage()
  std::size_t min_args;
  std::size_t max_args;        ///< kAnyNumber: lint/analyze take many files
  std::string_view help;
  std::vector<Flag> flags;
  int (*run)(const Args&);

  const Flag* flag(std::string_view flag_name) const {
    for (const Flag& f : flags) {
      if (f.name == flag_name) return &f;
    }
    return nullptr;
  }
};

constexpr std::size_t kAnyNumber = static_cast<std::size_t>(-1);

const std::vector<Command>& commands();

/// A command line parsed against its command's entry in the table.
struct Args {
  const Command* command = nullptr;
  std::vector<std::string> positional;
  std::map<std::string, std::string, std::less<>> flags;  ///< a switch maps to ""

  bool has(std::string_view flag) const { return flags.find(flag) != flags.end(); }
  std::string value(std::string_view flag, std::string fallback = {}) const {
    const auto it = flags.find(flag);
    return it == flags.end() ? fallback : it->second;
  }
  /// The flag's value as a number; `fallback` when the flag is absent.
  template <typename Number>
  Number number(std::string_view flag, Number fallback) const {
    if (!has(flag)) return fallback;
    std::istringstream in(value(flag));
    Number n{};
    if (!(in >> n) || in.peek() != std::char_traits<char>::eof()) {
      throw UsageError("bad value for " + std::string(flag) + ": '" + value(flag) + "'");
    }
    return n;
  }
};

/// Reads `--f`, `--f=v` and `--f v` against `command`'s flags; any other
/// argument is positional. `typed` is the command as typed: its name or its
/// alias.
Args parse_args(const Command& command, const std::string& typed,
                const std::vector<std::string>& argv) {
  Args args{&command, {}, {}};
  for (std::size_t i = 0; i < argv.size(); ++i) {
    const std::string& a = argv[i];
    if (a.rfind("--", 0) != 0) {  // a flag is never a file name
      args.positional.push_back(a);
      continue;
    }
    const std::size_t eq = a.find('=');
    const std::string name = a.substr(0, eq);
    const Flag* flag = command.flag(name);
    if (flag == nullptr) {
      const bool known = std::any_of(commands().begin(), commands().end(),
                                     [&](const Command& c) { return c.flag(name) != nullptr; });
      if (known) throw UsageError(name + " does not apply to " + typed);
      throw UsageError("unknown flag " + name +
                       (name == "--parallel"
                            ? " (the shard-parallel analysis was removed, EXPERIMENTS.md E10)"
                            : ""));
    }
    if (flag->value.empty()) {
      if (eq != std::string::npos) throw UsageError(name + " takes no value");
      args.flags[name];
    } else if (eq != std::string::npos) {
      args.flags[name] = a.substr(eq + 1);
    } else if (i + 1 < argv.size()) {
      args.flags[name] = argv[++i];
    } else {
      throw UsageError(name + " needs a value");
    }
  }
  if (args.positional.size() > command.max_args) {
    throw UsageError("unexpected argument " + args.positional[command.max_args]);
  }
  return args;
}

int usage() {
  std::ostringstream os;
  os << "usage: fvn_cli <command> <arguments> [flags]   (a flag is --f, --f=v or --f v;\n"
        "       exit 0 success, 1 runtime failure, 2 usage or parse error)\n";
  for (const Command& c : commands()) {
    std::string head(c.name);
    if (!c.alias.empty()) {
      head += '|';
      head += c.alias;
    }
    head += ' ';
    head += c.synopsis;
    os << "  " << std::left << std::setw(42) << head << " " << c.help << "\n";
    for (const Flag& f : c.flags) {
      std::string flag(f.name);
      if (!f.value.empty()) {
        flag += ' ';
        flag += f.value;
      }
      os << "      " << std::setw(38) << flag << " " << f.help << "\n";
    }
  }
  std::cerr << os.str();
  return 2;
}

// --- input ------------------------------------------------------------------

/// Validate an output path before doing any work: probe it in append mode so
/// an existing file is not truncated, and treat failure as a usage error
/// (exit 2).
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

/// Runs `parse`; a ParseError becomes the usage error
/// `<source>:<line>:<col>: <message>`. `first_line` is the line of the text
/// `parse` reads within `source` (a facts line).
template <typename Parse>
auto read_located(const std::string& source, Parse parse, int first_line = 1) {
  try {
    return parse();
  } catch (const ndlog::ParseError& e) {
    throw UsageError(source + ":" + std::to_string(first_line - 1 + e.line()) + ":" +
                     std::to_string(e.column()) + ": " + e.what());
  }
}

/// The program in `path`, named `name` (the path when empty).
ndlog::Program load_program(const std::string& path, const std::string& name = {}) {
  const std::string source = slurp(path);
  return read_located(path,
                      [&] { return ndlog::parse_program(source, name.empty() ? path : name); });
}

std::vector<ndlog::Tuple> load_facts(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw UsageError("cannot read " + path);
  std::vector<ndlog::Tuple> facts;
  std::string line;
  for (int number = 1; std::getline(in, line); ++number) {
    const auto first = line.find_first_not_of(" \t");
    if (first == std::string::npos || line[first] == '#') continue;
    facts.push_back(read_located(path, [&] { return ndlog::parse_fact(line); }, number));
  }
  return facts;
}

/// Load and validate an `.ltl` spec against the program's catalog. Malformed
/// specs render as an LT0001 diagnostic and exit 2 (UsageError); consistency
/// warnings (LT0002..LT0005) print to stderr but do not block.
ltl::Spec load_ltl_spec(const std::string& path, const ndlog::Program& program) {
  const std::string source = slurp(path);
  ndlog::DiagnosticSink sink;
  ltl::Spec spec;
  try {
    spec = ltl::parse_spec(source, path);
  } catch (const ndlog::ParseError& e) {
    sink.error("LT0001", e.what(), ndlog::SourceSpan::at({e.line(), e.column()}));
    std::cerr << ndlog::render_human(sink.diagnostics(), path);
    throw UsageError("cannot parse LTL spec " + path);
  }
  const auto catalog = ndlog::Catalog::from_program(program);
  ltl::check_spec(spec, catalog, sink);
  if (!sink.diagnostics().empty()) {
    std::cerr << ndlog::render_human(sink.diagnostics(), path);
  }
  if (spec.properties.empty()) {
    throw UsageError("LTL spec " + path + " declares no properties");
  }
  return spec;
}

// --- the static commands ----------------------------------------------------

int cmd_check(const Args& args) {
  const auto program = load_program(args.positional[0]);
  const auto strat = ndlog::analyze(program);
  std::cout << "program OK: " << program.rules.size() << " rules, "
            << ndlog::predicates_of(program).size() << " predicates, "
            << strat.stratum_count << " strata\n";
  for (const auto& [pred, stratum] : strat.stratum_of) {
    std::cout << "  stratum " << stratum << ": " << pred << "\n";
  }
  return 0;
}

// translate and linear print the program's name; it is not the file's path.
int cmd_translate(const Args& args) {
  const auto program = load_program(args.positional[0], "cli_program");
  std::cout << logic::to_pvs_source(translate::to_logic(program));
  return 0;
}

int cmd_linear(const Args& args) {
  const auto program = load_program(args.positional[0], "cli_program");
  std::cout << translate::render_linear_view(program);
  return 0;
}

/// What analyze adds to a file's report: members of its JSON record and
/// text after its human diagnostics.
struct FileExtras {
  std::string json;
  std::string human;
};

/// lint and analyze: parse each file and run `check` on it (a parse failure
/// is a located ND0001), then print each file's diagnostics and extras, or
/// one JSON document, and the `<cmd>: N errors, M warnings` line. `print`
/// false leaves the output to `check` (analyze --dot). Exit 0 clean,
/// 1 warnings, 2 errors.
template <typename Check>
int diagnose_files(const Args& args, bool print, Check check) {
  const bool json = args.has("--json");
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::ostringstream json_out;
  json_out << "{\"files\":[";
  for (std::size_t f = 0; f < args.positional.size(); ++f) {
    const std::string& file = args.positional[f];
    ndlog::DiagnosticSink sink;
    FileExtras extras;
    try {
      extras = check(ndlog::parse_program(slurp(file), file), sink);
    } catch (const ndlog::ParseError& e) {
      sink.error("ND0001", e.what(), ndlog::SourceSpan::at({e.line(), e.column()}));
    } catch (const std::exception& e) {
      sink.error("ND0001", e.what());
    }
    errors += sink.count(ndlog::Severity::Error);
    warnings += sink.count(ndlog::Severity::Warning);
    if (json) {
      json_out << (f != 0 ? "," : "") << "{\"file\":\"" << obs::json_escape(file)
               << "\",\"diagnostics\":" << ndlog::render_json(sink.diagnostics()) << extras.json
               << "}";
    } else if (print) {
      std::cout << ndlog::render_human(sink.diagnostics(), file) << extras.human;
    }
  }
  if (json) {
    json_out << "],\"errors\":" << errors << ",\"warnings\":" << warnings << "}";
    std::cout << json_out.str() << "\n";
  } else if (print) {
    std::cout << args.command->name << ": " << errors << " errors, " << warnings
              << " warnings\n";
  }
  return errors != 0 ? 2 : warnings != 0 ? 1 : 0;
}

/// Every diagnostic pass over each file.
int cmd_lint(const Args& args) {
  return diagnose_files(args, true, [](const ndlog::Program& program, ndlog::DiagnosticSink& sink) {
    ndlog::lint_program(program, sink);
    return FileExtras{};
  });
}

/// The core checks plus the semantic passes (ND0014–ND0018: dead rules,
/// divergence prediction, CALM order-sensitivity), with --cost the cost
/// model. Exit convention matches lint.
int cmd_analyze(const Args& args) {
  const bool json = args.has("--json");
  const bool dot = args.has("--dot");
  const bool want_metrics = args.has("--metrics");
  const bool want_cost = args.has("--cost");
  if ((dot && json) || (dot && args.positional.size() != 1)) return usage();

  obs::Registry registry;
  const int code = diagnose_files(args, !dot, [&](const ndlog::Program& program,
                                                  ndlog::DiagnosticSink& sink) {
    FileExtras extras;
    ndlog::check_arities(program, sink);
    ndlog::check_safety(program, sink);
    ndlog::stratify(program, sink);
    if (!sink.has_errors()) {
      ndlog::SemanticOptions options;
      if (want_metrics) options.metrics = &registry;
      auto report = ndlog::analyze_semantics(program, sink, options);
      extras.json = ",\"summary\":" + ndlog::semantic_json(report);
      if (want_cost) {
        auto cost_report = ndlog::cost::analyze(program, report, sink);
        extras.json += ",\"cost\":" + ndlog::cost::to_json(cost_report);
        if (!json && !dot) extras.human = ndlog::cost::to_human(cost_report);
        if (dot) std::cout << ndlog::cost::to_dot(program, cost_report);
      } else if (dot) {
        std::cout << ndlog::semantic_dot(program, report);
      }
    }
    ndlog::dedupe_localized_diagnostics(program, sink);
    sink.sort_by_location();
    return extras;
  });
  if (want_metrics) std::cerr << registry.render_summary();
  return code;
}

/// Localize the program and compile it to the fvn::dataflow element graph:
/// a human summary, Graphviz DOT, or JSON.
int cmd_plan(const Args& args) {
  const bool dot = args.has("--dot");
  const bool json = args.has("--json");
  if (dot && json) return usage();
  auto localized = runtime::localize(load_program(args.positional[0]));
  dataflow::PlanOptions plan_options;
  plan_options.cost_order = args.has("--cost-order");
  // The plan `sim` runs, refused for what `sim` refuses.
  auto plan = runtime::checked_plan(localized, runtime::SimOptions{}.require_stratified,
                                    plan_options);
  if (dot) {
    std::cout << plan.to_dot();
  } else if (json) {
    std::cout << plan.to_json() << "\n";
  } else {
    std::cout << plan.summary();
  }
  return 0;
}

int cmd_query(const Args& args) {
  const auto program = load_program(args.positional[0]);
  const auto facts = load_facts(args.positional[1]);
  const auto goal = read_located("goal", [&] { return ndlog::parse_atom(args.positional[2]); });
  auto result = ndlog::query(program, goal, facts);
  for (const auto& t : ndlog::sorted_strings(result.answers)) std::cout << t << "\n";
  std::cerr << result.answers.size() << " answers; evaluated " << result.rules_relevant << "/"
            << result.rules_total << " relevant rules\n";
  return 0;
}

int cmd_explain(const Args& args) {
  const auto program = load_program(args.positional[0]);
  const auto facts = load_facts(args.positional[1]);
  const auto target = read_located("fact", [&] { return ndlog::parse_fact(args.positional[2]); });
  auto result = ndlog::eval_with_provenance(program, facts);
  auto derivation = result.derivation_of(target);
  if (!derivation) {
    std::cerr << target.to_string() << " is not derivable\n";
    return 1;
  }
  std::cout << derivation->to_string();
  return 0;
}

/// Model-check every property of the spec over every message interleaving
/// of the program on the given facts (DESIGN.md §14.3). Violations print a
/// full lasso counterexample, and --trace renders the first one.
int cmd_verify(const Args& args) {
  const std::string spec_path = args.value("--ltl");
  if (spec_path.empty()) throw UsageError("verify needs --ltl <spec.ltl>");
  ltl::CheckOptions options;
  options.max_product_states = args.number("--max-states", options.max_product_states);
  const auto program = load_program(args.positional[0]);
  const auto facts = load_facts(args.positional[1]);
  const auto spec = load_ltl_spec(spec_path, program);

  // A program the checker refuses gets no verdict, so exit 2, not 1.
  std::optional<mc::NdlogTransitionSystem> ts;
  try {
    ts.emplace(program);
  } catch (const ndlog::AnalysisError& e) {
    throw UsageError(e.what());
  }
  const auto result = ltl::check_ltl(*ts, ts->initial(facts), spec, options);

  const ltl::PropertyResult* violated = nullptr;
  for (const auto& p : result.properties) {
    if (p.holds) {
      std::cout << "property " << p.name << ": " << p.formula << " — HOLDS"
                << (p.exhausted ? "" : " (bounded: state budget exhausted)") << " ["
                << p.product_states << " product states, " << p.transitions
                << " transitions, " << p.system_states << " system states, " << p.local_steps
                << " local steps]\n";
    } else {
      if (violated == nullptr) violated = &p;
      // render_counterexample prints the "property ... VIOLATED" header.
      std::cout << ltl::render_counterexample(p);
    }
  }
  const std::string trace_path = args.value("--trace");
  if (!trace_path.empty()) {
    obs::Trace trace;
    if (violated != nullptr) ltl::counterexample_to_trace(*violated, trace);
    trace.write(trace_path);
  }
  return violated != nullptr ? 1 : 0;
}

// --- the run path: run, simulate, dist and serve ----------------------------

/// Parse "pred[:cols]" against the program, turning spec mistakes into usage
/// errors (exit 2) rather than runtime failures.
serve::ServeSpec parse_serve_spec(const std::string& text, const ndlog::Program& program) {
  try {
    return serve::ServeSpec::parse(text, ndlog::Catalog::from_program(program));
  } catch (const serve::ServeError& e) {
    throw UsageError(e.what());
  }
}

/// `--metrics`: run()'s wall time split into the simulator's exclusive
/// layers, and the share of it the layers attribute (only a simulator run
/// has the sim/run timer).
void print_layer_split(const obs::Registry& registry) {
  const obs::Timer* run = registry.find_timer("sim/run");
  if (run == nullptr || run->total_ns() == 0) return;
  std::uint64_t attributed = 0;
  std::ostringstream os;
  os << std::fixed << std::setprecision(3) << "sim layers (exclusive ms):";
  for (const char* name : runtime::LayerClock::kNames) {
    const obs::Timer* layer = registry.find_timer(std::string("sim/layer/") + name);
    const std::uint64_t ns = layer == nullptr ? 0 : layer->total_ns();
    attributed += ns;
    os << " " << name << "=" << static_cast<double>(ns) / 1e6;
  }
  os << std::setprecision(1) << "\nsim attributed "
     << 100.0 * static_cast<double>(attributed) / static_cast<double>(run->total_ns())
     << "% of run() " << std::setprecision(3) << run->total_ms() << " ms\n";
  std::cerr << os.str();
}

/// The concurrent feed's publish cadence in `dist --serve`: node clocks are
/// not comparable, so it publishes every this many applied changes.
constexpr std::size_t kClusterPublishEvery = 64;

/// What a run's flags ask it to record and to watch: the metrics registry
/// and trace, the --monitor set and the --serve plane, the last two on one
/// tuple-event hook. report() writes and prints it all after the run.
class Observers {
 public:
  Observers(const Args& args, const ndlog::Program& program, bool concurrent)
      : want_metrics_(args.has("--metrics")),
        trace_path_(args.value("--trace")),
        metrics_out_(args.value("--metrics-out")) {
    const std::string monitor = args.value("--monitor");
    if (!monitor.empty()) monitors_.emplace(load_ltl_spec(monitor, program));
    const std::string spec = args.value("--serve");
    if (!spec.empty()) {
      plane_.emplace(parse_serve_spec(spec, program), serve::ServePlane::Options{metrics()});
      if (concurrent) {
        feed_.emplace(*plane_, kClusterPublishEvery);
      } else {
        feed_.emplace(*plane_);  // publishes at delta-round boundaries
      }
    }
  }
  Observers(const Observers&) = delete;
  Observers& operator=(const Observers&) = delete;

  obs::Registry* metrics() {
    return want_metrics_ || !metrics_out_.empty() ? &registry_ : nullptr;
  }
  obs::Trace* trace() { return trace_path_.empty() ? nullptr : &trace_; }
  serve::ServePlane* plane() { return plane_ ? &*plane_ : nullptr; }

  /// The monitors, then the feed, on every tuple event; empty when neither
  /// is asked for. The cluster's node threads call it concurrently, so the
  /// monitors step under a lock, in the order the calls serialize.
  runtime::TupleEventHook hook() {
    runtime::TupleEventHook serve_hook = feed_ ? feed_->hook() : nullptr;
    if (!monitors_) return serve_hook;
    return [this, serve_hook](std::string_view kind, const std::string& node,
                              const ndlog::Tuple& tuple, double now) {
      {
        const std::lock_guard<std::mutex> lock(monitors_mu_);
        monitors_->on_event(ltl::event_kind(kind), tuple);
      }
      if (serve_hook) serve_hook(kind, node, tuple, now);
    };
  }

  /// After the run: publish the fixpoint snapshot.
  void settle() {
    if (feed_) feed_->finish();
  }

  /// After the command's own output: the serve summary, --trace,
  /// --metrics-out, the --metrics summary and the monitor verdicts. Returns
  /// the exit code: 1 when the run failed or a monitor fired.
  int report(bool ok) {
    if (plane_) {
      const auto s = plane_->stats();
      std::cerr << "serve: routes=" << s.routes << " epochs=" << s.epochs_published
                << " applied=" << s.applied << " reclaimed=" << s.snapshots_reclaimed
                << " retired_live=" << s.retired_live << " publish_p99_us=" << s.publish_p99_us
                << "\n";
      plane_->flush_metrics();
    }
    if (!trace_path_.empty()) trace_.write(trace_path_);
    if (!metrics_out_.empty()) obs::write_file(metrics_out_, registry_.to_json() + "\n");
    if (want_metrics_) {
      std::cerr << registry_.render_summary();
      print_layer_split(registry_);
    }
    if (monitors_) {
      std::cout << ltl::render_verdicts(monitors_->finish());
      ok = ok && monitors_->all_satisfied();
    }
    return ok ? 0 : 1;
  }

 private:
  bool want_metrics_;
  std::string trace_path_;
  std::string metrics_out_;
  obs::Registry registry_;
  obs::Trace trace_;
  std::mutex monitors_mu_;
  std::optional<ltl::MonitorSet> monitors_;  // guarded by monitors_mu_
  std::optional<serve::ServePlane> plane_;
  std::optional<serve::Feed> feed_;
};

/// Each node's table, as simulate and dist print it.
template <typename Runtime>
void print_tables(const Runtime& runtime) {
  for (const auto& node : runtime.nodes()) {
    std::cout << "--- " << node << " ---\n";
    for (const auto& row : runtime.database(node).dump()) std::cout << row << "\n";
  }
}

/// Centralized evaluation.
int cmd_run(const Args& args) {
  const auto program = load_program(args.positional[0]);
  const auto facts = load_facts(args.positional[1]);
  Observers observers(args, program, /*concurrent=*/false);
  ndlog::EvalOptions options;
  options.metrics = observers.metrics();
  options.trace = observers.trace();
  const auto result = ndlog::Evaluator().run(program, facts, options);
  for (const auto& row : result.database.dump()) std::cout << row << "\n";
  std::cerr << "derived " << result.stats.tuples_derived << " tuples in "
            << result.stats.iterations << " rounds\n";
  return observers.report(true);
}

/// serve --readers: this many reader threads at most.
constexpr std::uint64_t kMaxReaders = 64;

/// serve --readers n: n reader threads do wait-free lookups (verifying
/// snapshot checksums) while this thread retracts and reinstalls `routes`
/// and publishes epoch snapshots. Returns false if a reader saw a torn
/// snapshot, or there is nothing to churn.
bool run_serve_churn(serve::ServePlane& plane,
                     const std::vector<std::pair<std::string, ndlog::Tuple>>& routes,
                     std::uint64_t readers, double seconds) {
  if (routes.empty()) {
    std::cerr << "error: no routes at fixpoint — nothing to churn\n";
    return false;
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
  const auto deadline = start + std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                                    std::chrono::duration<double>(seconds));
  std::size_t i = 0;
  std::uint64_t churn_ops = 0;
  while (std::chrono::steady_clock::now() < deadline && !stop.load(std::memory_order_relaxed)) {
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
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  const auto s = plane.stats();
  std::cout << "churn: readers=" << readers << " seconds=" << elapsed << " lookups=" << s.lookups
            << " lookups_per_sec="
            << static_cast<std::uint64_t>(static_cast<double>(s.lookups) /
                                          (elapsed > 0 ? elapsed : 1.0))
            << " churn_ops=" << churn_ops << " epochs=" << s.epochs_published
            << (torn.load() ? " TORN" : " consistent") << "\n";
  if (torn.load()) {
    std::cerr << "error: a reader observed a torn snapshot\n";
    return false;
  }
  return true;
}

/// serve, after the run: answer "<node> <dst>" lookups from `queries` (a
/// file, or stdin when empty), one answer per line; or, with `readers`
/// threads, churn the served rows of the final tables for `seconds`. False
/// when the churn failed.
bool serve_phase(serve::ServePlane& plane, const runtime::Simulator& sim,
                 const std::string& queries, std::uint64_t readers, double seconds) {
  if (readers != 0) {
    std::vector<std::pair<std::string, ndlog::Tuple>> routes;
    for (const auto& node : sim.nodes()) {
      for (const auto& tuple : sim.database(node).relation(plane.spec().predicate)) {
        routes.emplace_back(node, tuple);
      }
    }
    return run_serve_churn(plane, routes, readers, seconds);
  }
  std::ifstream query_file;
  std::istream* in = &std::cin;
  if (!queries.empty()) {
    query_file.open(queries);
    if (!query_file) throw UsageError("cannot read " + queries);
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
  return true;
}

/// simulate, dist and serve: one run of the program on the discrete-event
/// simulator, or for dist on the fvn::net cluster (one thread per node,
/// frames on a real transport), watched by the observers the flags ask for.
/// simulate and dist print each node's table; serve serves it.
int cmd_execute(const Args& args) {
  const std::string_view command = args.command->name;
  const bool dist = command == "dist";
  const std::string transport = args.value("--transport", "inproc");
  if (transport != "inproc" && transport != "udp") {
    throw UsageError("unknown transport '" + transport + "' (expected inproc or udp)");
  }
  const double loss = args.number("--loss", 0.0);
  if (loss < 0.0 || loss >= 1.0) throw UsageError("--loss must be in [0,1)");
  const std::uint64_t seed = args.number<std::uint64_t>("--seed", 1);
  const std::size_t expected_nodes = args.number<std::size_t>("--nodes", 0);
  const std::uint64_t readers = args.number<std::uint64_t>("--readers", 0);
  if (args.has("--readers") && (readers == 0 || readers > kMaxReaders)) {
    throw UsageError("--readers must be in [1," + std::to_string(kMaxReaders) + "]");
  }
  if (args.has("--churn-seconds") && !args.has("--readers")) {
    throw UsageError("--churn-seconds needs --readers");
  }
  if (args.has("--queries") && args.has("--readers")) {
    throw UsageError("--queries does not apply with --readers");
  }
  const double churn_seconds = args.number("--churn-seconds", 1.0);
  if (churn_seconds <= 0.0 || churn_seconds > 60.0) {
    throw UsageError("--churn-seconds must be in (0,60]");
  }
  if (command == "serve" && args.value("--serve").empty()) {
    throw UsageError("serve needs --serve <pred[:cols]>");
  }

  const auto program = load_program(args.positional[0]);
  const auto facts = load_facts(args.positional[1]);
  Observers observers(args, program, /*concurrent=*/dist);
  bool ok = false;
  if (dist) {
    net::ClusterOptions options;
    options.cost_order = args.has("--cost-order");
    options.transport = transport == "udp" ? net::TransportKind::Udp : net::TransportKind::InProc;
    options.faults.drop_rate = loss;
    options.faults.seed = seed;
    options.metrics = observers.metrics();
    options.trace = observers.trace();
    options.tuple_events = observers.hook();
    net::Cluster cluster(program, options);
    cluster.inject_all(facts);
    const std::size_t nodes = cluster.nodes().size();
    if (args.has("--nodes") && nodes != expected_nodes) {
      throw std::runtime_error("facts span " + std::to_string(nodes) + " nodes, --nodes=" +
                               std::to_string(expected_nodes) + " expected");
    }
    const auto stats = cluster.run();
    observers.settle();
    print_tables(cluster);
    std::cerr << "nodes=" << stats.nodes << " sent=" << stats.messages_sent
              << " received=" << stats.messages_received
              << " retransmitted=" << stats.retransmitted << " acked=" << stats.acked
              << " bytes=" << stats.transport.bytes_sent << " wall_ms=" << stats.wall_ms
              << (stats.quiesced ? "" : " (no quiescence before budget)") << "\n";
    ok = stats.quiesced;
  } else {
    runtime::SimOptions options;
    options.cost_order = args.has("--cost-order");
    options.metrics = observers.metrics();
    options.obs_trace = observers.trace();
    options.tuple_events = observers.hook();
    runtime::Simulator sim(program, options);
    sim.inject_all(facts);
    const auto stats = sim.run();
    observers.settle();
    ok = stats.quiesced;
    if (command == "serve") {
      ok = serve_phase(*observers.plane(), sim, args.value("--queries"), readers, churn_seconds) &&
           ok;
    } else {
      print_tables(sim);
      std::cerr << "events=" << stats.events_processed << " messages=" << stats.messages_sent
                << " converged_at=" << stats.last_change_time << "s"
                << (stats.quiesced ? "" : " (budget exhausted)") << "\n";
    }
  }
  // A run that never quiesced is a runtime failure (1), as is a fired monitor.
  return observers.report(ok);
}

// --- the table ----------------------------------------------------------------

const std::vector<Command>& commands() {
  const Flag metrics{"--metrics", "", "print the metrics summary to stderr"};
  const Flag metrics_out{"--metrics-out", "<path>", "write the metrics registry as JSON"};
  const Flag trace{"--trace", "<out.json>", "write a Chrome trace_event file"};
  const Flag cost_order{"--cost-order", "", "compile the rule strands with cost-guided join order"};
  const Flag monitor{"--monitor", "<spec.ltl>",
                     "run each property as an online monitor; a violation exits 1"};
  const Flag serve_plane{"--serve", "<pred[:cols]>",
                         "attach the fvn::serve plane and report routes, epochs, publish p99"};
  static const std::vector<Command> table = {
      {"check", "", "<prog.ndlog>", 1, 1, "strata of the checked program", {}, cmd_check},
      {"lint", "", "<prog.ndlog>...", 1, kAnyNumber,
       "all diagnostics ND0001..; exit 0 clean, 1 warnings, 2 errors",
       {{"--json", "", "machine-readable output"}}, cmd_lint},
      {"analyze", "", "<prog.ndlog>...", 1, kAnyNumber,
       "semantic passes ND0014..ND0018 (divergence, CALM); exit as lint",
       {{"--json", "", "machine-readable output"},
        {"--dot", "", "the dependency graph with strata and SCCs (one file)"},
        {"--metrics", "", "print the per-pass counters to stderr"},
        {"--cost", "", "add the ND0019..ND0021 cost model (with --dot: annotated graph)"}},
       cmd_analyze},
      {"translate", "", "<prog.ndlog>", 1, 1, "PVS-style theory (arc 4)", {}, cmd_translate},
      {"linear", "", "<prog.ndlog>", 1, 1, "linear-logic view (§4.2)", {}, cmd_linear},
      {"run", "eval", "<prog.ndlog> <facts.txt>", 2, 2, "centralized evaluation",
       {metrics, metrics_out, trace}, cmd_run},
      {"query", "", "<prog.ndlog> <facts.txt> <goal>", 3, 3,
       "answers of a goal, from the rules it needs", {}, cmd_query},
      {"simulate", "sim", "<prog.ndlog> <facts.txt>", 2, 2,
       "distributed execution on the discrete-event simulator",
       {metrics, metrics_out, trace, cost_order, monitor, serve_plane}, cmd_execute},
      {"dist", "", "<prog.ndlog> <facts.txt>", 2, 2,
       "distributed execution on concurrent node threads (fvn::net)",
       {metrics, metrics_out, trace, cost_order, monitor, serve_plane,
        {"--nodes", "<n>", "assert the fact-derived node count"},
        {"--transport", "<inproc|udp>", "mailboxes (default) or loopback UDP sockets"},
        {"--loss", "<p>", "seeded per-frame drop rate in [0,1), masked by retransmit"},
        {"--seed", "<s>", "seed of the drops (default 1)"}},
       cmd_execute},
      {"plan", "", "<prog.ndlog>", 1, 1, "localize and compile to dataflow strands",
       {{"--dot", "", "Graphviz DOT"}, {"--json", "", "JSON"}, cost_order}, cmd_plan},
      {"explain", "", "<prog.ndlog> <facts.txt> <fact>", 3, 3, "derivation tree of a fact", {},
       cmd_explain},
      {"verify", "", "<prog.ndlog> <facts.txt>", 2, 2,
       "LTL model checking over every interleaving; exit 1 violated, 2 refused",
       {{"--ltl", "<spec.ltl>", "the properties to check (required)"},
        {"--max-states", "<n>", "product-state budget (default 200000)"},
        {"--trace", "<out.json>", "render the first counterexample lasso as a Chrome trace"}},
       cmd_verify},
      {"serve", "", "<prog.ndlog> <facts.txt>", 2, 2,
       "sim --serve, then answer '<node> <dst>' lookups from stdin",
       {{"--serve", "<pred[:cols]>", "the predicate to serve, as sim takes it (required)"},
        {"--queries", "<file>", "read the lookups from a file"},
        {"--readers", "<n>",
         "instead of lookups, churn the served routes under n (1..64) reader threads"},
        {"--churn-seconds", "<s>", "how long --readers churns (default 1.0)"},
        metrics, metrics_out, trace},
       cmd_execute},
  };
  return table;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string typed = argc > 1 ? argv[1] : "";
  const auto command = std::find_if(commands().begin(), commands().end(), [&](const Command& c) {
    return !typed.empty() && (c.name == typed || c.alias == typed);
  });
  if (command == commands().end()) return usage();
  try {
    const Args args = parse_args(*command, typed, {argv + 2, argv + argc});
    if (args.positional.size() < command->min_args) return usage();
    require_writable(args.value("--trace"));
    require_writable(args.value("--metrics-out"));
    return command->run(args);
  } catch (const UsageError& e) {
    // Usage errors and malformed input exit 2, as lint and analyze do;
    // runtime failures (divergence, budget exhaustion, transport errors) 1.
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
