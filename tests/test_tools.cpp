// Tests for the tooling layer: PVS emission (golden-checked against the
// paper's §3.1 listing shape), the §4.2 linear-logic view, the goal-directed
// query engine, and the `fvn_cli lint` subcommand (exit codes, --json shape).
#include <gtest/gtest.h>

#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <tuple>

#include "core/protocols.hpp"
#include "logic/pvs_emit.hpp"
#include "ndlog/cost.hpp"
#include "ndlog/diagnostics.hpp"
#include "ndlog/parser.hpp"
#include "ndlog/query.hpp"
#include "obs/json.hpp"
#include "translate/linear_view.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace fvn {
namespace {

/// A temporary directory private to this test process, removed at exit. ctest
/// runs every test in its own process, several at once, and tests write
/// fixtures of the same name; a shared directory lets one test truncate a
/// file while another test's fvn_cli is reading it.
class ProcessTempDir {
 public:
  ProcessTempDir()
      : path_(std::filesystem::temp_directory_path() /
              ("fvn_test_" + std::to_string(::getpid()))) {
    std::filesystem::create_directories(path_);
  }
  ~ProcessTempDir() {
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ProcessTempDir(const ProcessTempDir&) = delete;
  ProcessTempDir& operator=(const ProcessTempDir&) = delete;
  const std::filesystem::path& path() const noexcept { return path_; }

 private:
  std::filesystem::path path_;
};

const std::filesystem::path& temp_dir() {
  static const ProcessTempDir dir;
  return dir.path();
}

TEST(PvsEmit, PathVectorTheoryMatchesPaperListingShape) {
  auto theory = translate::to_logic(core::path_vector_program());
  const std::string source = logic::to_pvs_source(theory);
  // The §3.1 listing's essential lines.
  EXPECT_NE(source.find("path(S: Node, D: Node, P: Path, C: Metric): INDUCTIVE bool"),
            std::string::npos)
      << source;
  EXPECT_NE(source.find("link(S,D,C) AND P=f_init(S,D)"), std::string::npos) << source;
  EXPECT_NE(source.find("EXISTS (C1:Metric, C2:Metric, P2:Path, Z:Node)"),
            std::string::npos)
      << source;
  EXPECT_NE(source.find("f_inPath(P2,S)=false"), std::string::npos) << source;
  // Base predicate declared uninterpreted.
  EXPECT_NE(source.find("link(x1: Node, x2: Node, x3: Metric): bool"), std::string::npos)
      << source;
  // Prelude present.
  EXPECT_NE(source.find("Node: TYPE+"), std::string::npos);
  EXPECT_NE(source.find("END path_vector"), std::string::npos);
}

TEST(PvsEmit, TheoremsEmittedAsTheoremDeclarations) {
  auto theory = translate::to_logic(core::path_vector_program());
  theory.theorems.push_back(logic::Theorem{
      "trivial", logic::Formula::truth()});
  const std::string source = logic::to_pvs_source(theory);
  EXPECT_NE(source.find("trivial: THEOREM"), std::string::npos);
}

TEST(PvsEmit, WritesFile) {
  auto theory = translate::to_logic(core::reachable_program());
  const auto path = temp_dir() / "pvs" / "reach.pvs";
  logic::write_pvs_file(theory, path);
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string first_line;
  std::getline(in, first_line);
  EXPECT_NE(first_line.find("Generated by FVN"), std::string::npos);
}

TEST(LinearView, ClassifiesResources) {
  auto program = ndlog::parse_program(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hb, 5, infinity, keys(1)).
    materialize(evt, 0, infinity, keys(1)).
    a(@X) :- link(@X,Y,C), hb(@X), evt(@X).
  )");
  std::map<std::string, translate::ResourceKind> kinds;
  for (const auto& info : translate::classify_resources(program)) {
    kinds[info.predicate] = info.kind;
  }
  EXPECT_EQ(kinds.at("link"), translate::ResourceKind::Persistent);
  EXPECT_EQ(kinds.at("hb"), translate::ResourceKind::Linear);
  EXPECT_EQ(kinds.at("evt"), translate::ResourceKind::Event);
  EXPECT_EQ(kinds.at("periodic"), translate::ResourceKind::Event);
}

TEST(LinearView, RendersTransitions) {
  auto program = ndlog::parse_program(R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hb, 5, infinity, keys(1)).
    a1 alive(@X) :- hb(@X), link(@X,Y,C), C > 0.
  )");
  auto rules = translate::linear_view(program);
  ASSERT_EQ(rules.size(), 1u);
  const auto& r = rules[0];
  EXPECT_EQ(r.consumed, (std::vector<std::string>{"hb(@X)"}));
  EXPECT_EQ(r.persistent, (std::vector<std::string>{"link(@X,Y,C)"}));
  EXPECT_EQ(r.produced, "alive(@X)");
  ASSERT_EQ(r.guards.size(), 1u);
  const std::string text = r.to_string();
  EXPECT_NE(text.find("!link(@X,Y,C)"), std::string::npos) << text;
  EXPECT_NE(text.find("-o alive(@X)"), std::string::npos) << text;
}

TEST(LinearView, NegationBecomesGuard) {
  auto program = ndlog::parse_program("a(@X) :- b(@X,Y), !c(@X,Y).");
  auto rules = translate::linear_view(program);
  ASSERT_EQ(rules[0].guards.size(), 1u);
  EXPECT_EQ(rules[0].guards[0], "not c(@X,Y)");
}

TEST(LinearView, WholeProtocolRenders) {
  const std::string text =
      translate::render_linear_view(core::path_vector_program());
  EXPECT_NE(text.find("r2:"), std::string::npos) << text;
  EXPECT_NE(text.find("!link(@S,Z,C1)"), std::string::npos) << text;
}

// ---------------------------------------------------------------------------
// Query engine
// ---------------------------------------------------------------------------

TEST(Query, RelevanceRestrictsRules) {
  auto program = core::path_vector_program();
  // Querying `path` does not need r3/r4.
  auto restricted = ndlog::restrict_to_goal(program, "path");
  EXPECT_EQ(restricted.rules.size(), 2u);
  auto all = ndlog::restrict_to_goal(program, "bestPath");
  EXPECT_EQ(all.rules.size(), 4u);
}

TEST(Query, ConstantsFilterAnswers) {
  auto facts = core::link_facts(core::line_topology(4));
  auto result = ndlog::query(core::path_vector_program(), "bestPath(@n0, n3, P, C)", facts);
  ASSERT_EQ(result.answers.size(), 1u);
  EXPECT_EQ(result.answers.begin()->at(3).as_int(), 3);
  // The variable bindings expose P and C.
  ASSERT_EQ(result.bindings.size(), 1u);
  EXPECT_EQ(result.bindings[0].at("C").as_int(), 3);
  EXPECT_EQ(result.bindings[0].at("P").as_list().size(), 4u);
}

TEST(Query, AllVariablePatternReturnsWholeRelation) {
  auto facts = core::link_facts(core::line_topology(3));
  auto result = ndlog::query(core::path_vector_program(), "bestPathCost(@S, D, C)", facts);
  EXPECT_EQ(result.answers.size(), 6u);  // all ordered pairs on a 3-line
}

TEST(Query, RepeatedVariablesEnforceEquality) {
  // reachable(@X, X): out-and-back self-reachability only.
  auto facts = core::link_facts(core::line_topology(3));
  auto result = ndlog::query(core::reachable_program(), "reachable(@X, X)", facts);
  EXPECT_EQ(result.answers.size(), 3u);
}

TEST(Query, RestrictionDoesLessWorkThanFullEvaluation) {
  auto program = core::path_vector_program();
  auto facts = core::link_facts(core::random_topology(8, 5, 4));
  auto restricted = ndlog::query(program, "path(@n0, D, P, C)", facts);
  ndlog::Evaluator eval;
  auto full = eval.run(program, facts);
  EXPECT_LT(restricted.stats.rule_firings, full.stats.rule_firings);
  EXPECT_EQ(restricted.rules_relevant, 2u);
}

TEST(Query, UnknownGoalPredicateYieldsNoAnswers) {
  auto facts = core::link_facts(core::line_topology(3));
  auto result = ndlog::query(core::reachable_program(), "nonexistent(@X)", facts);
  EXPECT_TRUE(result.answers.empty());
}

/// The ParseError that querying `goal` raises, or nullopt.
std::optional<ndlog::ParseError> goal_error(const std::string& goal) {
  try {
    ndlog::query(core::path_vector_program(), goal, core::link_facts(core::line_topology(3)));
  } catch (const ndlog::ParseError& e) {
    return e;
  }
  return std::nullopt;
}

TEST(Query, GoalIsOneAtomAndNothingAfterIt) {
  // A filter or a rule after the atom is not silently dropped.
  for (const auto& [goal, column, message] :
       std::vector<std::tuple<std::string, int, std::string>>{
           {"bestPath(@n0,D,P,C), C > 5", 20, "expected end of input, found ','"},
           {"bestPath(@n0,D,P,C). x(@a) :- y(@a).", 22, "expected end of input, found 'x'"},
           {"C > 5", 1, "expected predicate name, found 'C'"}}) {
    const auto e = goal_error(goal);
    ASSERT_TRUE(e.has_value()) << goal;
    EXPECT_EQ(e->line(), 1) << goal;
    EXPECT_EQ(e->column(), column) << goal;
    EXPECT_EQ(std::string(e->what()), message) << goal;
  }
  EXPECT_FALSE(goal_error("bestPath(@n0,D,P,C).").has_value());
}

TEST(Query, GoalErrorIsLocatedInTheGoal) {
  const auto e = goal_error("path(@S,D,P,C");
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(e->line(), 1);
  EXPECT_EQ(e->column(), 14);
  EXPECT_EQ(std::string(e->what()), "expected ')', found ''");
}

// ---------------------------------------------------------------------------
// fvn_cli lint (subprocess: exit codes and --json shape)
// ---------------------------------------------------------------------------

#ifdef FVN_CLI_PATH

struct CliResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

CliResult run_cli(const std::string& args) {
  const std::string cmd = std::string(FVN_CLI_PATH) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << cmd;
  CliResult result;
  char buf[512];
  while (pipe != nullptr && fgets(buf, sizeof(buf), pipe) != nullptr) result.output += buf;
  const int status = pipe != nullptr ? pclose(pipe) : -1;
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

std::string write_temp_program(const std::string& name, const std::string& source) {
  const auto path = temp_dir() / name;
  std::ofstream(path) << source;
  return path.string();
}

TEST(CliLint, CleanProgramExitsZero) {
  const auto path = write_temp_program("clean.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "materialize(reach, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto result = run_cli("lint " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("lint: 0 errors, 0 warnings"), std::string::npos)
      << result.output;
}

TEST(CliLint, WarningsExitOne) {
  const auto path = write_temp_program("warn.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "materialize(r, infinity, infinity, keys(1,2)).\n"
                                       "r1 r(@S,D) :- link(@S,D,C).\n");
  const auto result = run_cli("lint " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("ND0009"), std::string::npos) << result.output;
}

TEST(CliLint, BrokenProgramReportsMultipleLocatedDiagnosticsAndExitsTwo) {
  // Three distinct defects on three lines: all must be reported in one run,
  // each with its file:line:column prefix.
  const auto path = write_temp_program(
      "broken.ndlog",
      "materialize(b, infinity, infinity, keys(1)).\n"
      "r1 a(@X,Y) :- b(@X).\n"
      "r2 c(@X) :- b(@X,_Z), Y=f_nosuch(X).\n");
  const auto result = run_cli("lint " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("ND0002"), std::string::npos) << result.output;  // arity
  EXPECT_NE(result.output.find("ND0003"), std::string::npos) << result.output;  // unbound
  EXPECT_NE(result.output.find("ND0004"), std::string::npos) << result.output;  // f_nosuch
  EXPECT_NE(result.output.find(".ndlog:2:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find(".ndlog:3:"), std::string::npos) << result.output;
}

TEST(CliLint, SyntaxErrorBecomesND0001) {
  const auto path = write_temp_program("syntax.ndlog", "r1 a(@X :- b(@X).\n");
  const auto result = run_cli("lint " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("ND0001"), std::string::npos) << result.output;
}

TEST(CliLint, SyntaxErrorIsLocatedOnce) {
  // ND0001 takes its position from the diagnostic's span: the message is
  // the parser's alone, in lint and analyze, human and JSON.
  const auto path = write_temp_program("syntax_once.ndlog", "r1 a(@X :- b(@X).\n");
  for (const std::string cmd : {"lint", "analyze"}) {
    const auto result = run_cli(cmd + " " + path);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_EQ(result.output, path + ":1:9: error: ND0001: expected ')', found ':-'\n" + cmd +
                                 ": 1 errors, 0 warnings\n");
    const auto json = run_cli(cmd + " --json " + path);
    EXPECT_EQ(json.exit_code, 2) << json.output;
    EXPECT_NE(json.output.find("\"message\":\"expected ')', found ':-'\",\"line\":1,"
                               "\"column\":9"),
              std::string::npos)
        << json.output;
  }
}

TEST(CliLint, JsonOutputCarriesShapeAndCounts) {
  const auto path = write_temp_program(
      "json.ndlog",
      "materialize(b, infinity, infinity, keys(1)).\n"
      "r1 a(@X,Y) :- b(@X).\n");
  const auto result = run_cli("lint --json " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_EQ(result.output.front(), '{') << result.output;
  EXPECT_NE(result.output.find("\"files\":["), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"diagnostics\":["), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"severity\":\"error\""), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"code\":\"ND0003\""), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"line\":2"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("\"errors\":"), std::string::npos) << result.output;
  // Balanced braces/brackets — cheap structural sanity for the JSON document.
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (const char c : result.output) {
    if (escaped) {
      escaped = false;
    } else if (c == '\\') {
      escaped = in_string;
    } else if (c == '"') {
      in_string = !in_string;
    } else if (!in_string && (c == '{' || c == '[')) {
      ++depth;
    } else if (!in_string && (c == '}' || c == ']')) {
      --depth;
    }
  }
  EXPECT_EQ(depth, 0) << result.output;
}

TEST(CliObs, EvalTraceFlagWritesParsableChromeTrace) {
  const auto prog = write_temp_program("obs_reach.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "materialize(reach, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n"
                                       "t2 reach(@S,D) :- link(@S,Z,_C), reach(@Z,D).\n");
  const auto facts = write_temp_program("obs_facts.txt",
                                        "link(@n0,n1,1)\nlink(@n1,n2,1)\n");
  const auto trace_path = (temp_dir() / "eval_trace.json").string();
  const auto result =
      run_cli("eval " + prog + " " + facts + " --metrics --trace " + trace_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // --metrics prints the per-rule series summary (stderr, merged by run_cli).
  EXPECT_NE(result.output.find("eval/rule/t2/firings"), std::string::npos)
      << result.output;

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream os;
  os << in.rdbuf();
  auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  EXPECT_GT(events->array.size(), 0u);
  // Per-rule and per-stratum spans are present in the trace.
  bool saw_rule_span = false, saw_stratum_span = false;
  for (const auto& event : events->array) {
    const obs::JsonValue* cat = event.find("cat");
    if (cat == nullptr) continue;
    saw_rule_span |= cat->string == "eval/rule";
    saw_stratum_span |= cat->string == "eval/stratum";
  }
  EXPECT_TRUE(saw_rule_span);
  EXPECT_TRUE(saw_stratum_span);
}

TEST(CliObs, SimAliasWritesVirtualTimeTrace) {
  const auto prog = write_temp_program("obs_reach.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "materialize(reach, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n"
                                       "t2 reach(@S,D) :- link(@S,Z,_C), reach(@Z,D).\n");
  const auto facts = write_temp_program("obs_facts.txt",
                                        "link(@n0,n1,1)\nlink(@n1,n2,1)\n");
  const auto trace_path = (temp_dir() / "sim_trace.json").string();
  const auto result =
      run_cli("sim " + prog + " " + facts + " --metrics --trace=" + trace_path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("sim/node/n0/sent"), std::string::npos) << result.output;

  std::ifstream in(trace_path);
  ASSERT_TRUE(in.good()) << trace_path;
  std::ostringstream os;
  os << in.rdbuf();
  auto doc = obs::json_parse(os.str());
  ASSERT_TRUE(doc.has_value()) << os.str();
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  EXPECT_GT(events->array.size(), 0u);
}

// ---------------------------------------------------------------------------
// Output-path validation: --trace / --metrics-out to an unwritable location
// must be a usage error (exit 2 + "cannot write"), not a silent success.
// ---------------------------------------------------------------------------

constexpr const char* kUnwritable = "/nonexistent-dir/out.json";

TEST(CliOutputPaths, EvalUnwritableTraceExitsTwo) {
  const auto prog = write_temp_program("wp_reach.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("wp_facts.txt", "link(@n0,n1,1)\n");
  const auto result =
      run_cli("eval " + prog + " " + facts + " --trace " + kUnwritable);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot write"), std::string::npos)
      << result.output;
}

TEST(CliOutputPaths, SimUnwritableMetricsOutExitsTwo) {
  const auto prog = write_temp_program("wp_reach.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("wp_facts.txt", "link(@n0,n1,1)\n");
  const auto result = run_cli("sim " + prog + " " + facts +
                              " --metrics-out=" + kUnwritable);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot write"), std::string::npos)
      << result.output;
}

TEST(CliOutputPaths, DistUnwritableTraceExitsTwo) {
  const auto prog = write_temp_program("wp_reach.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("wp_facts.txt", "link(@n0,n1,1)\n");
  const auto result =
      run_cli("dist " + prog + " " + facts + " --trace " + kUnwritable);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot write"), std::string::npos)
      << result.output;
}

// ---------------------------------------------------------------------------
// serve subcommand: fixpoint queries, spec validation, churn smoke.
// ---------------------------------------------------------------------------

namespace {

std::string serve_fixture_program() {
  return write_temp_program("serve_pv.ndlog",
                            "materialize(link, infinity, infinity, keys(1,2)).\n"
                            "materialize(path, infinity, infinity, keys(1,2,3)).\n"
                            "materialize(bestPath, infinity, infinity, keys(1,2)).\n"
                            "materialize(bestPathCost, infinity, infinity, keys(1,2)).\n"
                            "r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).\n"
                            "r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),"
                            " C=C1+C2, P=f_concatPath(S,P2), f_inPath(P2,S)=false.\n"
                            "r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).\n"
                            "r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C),"
                            " path(@S,D,P,C).\n");
}

std::string serve_fixture_facts() {
  return write_temp_program("serve_pv_facts.txt",
                            "link(@n0,n1,1)\nlink(@n1,n0,1)\n"
                            "link(@n1,n2,1)\nlink(@n2,n1,1)\n"
                            "link(@n2,n3,1)\nlink(@n3,n2,1)\n");
}

}  // namespace

TEST(CliServe, AnswersQueriesFromTheFixpoint) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto queries = write_temp_program("serve_queries.txt",
                                          "n0 n3\n"
                                          "n0 nowhere\n");
  const auto result =
      run_cli("serve " + prog + " " + facts +
              " --serve bestPath:dst,nexthop,cost --queries " + queries);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  // n0 -> n3 along the line: cost 3.
  EXPECT_NE(result.output.find("n3 epoch="), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("cost=3"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("no-route"), std::string::npos) << result.output;
  // The stderr summary reports the served plane's vitals.
  EXPECT_NE(result.output.find("serve: routes="), std::string::npos)
      << result.output;
}

TEST(CliServe, UnknownPredicateIsAUsageError) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto result =
      run_cli("serve " + prog + " " + facts + " --serve nosuch");
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliServe, MissingServePredIsAUsageError) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto result = run_cli("serve " + prog + " " + facts);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliServe, UnwritableMetricsOutExitsTwo) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto result =
      run_cli("serve " + prog + " " + facts +
              " --serve bestPath --metrics-out " + kUnwritable);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("cannot write"), std::string::npos)
      << result.output;
}

TEST(CliServe, ChurnModeReportsConsistentLookups) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto result =
      run_cli("serve " + prog + " " + facts +
              " --serve bestPath:dst,nexthop,cost --readers 2 --churn-seconds 0.2");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("churn: readers=2"), std::string::npos)
      << result.output;
  EXPECT_NE(result.output.find("consistent"), std::string::npos)
      << result.output;
  EXPECT_EQ(result.output.find("TORN"), std::string::npos) << result.output;
}

TEST(CliServe, ChurnFlagsThatWouldDoNothingAreUsageErrors) {
  // --readers n (1..64) selects the churn phase, and its flags go with it.
  // The checks come before any input is read, so before any thread starts.
  const auto queries = write_temp_program("serve_rq.txt", "n0 n3\n");
  const std::string base =
      "serve /nonexistent/serve.ndlog /nonexistent/serve_facts.txt --serve bestPath ";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"--readers 65", "--readers must be in [1,64]"},
      {"--readers 1000000", "--readers must be in [1,64]"},
      {"--readers 0", "--readers must be in [1,64]"},
      {"--churn-seconds 0.1", "--churn-seconds needs --readers"},
      {"--readers 1 --queries " + queries, "--queries does not apply with --readers"},
      {"--readers 1 --churn", "unknown flag --churn"},
      {"--serve-pred bestPath", "unknown flag --serve-pred"},
      {"--serve-cols dst,nexthop,cost", "unknown flag --serve-cols"},
  };
  for (const auto& [flags, message] : cases) {
    const auto result = run_cli(base + flags);
    EXPECT_EQ(result.exit_code, 2) << flags << ": " << result.output;
    EXPECT_NE(result.output.find("error: " + message), std::string::npos)
        << flags << ": " << result.output;
    EXPECT_EQ(result.output.find("cannot read"), std::string::npos) << result.output;
  }
}

TEST(CliServe, SimServeFlagReportsTheSummary) {
  const auto prog = serve_fixture_program();
  const auto facts = serve_fixture_facts();
  const auto result = run_cli("sim " + prog + " " + facts +
                              " --serve bestPath:dst,nexthop,cost");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("serve: routes="), std::string::npos)
      << result.output;
}

TEST(CliLint, ShippedExamplesLintCleanAtErrorSeverity) {
  const std::filesystem::path dir = std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  std::size_t checked = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".ndlog") continue;
    ++checked;
    const auto result = run_cli("lint " + entry.path().string());
    EXPECT_NE(result.exit_code, 2) << entry.path() << "\n" << result.output;
    EXPECT_NE(result.output.find(" 0 errors"), std::string::npos)
        << entry.path() << "\n" << result.output;
  }
  EXPECT_GE(checked, 6u);
}

TEST(CliAnalyze, CleanProgramExitsZero) {
  const auto path = write_temp_program(
      "an_clean.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n"
      "t2 reach(@S,D) :- link(@S,Z,_C), reach(@Z,D).\n");
  const auto result = run_cli("analyze " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("analyze: 0 errors, 0 warnings"),
            std::string::npos)
      << result.output;
}

TEST(CliAnalyze, DivergentProgramWarnsAndExitsOne) {
  const auto path = write_temp_program(
      "an_diverge.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(hop, infinity, infinity, keys(1,2)).\n"
      "h1 hop(@S,D,C) :- link(@S,D,C).\n"
      "h2 hop(@S,D,C) :- link(@S,Z,C1), hop(@Z,D,C2), C = C1 + C2.\n");
  const auto result = run_cli("analyze " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("ND0015"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find(".ndlog:4:"), std::string::npos)
      << result.output;  // located at h2
}

TEST(CliAnalyze, SyntaxErrorExitsTwo) {
  const auto path = write_temp_program("an_syntax.ndlog", "h1 hop(@S :- x.\n");
  const auto result = run_cli("analyze " + path);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("ND0001"), std::string::npos) << result.output;
}

TEST(CliAnalyze, JsonOutputIsParsableAndCarriesSummary) {
  const auto path = write_temp_program(
      "an_json.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(hop, infinity, infinity, keys(1,2)).\n"
      "h1 hop(@S,D,C) :- link(@S,D,C).\n"
      "h2 hop(@S,D,C) :- link(@S,Z,C1), hop(@Z,D,C2), C = C1 + C2.\n");
  const auto result = run_cli("analyze --json " + path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  // The whole document must round-trip through the strict fvn::obs reader.
  auto doc = obs::json_parse(result.output);
  ASSERT_TRUE(doc.has_value()) << result.output;
  const obs::JsonValue* files = doc->find("files");
  ASSERT_NE(files, nullptr);
  ASSERT_TRUE(files->is_array());
  ASSERT_EQ(files->array.size(), 1u);
  const obs::JsonValue* summary = files->array[0].find("summary");
  ASSERT_NE(summary, nullptr) << result.output;
  const obs::JsonValue* divergent = summary->find("divergent");
  ASSERT_NE(divergent, nullptr) << result.output;
  ASSERT_TRUE(divergent->is_array());
  ASSERT_EQ(divergent->array.size(), 1u);
  EXPECT_EQ(divergent->array[0].string, "hop");
  const obs::JsonValue* diags = files->array[0].find("diagnostics");
  ASSERT_NE(diags, nullptr);
  EXPECT_TRUE(diags->is_array());
  // Determinism: a second run prints the identical document.
  EXPECT_EQ(run_cli("analyze --json " + path).output, result.output);
}

TEST(CliAnalyze, DotOutputRendersDependencyGraph) {
  const auto path = write_temp_program(
      "an_dot.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n"
      "t2 reach(@S,D) :- link(@S,Z,_C), reach(@Z,D).\n");
  const auto result = run_cli("analyze --dot " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("digraph"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("reach"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("link"), std::string::npos) << result.output;
}

// ---------------------------------------------------------------------------
// analyze --cost: golden cost reports (byte-for-byte) and CLI plumbing
// ---------------------------------------------------------------------------

std::string slurp_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

TEST(CliCost, GoldenCostReportsMatchByteForByte) {
  // The exact JSON cost report for two examples is pinned: any change to the
  // bound algebra, the symbol vocabulary, or the renderer shows up as a
  // golden diff here before it reaches downstream consumers.
  for (const std::string stem : {"path_vector", "policy_path_vector"}) {
    const auto source = slurp_file(std::string(FVN_SOURCE_DIR) +
                                   "/examples/ndlog/" + stem + ".ndlog");
    const auto golden = slurp_file(std::string(FVN_SOURCE_DIR) +
                                   "/tests/golden/cost/" + stem + ".json");
    ndlog::DiagnosticSink sink;
    const auto program = ndlog::parse_program(source, stem);
    const auto report = ndlog::cost::analyze(program, sink);
    EXPECT_EQ(ndlog::cost::to_json(report), golden) << stem;
    // The CLI embeds the identical bytes as the file object's "cost" member.
    const auto result = run_cli("analyze --cost --json " FVN_SOURCE_DIR
                                "/examples/ndlog/" +
                                stem + ".ndlog");
    EXPECT_NE(result.output.find("\"cost\":" + golden), std::string::npos)
        << stem << ": CLI cost object diverges from the library renderer";
  }
}

TEST(CliCost, HumanOutputListsBoundsAndDotRendersGraph) {
  const std::string path =
      std::string(FVN_SOURCE_DIR) + "/examples/ndlog/reachable.ndlog";
  const auto human = run_cli("analyze --cost " + path);
  EXPECT_EQ(human.exit_code, 0) << human.output;
  EXPECT_NE(human.output.find("cost report"), std::string::npos) << human.output;
  EXPECT_NE(human.output.find("derivation bounds"), std::string::npos)
      << human.output;
  const auto dot = run_cli("analyze --cost --dot " + path);
  EXPECT_EQ(dot.exit_code, 0) << dot.output;
  EXPECT_NE(dot.output.find("digraph"), std::string::npos) << dot.output;
  EXPECT_NE(dot.output.find("reachable"), std::string::npos) << dot.output;
}

TEST(CliPlan, CostOrderFlagIsAcceptedAndMarksPlan) {
  const auto path = write_temp_program(
      "plan_cost.ndlog",
      "materialize(a, infinity, infinity, keys(1,2)).\n"
      "materialize(b, infinity, infinity, keys(1,2)).\n"
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "materialize(sel, infinity, infinity, keys(1,2,3)).\n"
      "w1 sel(@S,X,Y) :- a(@S,X), b(@S,Y), c(@S,X,Y).\n");
  const auto plain = run_cli("plan --json " + path);
  EXPECT_EQ(plain.exit_code, 0) << plain.output;
  EXPECT_EQ(plain.output.find("\"cost_ordered\":true"), std::string::npos);
  const auto ordered = run_cli("plan --cost-order --json " + path);
  EXPECT_EQ(ordered.exit_code, 0) << ordered.output;
  EXPECT_NE(ordered.output.find("\"cost_ordered\":true"), std::string::npos)
      << ordered.output;
}

TEST(CliAnalyze, MetricsFlagPrintsAnalyzeCounters) {
  const auto path = write_temp_program(
      "an_metrics.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto result = run_cli("analyze --metrics " + path);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("analyze/rules"), std::string::npos)
      << result.output;
}

// ---------------------------------------------------------------------------
// Exit-code convention: 0 = success, 1 = runtime failure, 2 = usage/parse —
// uniform across lint/analyze/run/simulate/dist (pinned here so a subcommand
// cannot silently drift back to "return 1 for everything").
// ---------------------------------------------------------------------------

TEST(CliExitCodes, SimulateParseErrorExitsTwo) {
  const auto prog = write_temp_program("ec_bad.ndlog", "t1 reach(@S,D :- link\n");
  const auto facts = write_temp_program("ec_facts.txt", "link(@n0,n1,1)\n");
  const auto result = run_cli("simulate " + prog + " " + facts);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("error:"), std::string::npos) << result.output;
}

TEST(CliExitCodes, MissingFactsFileIsUsageErrorExitsTwo) {
  const auto prog = write_temp_program(
      "ec_ok.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  for (const std::string cmd : {"run", "simulate", "dist"}) {
    const auto result = run_cli(cmd + " " + prog + " /nonexistent/facts.txt");
    EXPECT_EQ(result.exit_code, 2) << cmd << ": " << result.output;
    EXPECT_NE(result.output.find("cannot read"), std::string::npos) << result.output;
  }
}

TEST(CliExitCodes, LintAndAnalyzeRejectUnknownFlags) {
  const auto prog = write_temp_program(
      "ec_flags.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  for (const std::string cmd : {"lint --bogus ", "analyze --bogus "}) {
    const auto result = run_cli(cmd + prog);
    EXPECT_EQ(result.exit_code, 2) << cmd << ": " << result.output;
    EXPECT_NE(result.output.find("unknown flag --bogus"), std::string::npos)
        << result.output;
    // A usage error analyzes nothing: no per-file report, no summary line.
    EXPECT_EQ(result.output.find("errors,"), std::string::npos) << result.output;
  }
  const auto result = run_cli("analyze --parallel " + prog);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("--parallel"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("removed"), std::string::npos) << result.output;
  EXPECT_EQ(result.output.find("errors,"), std::string::npos) << result.output;
}

TEST(CliExitCodes, PlanRejectsUnknownFlags) {
  // Before or after the program, an unknown flag is a usage error that
  // names the flag, never a file name to read or a reason to print usage.
  const auto prog = write_temp_program(
      "ec_plan.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  for (const std::string& args : {"--bogus " + prog, prog + " --bogus"}) {
    const auto result = run_cli("plan " + args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_NE(result.output.find("unknown flag --bogus"), std::string::npos)
        << result.output;
    EXPECT_EQ(result.output.find("usage:"), std::string::npos) << result.output;
  }
  EXPECT_EQ(run_cli("plan " + prog).exit_code, 0);
}

TEST(CliExitCodes, SharedCommandsRejectUnknownAndInapplicableFlags) {
  // Every command reads its flags with one parser: an unknown flag, or one
  // the command would ignore, is a usage error before any work is done,
  // never a positional argument or a no-op.
  const auto prog = write_temp_program(
      "ec_shared.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("ec_shared_facts.txt", "link(@n0,n1,1)\n");
  const auto spec = write_temp_program("ec_shared.ltl", "p1: F reach(@n0, n1).\n");
  const std::string pf = prog + " " + facts;
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"check " + prog + " --bogus", "unknown flag --bogus"},
      {"run " + pf + " --bogus", "unknown flag --bogus"},
      {"simulate " + pf + " --bogus", "unknown flag --bogus"},
      {"explain " + pf + " 'reach(@n0,n1)' --bogus", "unknown flag --bogus"},
      {"run " + pf + " --monitor " + spec, "--monitor does not apply to run"},
      {"check " + prog + " --cost-order", "--cost-order does not apply to check"},
      {"explain " + pf + " 'reach(@n0,n1)' --cost-order",
       "--cost-order does not apply to explain"},
      {"check " + prog + " --metrics", "--metrics does not apply to check"},
      {"query " + pf + " 'reach(@S,D)' --trace " + (temp_dir() / "q.json").string(),
       "--trace does not apply to query"},
      {"explain " + pf + " 'reach(@n0,n1)' --metrics-out=" +
           (temp_dir() / "m.json").string(),
       "--metrics-out does not apply to explain"},
      {"run " + pf + " --serve reach", "--serve does not apply to run"},
      {"simulate " + pf + " --trace", "--trace needs a value"},
  };
  for (const auto& [args, message] : cases) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_NE(result.output.find("error: " + message), std::string::npos)
        << args << ": " << result.output;
    EXPECT_EQ(result.output.find("cannot read"), std::string::npos) << result.output;
  }
  // The same flags where they apply.
  EXPECT_EQ(run_cli("simulate " + pf + " --cost-order --monitor " + spec).exit_code, 0);
  EXPECT_EQ(run_cli("run " + pf + " --metrics").exit_code, 0);
}

TEST(CliExitCodes, ExtraArgumentsAreUsageErrors) {
  // Each command takes a fixed number of positional arguments (lint and
  // analyze: any number of files). One more is a usage error that names it,
  // before any input is read.
  const auto spec = write_temp_program("ec_extra.ltl", "p1: F reach(@n0, n1).\n");
  const std::string prog = "/nonexistent/ec_extra.ndlog";
  const std::string pf = prog + " /nonexistent/ec_extra_facts.txt";
  for (const std::string& args :
       {"check " + prog + " junk1 junk2", "translate " + prog + " junk1",
        "linear " + prog + " junk1", "plan " + prog + " junk1", "run " + pf + " junk1",
        "eval " + pf + " junk1", "simulate " + pf + " junk1 extra", "sim " + pf + " junk1",
        "dist " + pf + " junk1", "query " + pf + " 'reach(@S,D)' junk1",
        "explain " + pf + " 'reach(@n0,n1)' junk1", "verify " + pf + " junk1 --ltl " + spec,
        "serve " + pf + " junk1 --serve reach"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_NE(result.output.find("error: unexpected argument junk1"), std::string::npos)
        << args << ": " << result.output;
    EXPECT_EQ(result.output.find("cannot read"), std::string::npos) << result.output;
  }
}

TEST(CliExitCodes, BadFactsLineIsReportedWhereItIs) {
  const auto prog = write_temp_program(
      "ec_badline.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reach, infinity, infinity, keys(1,2)).\n"
      "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program(
      "ec_badline.txt", "# a line, two facts, a blank line, a bad fact\nlink(@n0,n1,1)\n"
                        "link(@n1,n2,1)\n\nlink(@n2,n3\n");
  const auto spec = write_temp_program("ec_badline.ltl", "p1: F reach(@n0, n1).\n");
  const std::string pf = prog + " " + facts;
  for (const std::string& args : {"run " + pf, "sim " + pf, "dist " + pf,
                                  "serve " + pf + " --serve reach < /dev/null",
                                  "verify " + pf + " --ltl " + spec}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_NE(result.output.find("error: " + facts + ":5:12: expected ')'"), std::string::npos)
        << args << ": " << result.output;
  }
}

TEST(CliExitCodes, ProgramParseErrorNamesTheFileOnce) {
  // Every command that reads a program reports a syntax error as
  // <file>:<line>:<col>: <message>, the position once.
  const auto prog = write_temp_program("ec_syn.ndlog", "r1 a(@X :- b(@X).\n");
  const auto facts = write_temp_program("ec_syn_facts.txt", "b(@n0)\n");
  const auto spec = write_temp_program("ec_syn.ltl", "p1: F a(@n0).\n");
  const std::string pf = prog + " " + facts;
  for (const std::string& args :
       {"check " + prog, "translate " + prog, "linear " + prog, "plan " + prog, "run " + pf,
        "sim " + pf, "dist " + pf, "query " + pf + " 'a(@X)'", "explain " + pf + " 'a(@n0)'",
        "verify " + pf + " --ltl " + spec, "serve " + pf + " --serve a < /dev/null"}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
    EXPECT_EQ(result.output, "error: " + prog + ":1:9: expected ')', found ':-'\n") << args;
  }
}

TEST(CliExitCodes, QueryGoalIsReadWholeAndLocated) {
  const std::string pf = std::string(FVN_SOURCE_DIR) + "/examples/ndlog/path_vector.ndlog " +
                         write_temp_program("ec_goal_facts.txt",
                                            "link(@n0,n1,1)\nlink(@n1,n0,1)\n"
                                            "link(@n1,n2,1)\nlink(@n2,n1,1)\n");
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"'bestPath(@n0,D,P,C), C > 5'", "error: goal:1:20: expected end of input, found ','\n"},
      {"'path(@S,D,P,C'", "error: goal:1:14: expected ')', found ''\n"},
  };
  for (const auto& [goal, message] : cases) {
    const auto result = run_cli("query " + pf + " " + goal);
    EXPECT_EQ(result.exit_code, 2) << goal << ": " << result.output;
    EXPECT_EQ(result.output, message) << goal;
  }
  const auto answered = run_cli("query " + pf + " 'bestPath(@n0,n2,P,C)'");
  EXPECT_EQ(answered.exit_code, 0) << answered.output;
  EXPECT_NE(answered.output.find("bestPath(n0,n2,[n0,n1,n2],2)"), std::string::npos)
      << answered.output;
}

TEST(CliExitCodes, ExplainFactErrorIsLocatedInTheFact) {
  const auto prog = write_temp_program(
      "ec_explain.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("ec_explain.txt", "link(@n0,n1,1)\n");
  const auto result = run_cli("explain " + prog + " " + facts + " 'reachable(@n0,'");
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_EQ(result.output, "error: fact:1:15: expected expression, found ''\n");
}

TEST(CliExitCodes, SimulateRuntimeFailureExitsOne) {
  // Unstratifiable negation cycle: rejected by the simulator's static checks
  // at construction — a runtime failure (1), not a parse error (2).
  const auto prog = write_temp_program(
      "ec_unstrat.ndlog",
      "materialize(a, infinity, infinity, keys(1)).\n"
      "materialize(b, infinity, infinity, keys(1)).\n"
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "r1 a(@N) :- link(@N,_M,_C), !b(@N).\n"
      "r2 b(@N) :- link(@N,_M,_C), !a(@N).\n");
  const auto facts = write_temp_program("ec_facts.txt", "link(@n0,n1,1)\n");
  const auto result = run_cli("simulate " + prog + " " + facts);
  EXPECT_EQ(result.exit_code, 1) << result.output;

  // A builtin called with the wrong argument count is refused, located, when
  // each command builds the program, before any delivery: with the codes an
  // unknown function gets.
  const auto arity = write_temp_program(
      "ec_arity.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(p, infinity, infinity, keys(1,2)).\n"
      "r1 p(@S,P) :- link(@S,_D,_C), P=f_init(S).\n");
  const auto spec = write_temp_program("ec_arity.ltl", "p1: F p(@n0, n1).\n");
  const std::string pf = arity + " " + facts;
  for (const auto& [args, code] :
       {std::pair{"run " + pf, 1}, std::pair{"simulate " + pf, 1}, std::pair{"dist " + pf, 1},
        std::pair{"verify " + pf + " --ltl " + spec, 2}, std::pair{"plan " + arity, 1}}) {
    const auto refused = run_cli(args);
    EXPECT_EQ(refused.exit_code, code) << args << ": " << refused.output;
    EXPECT_NE(refused.output.find("error: rule r1: f_init takes 2 arguments, got 1 (line 3, "),
              std::string::npos)
        << args << ": " << refused.output;
  }
  for (const std::string cmd : {"lint ", "analyze "}) {
    const auto flagged = run_cli(cmd + arity);
    EXPECT_EQ(flagged.exit_code, 2) << cmd << flagged.output;
    EXPECT_NE(flagged.output.find("ND0004"), std::string::npos) << cmd << flagged.output;
  }
}

TEST(CliExitCodes, RunDivergenceExitsOne) {
  const auto prog = write_temp_program(
      "ec_diverge.ndlog",
      "materialize(c, infinity, infinity, keys(1,2)).\n"
      "d1 c(@N,Y) :- c(@N,X), Y := X + 1.\n");
  const auto facts = write_temp_program("ec_count.txt", "c(@n0,0)\n");
  const auto result = run_cli("run " + prog + " " + facts);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("error:"), std::string::npos) << result.output;
}

// ---------------------------------------------------------------------------
// fvn_cli explain — a derivation tree from the evaluator that `run` runs
// ---------------------------------------------------------------------------

TEST(CliExplain, CountDerivationAgreesWithRun) {
  // count<C> folds distinct values: three links with costs 1, 1, 2 count 2.
  const auto prog = write_temp_program(
      "explain_count.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(cnt, infinity, infinity, keys(1)).\n"
      "c1 cnt(@S,count<C>) :- link(@S,_D,C).\n");
  const auto facts = write_temp_program("explain_count.txt",
                                        "link(@a,b,1)\nlink(@a,c,1)\nlink(@a,d,2)\n");
  const auto run = run_cli("run " + prog + " " + facts);
  ASSERT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("cnt(a,2)"), std::string::npos) << run.output;

  const auto explained = run_cli("explain " + prog + " " + facts + " 'cnt(@a,2)'");
  EXPECT_EQ(explained.exit_code, 0) << explained.output;
  EXPECT_NE(explained.output.find("cnt(a,2)  [by c1]"), std::string::npos)
      << explained.output;
  EXPECT_NE(explained.output.find("[base fact]"), std::string::npos) << explained.output;

  const auto refused = run_cli("explain " + prog + " " + facts + " 'cnt(@a,3)'");
  EXPECT_EQ(refused.exit_code, 1) << refused.output;
  EXPECT_NE(refused.output.find("cnt(a,3) is not derivable"), std::string::npos)
      << refused.output;
}

// ---------------------------------------------------------------------------
// fvn_cli dist — the threaded distributed runtime (smoke; the full
// differential suite lives in test_net_cluster.cpp)
// ---------------------------------------------------------------------------

namespace {
std::pair<std::string, std::string> dist_inputs() {
  const auto prog = write_temp_program(
      "dist_reach.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C).\n"
      "t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).\n");
  const auto facts = write_temp_program(
      "dist_facts.txt",
      "link(@n0,n1,1)\nlink(@n1,n2,1)\nlink(@n2,n3,1)\nlink(@n3,n0,1)\n");
  return {prog, facts};
}
}  // namespace

TEST(CliDist, RingQuiescesAndPrintsPerNodeFixpoint) {
  const auto [prog, facts] = dist_inputs();
  const auto result = run_cli("dist " + prog + " " + facts + " --nodes=4 --seed 7");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("--- n0 ---"), std::string::npos) << result.output;
  // The ring closes transitively: n0 learns it reaches n3.
  EXPECT_NE(result.output.find("reachable(n0,n3)"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("nodes=4"), std::string::npos) << result.output;
}

TEST(CliDist, LossWithRetransmitStillExitsZero) {
  const auto [prog, facts] = dist_inputs();
  const auto result =
      run_cli("dist " + prog + " " + facts + " --loss=0.3 --seed=9");
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("reachable(n0,n3)"), std::string::npos) << result.output;
}

TEST(CliDist, BadFlagsAreUsageErrors) {
  const auto [prog, facts] = dist_inputs();
  // The cluster has one delivery path and no scan-timeout setting, so these
  // three are unknown flags like any other.
  for (const std::string bad :
       {" --transport=carrier-pigeon", " --loss=1.5", " --loss=abc", " --bogus-flag",
        " --nodes=", " --no-retransmit", " --no-batch", " --poll-ms=-5"}) {
    const auto result = run_cli("dist " + prog + " " + facts + bad);
    EXPECT_EQ(result.exit_code, 2) << bad << ": " << result.output;
  }
}

TEST(CliDist, NodeCountMismatchIsRuntimeFailure) {
  const auto [prog, facts] = dist_inputs();
  const auto result = run_cli("dist " + prog + " " + facts + " --nodes=5");
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("--nodes=5"), std::string::npos) << result.output;
}

// ---------------------------------------------------------------------------
// fvn_cli verify / --monitor — LTL model checking and runtime monitors.
// Exit codes pinned: 0 = holds/satisfied, 1 = violation, 2 = usage/parse.
// ---------------------------------------------------------------------------

namespace {
std::tuple<std::string, std::string, std::string, std::string> ltl_inputs() {
  const auto prog = write_temp_program(
      "ltl_reach.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C).\n"
      "t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).\n");
  const auto facts =
      write_temp_program("ltl_facts.txt", "link(@n0,n1,1)\nlink(@n1,n2,1)\n");
  const auto good = write_temp_program(
      "ltl_good.ltl",
      "reach: F reachable(@n0, n2).\nconverges: F G stable(reachable).\n");
  const auto bad =
      write_temp_program("ltl_bad.ltl", "never: G !reachable(@n0, n2).\n");
  return {prog, facts, good, bad};
}
}  // namespace

TEST(CliVerify, HoldsExitsZero) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto result = run_cli("verify " + prog + " " + facts + " --ltl " + good);
  EXPECT_EQ(result.exit_code, 0) << result.output;
  EXPECT_NE(result.output.find("HOLDS"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("product states"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("system states"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("local steps"), std::string::npos) << result.output;
}

TEST(CliVerify, ViolationExitsOneWithLassoCounterexample) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto result = run_cli("verify " + prog + " " + facts + " --ltl " + bad);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  EXPECT_NE(result.output.find("VIOLATED"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("stem"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("cycle"), std::string::npos) << result.output;
  // Full snapshots: the per-node tables are rendered.
  EXPECT_NE(result.output.find("node n0:"), std::string::npos) << result.output;
  EXPECT_NE(result.output.find("reachable(n0,n2)"), std::string::npos) << result.output;
}

TEST(CliVerify, TraceFlagWritesParsableCounterexampleTrace) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto trace_path = (temp_dir() / "ltl_cex.json").string();
  const auto result = run_cli("verify " + prog + " " + facts + " --ltl " + bad +
                              " --trace " + trace_path);
  EXPECT_EQ(result.exit_code, 1) << result.output;
  auto doc = obs::json_parse(slurp_file(trace_path));
  ASSERT_TRUE(doc.has_value());
  const obs::JsonValue* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  bool saw_ltl = false, saw_state = false;
  for (const auto& event : events->array) {
    const obs::JsonValue* cat = event.find("cat");
    if (cat == nullptr) continue;
    saw_ltl |= cat->string == "ltl";
    saw_state |= cat->string == "ltl-state";
  }
  EXPECT_TRUE(saw_ltl);
  EXPECT_TRUE(saw_state);
}

TEST(CliVerify, SpecParseErrorExitsTwoWithLT0001) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto broken = write_temp_program("ltl_broken.ltl", "p: F reachable(@n0\n");
  const auto result = run_cli("verify " + prog + " " + facts + " --ltl " + broken);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("LT0001"), std::string::npos) << result.output;
}

TEST(CliVerify, SpecParseErrorIsLocatedOnce) {
  // LT0001 takes its position from the span, and its message is the
  // parser's alone: no second position, no prefix.
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto broken = write_temp_program("ltl_broken_once.ltl", "p: F reachable(@n0\n");
  for (const std::string& args : {"verify " + prog + " " + facts + " --ltl " + broken,
                                  "sim " + prog + " " + facts + " --monitor " + broken}) {
    const auto result = run_cli(args);
    EXPECT_EQ(result.exit_code, 2) << result.output;
    EXPECT_EQ(result.output, broken + ":2:1: error: LT0001: expected ')'\n" +
                                 "error: cannot parse LTL spec " + broken + "\n");
  }
}

TEST(CliVerify, OutOfRangeIntegerInSpecIsLT0001) {
  // An integer literal past int64 is a parse error (exit 2), not a runtime
  // failure (exit 1 is a violated property).
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto big =
      write_temp_program("ltl_big.ltl", "p1: F reachable(@n0, 99999999999999999999).\n");
  const auto result = run_cli("verify " + prog + " " + facts + " --ltl " + big);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find(big + ":1:22: error: LT0001: bad integer literal "
                                     "'99999999999999999999'\n"),
            std::string::npos)
      << result.output;
}

TEST(CliVerify, SoftStateProgramIsRefusedWithExitTwo) {
  // The checker's states carry no clock: a finite lifetime or `periodic`
  // is refused with an error that names it, not verified as hard state.
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto soft = write_temp_program(
      "ltl_soft.ndlog",
      "materialize(link, 10, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C).\n"
      "t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).\n");
  const auto soft_run = run_cli("verify " + soft + " " + facts + " --ltl " + good);
  EXPECT_EQ(soft_run.exit_code, 2) << soft_run.output;
  EXPECT_NE(soft_run.output.find("predicate link has a finite lifetime"), std::string::npos)
      << soft_run.output;

  const auto periodic = write_temp_program(
      "ltl_periodic.ndlog",
      "materialize(link, infinity, infinity, keys(1,2)).\n"
      "materialize(reachable, infinity, infinity, keys(1,2)).\n"
      "t1 reachable(@S,D) :- link(@S,D,_C), periodic(@S,_T).\n"
      "t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).\n");
  const auto periodic_run = run_cli("verify " + periodic + " " + facts + " --ltl " + good);
  EXPECT_EQ(periodic_run.exit_code, 2) << periodic_run.output;
  EXPECT_NE(periodic_run.output.find("uses periodic"), std::string::npos)
      << periodic_run.output;
}

TEST(CliVerify, MissingSpecFlagIsUsageError) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto result = run_cli("verify " + prog + " " + facts);
  EXPECT_EQ(result.exit_code, 2) << result.output;
}

TEST(CliMonitor, SimSatisfiedExitsZeroViolatedExitsOne) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto ok = run_cli("sim " + prog + " " + facts + " --monitor " + good);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("SATISFIED"), std::string::npos) << ok.output;
  const auto fired = run_cli("sim " + prog + " " + facts + " --monitor " + bad);
  EXPECT_EQ(fired.exit_code, 1) << fired.output;
  EXPECT_NE(fired.output.find("VIOLATED (fired at event"), std::string::npos)
      << fired.output;
}

TEST(CliMonitor, DistSatisfiedExitsZeroViolatedExitsOne) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto ok = run_cli("dist " + prog + " " + facts + " --monitor " + good);
  EXPECT_EQ(ok.exit_code, 0) << ok.output;
  EXPECT_NE(ok.output.find("SATISFIED"), std::string::npos) << ok.output;
  const auto fired = run_cli("dist " + prog + " " + facts + " --monitor " + bad);
  EXPECT_EQ(fired.exit_code, 1) << fired.output;
  EXPECT_NE(fired.output.find("VIOLATED (fired at event"), std::string::npos)
      << fired.output;
}

TEST(CliMonitor, SpecParseErrorExitsTwo) {
  const auto [prog, facts, good, bad] = ltl_inputs();
  const auto broken = write_temp_program("ltl_broken2.ltl", "p: G !(\n");
  const auto result = run_cli("sim " + prog + " " + facts + " --monitor " + broken);
  EXPECT_EQ(result.exit_code, 2) << result.output;
  EXPECT_NE(result.output.find("LT0001"), std::string::npos) << result.output;
}

TEST(CliServe, SimAndDistServeWithMonitor) {
  // path_vector on the 3-node line of path_vector.ltl, links both ways:
  // --serve and --monitor watch the same tuple events on either runtime.
  const auto examples = std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog";
  const auto facts = write_temp_program(
      "serve_monitor_line3.txt",
      "link(@n0,n1,1)\nlink(@n1,n0,1)\nlink(@n1,n2,1)\nlink(@n2,n1,1)\n");
  for (const std::string cmd : {"sim", "dist"}) {
    const auto result = run_cli(cmd + " " + (examples / "path_vector.ndlog").string() + " " +
                                facts + " --serve bestPath:dst,_,cost --monitor " +
                                (examples / "path_vector.ltl").string());
    EXPECT_EQ(result.exit_code, 0) << cmd << ": " << result.output;
    for (const std::string property : {"reach", "no_self_route", "converges"}) {
      EXPECT_NE(result.output.find("monitor " + property + ": "), std::string::npos)
          << cmd << ": " << result.output;
    }
    EXPECT_EQ(result.output.find("VIOLATED"), std::string::npos) << cmd << ": " << result.output;
    // The plane serves exactly the bestPath rows the run prints.
    std::size_t rows = 0;
    for (std::size_t at = result.output.find("\nbestPath("); at != std::string::npos;
         at = result.output.find("\nbestPath(", at + 1)) {
      ++rows;
    }
    EXPECT_EQ(rows, 6u) << cmd << ": " << result.output;
    EXPECT_NE(result.output.find("serve: routes=6 "), std::string::npos)
        << cmd << ": " << result.output;
  }
}

// ---------------------------------------------------------------------------
// The CLI surface: every flag that some command takes, tried on every
// command. A flag the command does not take is a usage error that names it
// before any input is read; one it takes, used validly, is not.
// ---------------------------------------------------------------------------

TEST(CliFlags, EveryCommandAcceptsExactlyItsFlags) {
  const auto prog = write_temp_program("flags.ndlog",
                                       "materialize(link, infinity, infinity, keys(1,2)).\n"
                                       "materialize(reach, infinity, infinity, keys(1,2)).\n"
                                       "t1 reach(@S,D) :- link(@S,D,_C).\n");
  const auto facts = write_temp_program("flags_facts.txt", "link(@n0,n1,1)\n");
  const auto spec = write_temp_program("flags.ltl", "p1: F reach(@n0, n1).\n");
  const auto queries = write_temp_program("flags_queries.txt", "n0 n1\n");
  const std::string out = (temp_dir() / "flags_out.json").string();
  // Each flag, and a valid use of it (the flag comes first).
  const std::vector<std::pair<std::string, std::string>> flags = {
      {"--json", "--json"},
      {"--dot", "--dot"},
      {"--cost", "--cost"},
      {"--metrics", "--metrics"},
      {"--metrics-out", "--metrics-out=" + out},
      {"--trace", "--trace=" + out},
      {"--cost-order", "--cost-order"},
      {"--monitor", "--monitor=" + spec},
      {"--serve", "--serve=reach"},
      {"--ltl", "--ltl=" + spec},
      {"--max-states", "--max-states=1000"},
      {"--nodes", "--nodes=2"},
      {"--transport", "--transport=inproc"},
      {"--loss", "--loss=0.1"},
      {"--seed", "--seed=3"},
      {"--serve-pred", "--serve-pred=reach"},
      {"--serve-cols", "--serve-cols=dst"},
      {"--queries", "--queries=" + queries},
      {"--readers", "--readers=1 --churn-seconds=0.05"},
      {"--churn", "--churn"},
      {"--churn-seconds", "--churn-seconds=0.05 --readers=1"},
  };
  struct Command {
    std::string name;
    bool takes_facts;
    std::string tail;   // positional arguments after prog (and facts)
    std::string base;   // flags every run of the command needs
    std::set<std::string> accepts;
  };
  const std::set<std::string> observe = {"--metrics", "--metrics-out", "--trace"};
  const std::set<std::string> simulate = {"--metrics", "--metrics-out", "--trace",
                                          "--cost-order", "--monitor", "--serve"};
  std::set<std::string> dist = simulate;
  dist.insert({"--nodes", "--transport", "--loss", "--seed"});
  const std::vector<Command> commands = {
      {"check", false, "", "", {}},
      {"lint", false, "", "", {"--json"}},
      {"analyze", false, "", "", {"--json", "--dot", "--cost", "--metrics"}},
      {"translate", false, "", "", {}},
      {"linear", false, "", "", {}},
      {"run", true, "", "", observe},
      {"eval", true, "", "", observe},
      {"query", true, " 'reach(@S,D)'", "", {}},
      {"simulate", true, "", "", simulate},
      {"sim", true, "", "", simulate},
      {"dist", true, "", "", dist},
      {"plan", false, "", "", {"--json", "--dot", "--cost-order"}},
      {"explain", true, " 'reach(@n0,n1)'", "", {}},
      {"verify", true, "", " --ltl=" + spec, {"--ltl", "--trace", "--max-states"}},
      {"serve", true, "", " --serve=reach < /dev/null",
       {"--serve", "--queries", "--readers", "--churn-seconds", "--metrics", "--metrics-out",
        "--trace"}},
  };
  for (const auto& command : commands) {
    for (const auto& [flag, use] : flags) {
      const bool accepts = command.accepts.count(flag) != 0;
      // A rejected flag must not read the (missing) input files.
      const std::string p = accepts ? prog : "/nonexistent/flags.ndlog";
      const std::string f = accepts ? facts : "/nonexistent/flags_facts.txt";
      const std::string args = command.name + " " + p +
                               (command.takes_facts ? " " + f : "") + command.tail +
                               " " + use + command.base;
      const auto result = run_cli(args);
      if (accepts) {
        EXPECT_NE(result.exit_code, 2) << args << ": " << result.output;
      } else {
        EXPECT_EQ(result.exit_code, 2) << args << ": " << result.output;
        EXPECT_NE(result.output.find("error: "), std::string::npos) << args << ": " << result.output;
        EXPECT_NE(result.output.find(flag), std::string::npos) << args << ": " << result.output;
        EXPECT_EQ(result.output.find("cannot read"), std::string::npos)
            << args << ": " << result.output;
      }
    }
  }
}

#endif  // FVN_CLI_PATH

}  // namespace
}  // namespace fvn
