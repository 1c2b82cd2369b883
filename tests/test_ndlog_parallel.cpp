// fvn::ndlog::parallel unit suite — pins the shard-parallel certificate
// (DESIGN.md §16), a static result behind `analyze --parallel`: which
// programs certify, which shard keys the search picks, where
// ND0023/ND0024/ND0025 fire, and the exact diagnostic signature over every
// shipped example (golden files in tests/golden/analyze/<stem>.parallel.txt).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "ndlog/parallel.hpp"
#include "ndlog/parser.hpp"
#include "obs/json.hpp"
#include "runtime/localize.hpp"

namespace fvn::ndlog::parallel {
namespace {

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

std::string example_source(const std::string& stem) {
  return slurp(std::filesystem::path(FVN_SOURCE_DIR) / "examples" / "ndlog" /
               (stem + ".ndlog"));
}

struct Analysis {
  Report report;
  std::vector<Diagnostic> diagnostics;
};

Analysis analyze_source(const std::string& source) {
  Analysis a;
  DiagnosticSink sink;
  a.report = analyze(parse_program(source), sink);
  a.diagnostics = sink.diagnostics();
  return a;
}

std::size_t count_code(const Analysis& a, const std::string& code) {
  std::size_t n = 0;
  for (const auto& d : a.diagnostics) n += d.code == code ? 1 : 0;
  return n;
}

// ---------------------------------------------------------------------------
// Certified examples: the key search picks the join attribute
// ---------------------------------------------------------------------------

TEST(Parallel, PathVectorCertifiesOnTheDestinationAttribute) {
  const auto a = analyze_source(example_source("path_vector"));
  ASSERT_TRUE(a.report.certified) << a.report.fallback_reason;
  EXPECT_EQ(count_code(a, "ND0022"), 1u);
  EXPECT_EQ(count_code(a, "ND0023"), 0u);
  EXPECT_EQ(count_code(a, "ND0024"), 0u);
  // path(@S,D,P,C), bestPath(@S,D,P), bestPathCost(@S,D,C): every group
  // joins on the destination D — 0-based column 1, not the location.
  for (const std::string pred : {"path", "bestPath", "bestPathCost"}) {
    ASSERT_TRUE(a.report.keys.count(pred)) << pred;
    EXPECT_EQ(a.report.keys.at(pred).column, 1) << pred;
    EXPECT_FALSE(a.report.keys.at(pred).location) << pred;
  }
  for (const auto& group : a.report.groups) {
    EXPECT_EQ(group.mode, GroupMode::ShardedByAttribute);
  }
  // The base relation is frozen during a round, never sharded.
  EXPECT_TRUE(a.report.replicated.count("link"));
  EXPECT_TRUE(a.report.serial_rules.empty());
}

TEST(Parallel, ReachableCertifies) {
  const auto a = analyze_source(example_source("reachable"));
  ASSERT_TRUE(a.report.certified) << a.report.fallback_reason;
  EXPECT_EQ(count_code(a, "ND0022"), 1u);
  ASSERT_TRUE(a.report.keys.count("reachable"));
}

TEST(Parallel, LinkStateCertifies) {
  const auto a = analyze_source(example_source("link_state"));
  ASSERT_TRUE(a.report.certified) << a.report.fallback_reason;
  EXPECT_EQ(count_code(a, "ND0022"), 1u);
}

// ---------------------------------------------------------------------------
// ND0023 / ND0024 witnesses
// ---------------------------------------------------------------------------

TEST(Parallel, SpanningTreeWitnessesMisalignmentAndAggregateBarrier) {
  const auto a = analyze_source(example_source("spanning_tree"));
  // Degraded but still certified: misaligned groups fall back to location
  // sharding and cross-shard aggregates move to the serial barrier — neither
  // revokes the certificate.
  ASSERT_TRUE(a.report.certified) << a.report.fallback_reason;
  EXPECT_EQ(count_code(a, "ND0023"), 1u);
  EXPECT_EQ(count_code(a, "ND0024"), 2u);
  // The ND0023 hit anchors to the offending rule (st4, head distCand): its
  // root(@N,R) probe carries N where the group shards by the root attribute.
  for (const auto& d : a.diagnostics) {
    if (d.code != "ND0023") continue;
    EXPECT_EQ(d.predicate, "distCand");
    EXPECT_NE(d.message.find("st4"), std::string::npos) << d.message;
    EXPECT_NE(d.message.find("root"), std::string::npos) << d.message;
  }
  // ND0024-pinned rules land in serial_rules (ascending).
  EXPECT_EQ(a.report.serial_rules.size(), 2u);
  bool has_location_group = false;
  for (const auto& group : a.report.groups) {
    has_location_group |= group.mode == GroupMode::ShardedByLocation;
  }
  EXPECT_TRUE(has_location_group);
}

TEST(Parallel, CrossShardCountAggregateIsPinnedToTheBarrier) {
  const auto a = analyze_source(
      "b1 reach(@S,D) :- link(@S,D,C).\n"
      "b2 reach(@S,D) :- link(@S,Z,C), reach(@Z,D).\n"
      "b3 fanin(@S,count<D>) :- reach(@S,D).\n");
  ASSERT_TRUE(a.report.certified) << a.report.fallback_reason;
  // reach shards by D; fanin groups by S only, so the count crosses shards.
  EXPECT_EQ(count_code(a, "ND0024"), 1u);
  ASSERT_EQ(a.report.serial_rules.size(), 1u);
  EXPECT_EQ(a.report.serial_rules[0], 2u);
}

// ---------------------------------------------------------------------------
// ND0025 and revocation
// ---------------------------------------------------------------------------

TEST(Parallel, BaseNegationIsANoteDerivedNegationRevokes) {
  const auto base = analyze_source(
      "r1 up(@S,D) :- link(@S,D,C), !down(@S,D).\n");
  EXPECT_TRUE(base.report.certified) << base.report.fallback_reason;
  EXPECT_EQ(count_code(base, "ND0025"), 1u);
  EXPECT_EQ(base.report.negation_barriers, 1u);

  const auto derived = analyze_source(
      "r1 down(@S,D) :- link(@S,D,C).\n"
      "r2 up(@S,D) :- link(@S,D,C), !down(@S,D).\n");
  EXPECT_FALSE(derived.report.certified);
  EXPECT_NE(derived.report.fallback_reason.find("negation"), std::string::npos)
      << derived.report.fallback_reason;
}

TEST(Parallel, PredictedDivergenceRevokesTheCertificate) {
  const auto a = analyze_source(example_source("distance_vector"));
  EXPECT_FALSE(a.report.certified);
  EXPECT_NE(a.report.fallback_reason.find("ND0015"), std::string::npos)
      << a.report.fallback_reason;
  EXPECT_EQ(count_code(a, "ND0022"), 0u);
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

TEST(Parallel, JsonRendererParsesAndCarriesTheVerdict) {
  for (const std::string stem : {"path_vector", "spanning_tree", "distance_vector"}) {
    SCOPED_TRACE(stem);
    const auto a = analyze_source(example_source(stem));
    const auto doc = obs::json_parse(to_json(a.report));
    ASSERT_TRUE(doc.has_value());
    const auto* certified = doc->find("certified");
    ASSERT_NE(certified, nullptr);
    ASSERT_NE(doc->find("groups"), nullptr);
    ASSERT_NE(doc->find("keys"), nullptr);
    ASSERT_NE(doc->find("serial_rules"), nullptr);
  }
}

TEST(Parallel, DotRendererEmitsOneGraphWithGroupClusters) {
  DiagnosticSink sink;
  const auto program = parse_program(example_source("path_vector"));
  const auto report = analyze(program, sink);
  const auto dot = to_dot(program, report);
  EXPECT_EQ(dot.find("digraph"), dot.rfind("digraph"));
  EXPECT_NE(dot.find("cluster_"), std::string::npos);
  EXPECT_NE(dot.find("path"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The localized program (what the executors certify) agrees on the verdict
// ---------------------------------------------------------------------------

TEST(Parallel, LocalizedProgramsKeepTheSameVerdict) {
  for (const std::string stem :
       {"distance_vector", "link_state", "path_vector", "policy_path_vector",
        "reachable", "spanning_tree"}) {
    SCOPED_TRACE(stem);
    const auto program = parse_program(example_source(stem));
    DiagnosticSink raw_sink;
    DiagnosticSink loc_sink;
    const auto raw = analyze(program, raw_sink);
    const auto localized = analyze(runtime::localize(program), loc_sink);
    EXPECT_EQ(raw.certified, localized.certified);
  }
}

// ---------------------------------------------------------------------------
// Golden diagnostic signatures per shipped example
// ---------------------------------------------------------------------------

/// "<code> <line> r<rule_index> <predicate>" per diagnostic — the same golden
/// format test_ndlog_semantic.cpp uses for ND0014–ND0018, so the
/// machine-readable anchors `analyze --parallel --json` emits stay stable.
std::string diag_signature(const std::string& stem) {
  const auto a = analyze_source(example_source(stem));
  std::ostringstream os;
  for (const auto& d : a.diagnostics) {
    os << d.code << " " << d.span.begin.line << " r" << d.rule_index << " "
       << (d.predicate.empty() ? "-" : d.predicate) << "\n";
  }
  return os.str();
}

TEST(ParallelGolden, EveryExampleMatchesExpectedDiagnostics) {
  for (const std::string stem :
       {"distance_vector", "link_state", "path_vector", "policy_path_vector",
        "reachable", "spanning_tree"}) {
    const auto golden = slurp(std::filesystem::path(FVN_SOURCE_DIR) /
                              "tests" / "golden" / "analyze" /
                              (stem + ".parallel.txt"));
    EXPECT_EQ(diag_signature(stem), golden) << "example: " << stem;
  }
}

}  // namespace
}  // namespace fvn::ndlog::parallel
