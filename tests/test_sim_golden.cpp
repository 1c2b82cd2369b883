// SimGolden: byte-pinned simulator runs. A change to the runtime's hot path
// that is meant to change nothing (index layout, plan shape, event queue)
// must leave every run below exactly as it was.
//
//   * tests/golden/sim/<example>.txt: four shipped routing examples, each on
//     its crossval facts (tests/crossval_instances.hpp), at delay_jitter 0
//     and at 0.9 under seeds 1-4. Each run pins the full event trace
//     (Send/Deliver/Install/Retract/Expire, times at full precision) and
//     every node's final table.
//   * tests/golden/sim/path_vector_random16.txt: path-vector on a 16-node
//     core::random_topology, pinned by its counts and a 64-bit FNV-1a digest
//     of the same text (the text itself runs to over 10k lines).
//
// Regenerate deliberately, only for a change meant to alter runs, with
//   build/tests/test_sim_golden --gtest_also_run_disabled_tests
//     --gtest_filter=SimGolden.DISABLED_Regenerate
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <string>
#include <vector>

#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using runtime::TraceEntry;

const std::vector<std::string> kExamples = {"path_vector", "distance_vector",
                                            "policy_path_vector", "link_state"};

std::filesystem::path golden_dir() {
  return std::filesystem::path(FVN_SOURCE_DIR) / "tests" / "golden" / "sim";
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

const char* kind_name(TraceEntry::Kind kind) {
  switch (kind) {
    case TraceEntry::Kind::Send: return "send";
    case TraceEntry::Kind::Deliver: return "deliver";
    case TraceEntry::Kind::Install: return "install";
    case TraceEntry::Kind::Expire: return "expire";
    case TraceEntry::Kind::Retract: return "retract";
  }
  return "?";
}

/// One run's counts plus its text: the trace, then every node's table.
struct Run {
  runtime::SimStats stats;
  std::size_t trace_lines = 0;
  std::string text;
};

Run simulate(const ndlog::Program& program, const std::vector<Tuple>& facts, double jitter,
             std::uint64_t seed) {
  runtime::SimOptions options;
  options.record_trace = true;
  options.delay_jitter = jitter;
  options.seed = seed;
  runtime::Simulator sim(program, options);
  sim.inject_all(facts);
  Run run;
  run.stats = sim.run();
  run.trace_lines = sim.trace().size();
  std::ostringstream os;
  os << std::setprecision(17);
  for (const auto& e : sim.trace()) {
    os << e.time << ' ' << kind_name(e.kind) << ' ' << e.node << ' ' << e.detail << '\n';
  }
  for (const auto& node : sim.nodes()) {
    os << "table " << node << '\n';
    for (const auto& row : sim.database(node).dump()) os << "  " << row << '\n';
  }
  run.text = os.str();
  return run;
}

/// The pinned text of one example: a header per run, then the run.
std::string example_runs(const std::string& name) {
  const auto program = crossval::example_program(name);
  const auto facts = crossval::example_facts().at(name);
  std::ostringstream os;
  const auto add = [&](double jitter, std::uint64_t seed) {
    const Run run = simulate(program, facts, jitter, seed);
    os << "== " << name << " delay_jitter=" << jitter << " seed=" << seed
       << " quiesced=" << run.stats.quiesced << '\n'
       << run.text;
  };
  add(0.0, 1);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) add(0.9, seed);
  return os.str();
}

std::uint64_t fnv1a64(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// Counts and digest of path-vector on a 16-node random topology.
std::string random16_summary() {
  const auto links = core::random_topology(16, 6, 7);
  const Run run = simulate(ndlog::parse_program(core::path_vector_source(), "path_vector"),
                           core::link_facts(links), 0.0, 1);
  std::ostringstream os;
  os << std::setprecision(17) << "links " << links.size() << '\n'
     << "quiesced " << run.stats.quiesced << '\n'
     << "events " << run.stats.events_processed << '\n'
     << "messages " << run.stats.messages_sent << '\n'
     << "installs " << run.stats.tuples_derived << '\n'
     << "overwrites " << run.stats.overwrites << '\n'
     << "last_change " << run.stats.last_change_time << '\n'
     << "trace_lines " << run.trace_lines << '\n'
     << "fnv1a64 " << std::hex << std::setw(16) << std::setfill('0') << fnv1a64(run.text)
     << '\n';
  return os.str();
}

TEST(SimGolden, CrossvalExamplesMatchByteForByte) {
  for (const auto& name : kExamples) {
    const auto path = golden_dir() / (name + ".txt");
    ASSERT_TRUE(std::filesystem::exists(path)) << path;
    const std::string expected = slurp(path);
    const std::string actual = example_runs(name);
    EXPECT_EQ(actual.size(), expected.size()) << name;
    EXPECT_TRUE(actual == expected) << name << ": the runs drifted from " << path;
  }
}

TEST(SimGolden, RandomTopologyPathVectorMatchesDigest) {
  const auto path = golden_dir() / "path_vector_random16.txt";
  ASSERT_TRUE(std::filesystem::exists(path)) << path;
  EXPECT_EQ(random16_summary(), slurp(path));
}

TEST(SimGolden, DISABLED_Regenerate) {
  std::filesystem::create_directories(golden_dir());
  for (const auto& name : kExamples) {
    std::ofstream out(golden_dir() / (name + ".txt"));
    ASSERT_TRUE(out.good()) << name;
    out << example_runs(name);
  }
  std::ofstream out(golden_dir() / "path_vector_random16.txt");
  ASSERT_TRUE(out.good());
  out << random16_summary();
}

}  // namespace
}  // namespace fvn
