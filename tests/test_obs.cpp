// Tests for the fvn::obs observability layer (DESIGN.md §9): metric
// primitives and registry semantics, the strict JSON reader, span-based
// tracing with an injected clock (golden-pinned Chrome trace_event output),
// and the end-to-end integrations — evaluator, simulator, prover and model
// checker all reporting into a Registry whose series must agree with the
// subsystems' own statistics.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/protocols.hpp"
#include "mc/checker.hpp"
#include "ndlog/eval.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "prover/prover.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using obs::Counter;
using obs::Histogram;
using obs::json_parse;
using obs::json_valid;
using obs::JsonValue;
using obs::Registry;
using obs::Span;
using obs::Timer;
using obs::Trace;

std::string read_golden(const std::string& name) {
  const std::string path = std::string(FVN_SOURCE_DIR) + "/tests/golden/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Sum of counters matching a prefix AND suffix (e.g. every per-rule
/// "/firings" series) — the shape the consistency checks need.
std::uint64_t sum_counters(const Registry& registry, std::string_view prefix,
                           std::string_view suffix) {
  std::uint64_t total = 0;
  for (const auto& [name, counter] : registry.counters()) {
    if (name.starts_with(prefix) && name.ends_with(suffix)) total += counter.value();
  }
  return total;
}

// ---------------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------------

TEST(ObsCounter, AccumulatesAdds) {
  Counter c;
  EXPECT_EQ(c.value(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.value(), 42u);
}

TEST(ObsHistogram, BitWidthBuckets) {
  EXPECT_EQ(Histogram::bucket_of(0), 0u);
  EXPECT_EQ(Histogram::bucket_of(1), 1u);
  EXPECT_EQ(Histogram::bucket_of(2), 2u);
  EXPECT_EQ(Histogram::bucket_of(3), 2u);
  EXPECT_EQ(Histogram::bucket_of(4), 3u);
  EXPECT_EQ(Histogram::bucket_of(7), 3u);
  EXPECT_EQ(Histogram::bucket_of(8), 4u);
  EXPECT_EQ(Histogram::bucket_of(~0ull), 64u);
}

TEST(ObsHistogram, SummaryStatistics) {
  Histogram h;
  EXPECT_EQ(h.min(), 0u);
  EXPECT_EQ(h.mean(), 0.0);
  for (std::uint64_t s : {5u, 1u, 9u, 1u}) h.observe(s);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 16u);
  EXPECT_EQ(h.min(), 1u);
  EXPECT_EQ(h.max(), 9u);
  EXPECT_DOUBLE_EQ(h.mean(), 4.0);
  EXPECT_EQ(h.buckets()[1], 2u);   // the two 1s
  EXPECT_EQ(h.buckets()[3], 1u);   // 5
  EXPECT_EQ(h.buckets()[4], 1u);   // 9
}

TEST(ObsTimer, RecordsAndScopes) {
  Timer t;
  t.record_ns(1'000'000);
  t.record_ns(500'000);
  EXPECT_EQ(t.count(), 2u);
  EXPECT_EQ(t.total_ns(), 1'500'000u);
  EXPECT_DOUBLE_EQ(t.total_ms(), 1.5);
  { Timer::Scope scope(&t); }
  EXPECT_EQ(t.count(), 3u);
  { Timer::Scope disabled(nullptr); }  // must not crash
  EXPECT_EQ(t.count(), 3u);
}

TEST(ObsTimer, MergeEqualsRecordingHere) {
  // Per-thread books added into one registry after join (net::Cluster) must
  // read as if every sample had been recorded in the registry's series.
  Timer a, b, both;
  for (std::uint64_t ns : {700u, 50u}) {
    a.record_ns(ns);
    both.record_ns(ns);
  }
  b.record_ns(1'000);
  both.record_ns(1'000);
  a.merge(b);
  a.merge(Timer{});
  EXPECT_EQ(a.count(), both.count());
  EXPECT_EQ(a.total_ns(), both.total_ns());

  Histogram h, g, all;
  for (std::uint64_t s : {3u, 8u}) {
    h.observe(s);
    all.observe(s);
  }
  g.observe(1);
  all.observe(1);
  h.merge(g);
  h.merge(Histogram{});
  EXPECT_EQ(h.count(), all.count());
  EXPECT_EQ(h.sum(), all.sum());
  EXPECT_EQ(h.min(), all.min());
  EXPECT_EQ(h.max(), all.max());
  EXPECT_EQ(h.buckets(), all.buckets());
}

TEST(ObsRegistry, LookupCreatesAndFindDoesNot) {
  Registry registry;
  EXPECT_TRUE(registry.empty());
  EXPECT_EQ(registry.find_counter("a"), nullptr);
  registry.counter("a").add(7);
  registry.histogram("h").observe(1);
  registry.timer("t").record_ns(10);
  EXPECT_EQ(registry.series_count(), 3u);
  ASSERT_NE(registry.find_counter("a"), nullptr);
  EXPECT_EQ(registry.find_counter("a")->value(), 7u);
  EXPECT_EQ(registry.find_histogram("missing"), nullptr);
  EXPECT_EQ(registry.find_timer("missing"), nullptr);
}

TEST(ObsRegistry, SumCountersWithPrefix) {
  Registry registry;
  registry.counter("eval/rule/r1/firings").add(3);
  registry.counter("eval/rule/r2/firings").add(4);
  registry.counter("sim/node/n0/sent").add(100);
  EXPECT_EQ(registry.sum_counters_with_prefix("eval/rule/"), 7u);
  EXPECT_EQ(registry.sum_counters_with_prefix("sim/"), 100u);
  EXPECT_EQ(registry.sum_counters_with_prefix("prover/"), 0u);
}

// ---------------------------------------------------------------------------
// JSON reader
// ---------------------------------------------------------------------------

TEST(ObsJson, ParsesDocument) {
  auto doc = json_parse(R"({"a":[1,2.5,-3],"b":{"c":"x\n\"y\""},"t":true,"n":null})");
  ASSERT_TRUE(doc.has_value());
  ASSERT_TRUE(doc->is_object());
  const JsonValue* a = doc->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_TRUE(a->is_array());
  ASSERT_EQ(a->array.size(), 3u);
  EXPECT_DOUBLE_EQ(a->array[1].number, 2.5);
  EXPECT_DOUBLE_EQ(a->array[2].number, -3.0);
  const JsonValue* c = doc->find("b")->find("c");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->string, "x\n\"y\"");
  EXPECT_TRUE(doc->find("t")->boolean);
  EXPECT_EQ(doc->find("n")->kind, JsonValue::Kind::Null);
}

TEST(ObsJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(json_valid(""));
  EXPECT_FALSE(json_valid("{"));
  EXPECT_FALSE(json_valid("{} trailing"));
  EXPECT_FALSE(json_valid("[1,]"));
  EXPECT_FALSE(json_valid("{\"a\":01}"));
  EXPECT_FALSE(json_valid("tru"));
  EXPECT_FALSE(json_valid("\"unterminated"));
  EXPECT_FALSE(json_valid("\"bad\\escape\""));
  EXPECT_TRUE(json_valid("  {\"ok\": [true, false, null, 0, -0.5e2]} \n"));
}

TEST(ObsJson, EscapeRoundTripsThroughParser) {
  const std::string nasty = "quote\" backslash\\ newline\n tab\t ctrl\x01 end";
  auto parsed = json_parse("\"" + obs::json_escape(nasty) + "\"");
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->string, nasty);
}

// ---------------------------------------------------------------------------
// Registry export
// ---------------------------------------------------------------------------

Registry golden_registry() {
  Registry registry;
  registry.counter("eval/rounds").add(3);
  registry.counter("eval/rule/r1/firings").add(12);
  registry.counter("sim/node/n0/sent").add(4);
  registry.histogram("eval/round_delta").observe(0);
  registry.histogram("eval/round_delta").observe(5);
  registry.histogram("eval/round_delta").observe(9);
  registry.timer("eval/total").record_ns(1'500'000);
  return registry;
}

TEST(ObsRegistry, JsonExportParsesAndCarriesValues) {
  const Registry registry = golden_registry();
  auto doc = json_parse(registry.to_json());
  ASSERT_TRUE(doc.has_value()) << registry.to_json();
  const JsonValue* counters = doc->find("counters");
  ASSERT_NE(counters, nullptr);
  EXPECT_DOUBLE_EQ(counters->find("eval/rounds")->number, 3.0);
  const JsonValue* delta = doc->find("histograms")->find("eval/round_delta");
  ASSERT_NE(delta, nullptr);
  EXPECT_DOUBLE_EQ(delta->find("count")->number, 3.0);
  EXPECT_DOUBLE_EQ(delta->find("max")->number, 9.0);
  const JsonValue* timer = doc->find("timers")->find("eval/total");
  ASSERT_NE(timer, nullptr);
  EXPECT_DOUBLE_EQ(timer->find("total_ns")->number, 1'500'000.0);
}

TEST(ObsGolden, MetricsJson) {
  // Regenerate deliberately on intentional format changes:
  //   write golden_registry().to_json() to tests/golden/metrics.json
  EXPECT_EQ(golden_registry().to_json(), read_golden("metrics.json"));
}

// ---------------------------------------------------------------------------
// Tracing
// ---------------------------------------------------------------------------

TEST(ObsTrace, SpanNestingAndUnbalancedEnds) {
  Trace trace([] { return std::uint64_t{0}; });
  EXPECT_EQ(trace.depth(), 0u);
  trace.begin_span("outer", "t");
  trace.begin_span("inner", "t");
  EXPECT_EQ(trace.depth(), 2u);
  trace.end_span();
  trace.end_span();
  trace.end_span();  // unbalanced: ignored
  EXPECT_EQ(trace.depth(), 0u);
  ASSERT_EQ(trace.size(), 4u);
  EXPECT_EQ(trace.events()[0].phase, 'B');
  EXPECT_EQ(trace.events()[3].phase, 'E');
}

TEST(ObsTrace, NullToleratedEverywhere) {
  Span span(nullptr, "noop", "t");
  span.end("{\"ignored\":1}");  // double-close is also fine
}

TEST(ObsTrace, ExplicitTimestampsBypassClock) {
  Trace trace([] { return std::uint64_t{77}; });
  trace.instant_at(5, "virt", "sim");
  trace.counter_at(6, "q", "sim", 2.0);
  trace.instant("wall", "sim");
  ASSERT_EQ(trace.size(), 3u);
  EXPECT_EQ(trace.events()[0].ts_us, 5u);
  EXPECT_EQ(trace.events()[1].ts_us, 6u);
  EXPECT_EQ(trace.events()[2].ts_us, 77u);
}

TEST(ObsGolden, TraceJson) {
  std::uint64_t t = 0;
  Trace trace([&t] { return t += 10; });
  trace.begin_span("outer", "test");
  trace.instant("tick", "test", "{\"k\":1}");
  {
    Span inner(&trace, "inner", "test");
    inner.end("{\"n\":2}");
  }
  trace.counter("series", "test", 2.5);
  trace.counter_at(1000, "virt", "test", 7.0);
  trace.end_span();
  ASSERT_TRUE(json_valid(trace.to_json())) << trace.to_json();
  // Regenerate deliberately on intentional format changes (see above).
  EXPECT_EQ(trace.to_json(), read_golden("trace.json"));
}

// ---------------------------------------------------------------------------
// Evaluator integration: per-rule/per-stratum series must agree with the
// EvalStats aggregate, and the trace must nest correctly.
// ---------------------------------------------------------------------------

TEST(ObsEvaluator, PerRuleSeriesSumToAggregateStats) {
  Registry registry;
  Trace trace;
  ndlog::EvalOptions options;
  options.metrics = &registry;
  options.trace = &trace;
  ndlog::Evaluator eval;
  auto result = eval.run(core::path_vector_program(),
                         core::link_facts(core::ring_topology(4)), options);

  EXPECT_EQ(sum_counters(registry, "eval/rule/", "/firings"), result.stats.rule_firings);
  EXPECT_EQ(sum_counters(registry, "eval/rule/", "/derived"),
            result.stats.tuples_derived);
  EXPECT_EQ(sum_counters(registry, "eval/rule/", "/probes"), result.stats.join_probes);
  EXPECT_EQ(sum_counters(registry, "eval/stratum/", "/derived"),
            result.stats.tuples_derived);
  // Round histogram: one sample per counted round.
  const obs::Histogram* rounds = registry.find_histogram("eval/round_delta");
  ASSERT_NE(rounds, nullptr);
  EXPECT_EQ(registry.find_counter("eval/rounds")->value(), rounds->count());

  // Trace: balanced spans, valid JSON.
  EXPECT_EQ(trace.depth(), 0u);
  std::size_t begins = 0, ends = 0;
  for (const auto& event : trace.events()) {
    begins += event.phase == 'B';
    ends += event.phase == 'E';
  }
  EXPECT_EQ(begins, ends);
  EXPECT_GT(begins, 0u);
  EXPECT_TRUE(json_valid(trace.to_json()));
}

TEST(ObsEvaluator, DisabledInstrumentationRecordsNothing) {
  Registry registry;
  ndlog::Evaluator eval;
  auto result =
      eval.run(core::reachable_program(), core::link_facts(core::line_topology(3)));
  EXPECT_GT(result.stats.rule_firings, 0u);
  EXPECT_TRUE(registry.empty());
}

// ---------------------------------------------------------------------------
// Simulator integration: per-node counters vs SimStats.
// ---------------------------------------------------------------------------

TEST(ObsSimulator, PerNodeCountersMatchSimStats) {
  Registry registry;
  Trace trace;
  runtime::SimOptions options;
  options.metrics = &registry;
  options.obs_trace = &trace;
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(4)));
  auto stats = sim.run();

  EXPECT_EQ(sum_counters(registry, "sim/node/", "/sent"), stats.messages_sent);
  EXPECT_EQ(sum_counters(registry, "sim/node/", "/dropped"), stats.messages_dropped);
  EXPECT_EQ(sum_counters(registry, "sim/node/", "/installed"), stats.tuples_derived);
  EXPECT_EQ(sum_counters(registry, "sim/node/", "/overwrites"), stats.overwrites);
  const obs::Histogram* depth = registry.find_histogram("sim/queue_depth");
  ASSERT_NE(depth, nullptr);
  EXPECT_EQ(depth->count(), stats.events_processed);

  // Virtual-time trace: timestamps are simulated microseconds, monotone
  // under the event queue's time ordering.
  ASSERT_GT(trace.size(), 0u);
  std::uint64_t last = 0;
  for (const auto& event : trace.events()) {
    EXPECT_GE(event.ts_us, last);
    last = event.ts_us;
  }
  EXPECT_TRUE(json_valid(trace.to_json()));
}

// ---------------------------------------------------------------------------
// Prover integration: per-tactic counters and timers.
// ---------------------------------------------------------------------------

TEST(ObsProver, TacticCountersAndTimers) {
  Registry registry;
  prover::Prover prover(logic::Theory{});
  prover.set_metrics(&registry);
  auto result = prover.prove_auto(logic::Theorem{"trivial", logic::Formula::truth()});
  EXPECT_TRUE(result.proved);
  const obs::Counter* grinds = registry.find_counter("prover/tactic/grind/invocations");
  ASSERT_NE(grinds, nullptr);
  EXPECT_EQ(grinds->value(), 1u);
  const obs::Timer* timer = registry.find_timer("prover/tactic/grind");
  ASSERT_NE(timer, nullptr);
  EXPECT_EQ(timer->count(), 1u);
  // grind's micro-steps land under prover/grind/<step>.
  EXPECT_GT(registry.sum_counters_with_prefix("prover/grind/"), 0u);
}

// ---------------------------------------------------------------------------
// Model-checker integration: exploration totals.
// ---------------------------------------------------------------------------

TEST(ObsChecker, CheckInvariantRecordsExploration) {
  Registry registry;
  auto successors = [](const int& s) {
    return s < 5 ? std::vector<int>{s + 1} : std::vector<int>{};
  };
  auto invariant = [](const int&) { return true; };
  auto result = mc::check_invariant<int>({0}, successors, invariant, 1000, &registry);
  EXPECT_TRUE(result.property_holds);
  EXPECT_EQ(registry.find_counter("mc/states_expanded")->value(),
            result.states_explored);
  EXPECT_EQ(registry.find_counter("mc/transitions")->value(), result.transitions);
  EXPECT_EQ(result.states_explored, 6u);
}

TEST(ObsChecker, FindCycleRecordsEvenOnEarlyReturn) {
  Registry registry;
  auto successors = [](const int& s) { return std::vector<int>{(s + 1) % 3}; };
  auto any = [](const int&) { return true; };
  auto result = mc::find_cycle<int>({0}, successors, any, 1000, &registry);
  EXPECT_FALSE(result.property_holds);  // cycle found
  EXPECT_EQ(registry.find_counter("mc/states_expanded")->value(),
            result.states_explored);
  EXPECT_EQ(registry.find_counter("mc/transitions")->value(), result.transitions);
}

}  // namespace
}  // namespace fvn
