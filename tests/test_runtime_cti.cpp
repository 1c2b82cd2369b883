// The dynamic count-to-infinity demonstration (E2, runtime flavor): a
// soft-state distance-vector protocol with periodic advertisements, run on
// the discrete-event simulator. After a link failure the surviving nodes
// bounce the stale route between each other with climbing cost — observed
// live by a runtime monitor. Split-horizon filtering (expressible in NDlog
// with one extra condition) stops the climb.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "ndlog/parser.hpp"
#include "runtime/simulator.hpp"

namespace fvn {
namespace {

using ndlog::Tuple;
using ndlog::Value;

/// Periodic soft-state DV. adv(@M,N,D,C): node N advertises to neighbor M a
/// route to D of cost C. No split horizon: N re-advertises to everyone.
const char* kSoftDv = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(own, infinity, infinity, keys(1,2)).
  materialize(adv, 2.5, infinity, keys(1,2,3)).
  materialize(hop, 2.5, infinity, keys(1,2,3)).
  materialize(bestHopCost, infinity, infinity, keys(1,2)).
  materialize(bestHop, infinity, infinity, keys(1,2)).

  c0 adv(@M,D,D,C) :- periodic(@D,I), own(@D,D), link(@D,M,C1), C=0.
  c2 hop(@N,D,M,C) :- periodic(@N,I), adv(@N,M,D,C2), link(@N,M,C1), C=C1+C2, N != D.
  c3 bestHopCost(@N,D,min<C>) :- hop(@N,D,M,C).
  c4 bestHop(@N,D,M,C) :- bestHopCost(@N,D,C), hop(@N,D,M,C).
  c5 adv(@M,N,D,C) :- periodic(@N,I), bestHop(@N,D,Z,C), link(@N,M,C1).
)";

/// Split-horizon variant: N does not advertise D back to the neighbor it
/// routes through (Z != M).
const char* kSoftDvSplitHorizon = R"(
  materialize(link, infinity, infinity, keys(1,2)).
  materialize(own, infinity, infinity, keys(1,2)).
  materialize(adv, 2.5, infinity, keys(1,2,3)).
  materialize(hop, 2.5, infinity, keys(1,2,3)).
  materialize(bestHopCost, infinity, infinity, keys(1,2)).
  materialize(bestHop, infinity, infinity, keys(1,2)).

  c0 adv(@M,D,D,C) :- periodic(@D,I), own(@D,D), link(@D,M,C1), C=0.
  c2 hop(@N,D,M,C) :- periodic(@N,I), adv(@N,M,D,C2), link(@N,M,C1), C=C1+C2, N != D.
  c3 bestHopCost(@N,D,min<C>) :- hop(@N,D,M,C).
  c4 bestHop(@N,D,M,C) :- bestHopCost(@N,D,C), hop(@N,D,M,C).
  c5 adv(@M,N,D,C) :- periodic(@N,I), bestHop(@N,D,Z,C), link(@N,M,C1), Z != M.
)";

struct CtiRun {
  std::size_t violations = 0;
  std::int64_t max_cost_seen = 0;
};

CtiRun run_soft_dv(const char* source, double fail_at, std::size_t rounds) {
  auto program = ndlog::parse_program(source, "soft_dv");
  runtime::SimOptions options;
  options.max_periodic_rounds = rounds;
  options.periodic_interval = 1.0;
  options.max_events = 2'000'000;
  // The adv/bestHop feedback loop is unstratified by design — time, not
  // strata, breaks it (see SimOptions::require_stratified).
  options.require_stratified = false;
  CtiRun result;
  options.tuple_events = [&result](std::string_view kind, const std::string&,
                                   const Tuple& t, double) {
    if (kind != "install" || t.predicate() != "bestHopCost") return;
    result.max_cost_seen = std::max(result.max_cost_seen, t.at(2).as_int());
    if (t.at(2).as_int() >= 10) ++result.violations;
  };
  runtime::Simulator sim(program, options);

  // Line n0 - n1 - n2, destination n0.
  std::vector<Tuple> facts;
  for (const auto& t : core::link_facts(core::line_topology(3))) facts.push_back(t);
  facts.emplace_back("own", std::vector<Value>{Value::addr("n0"), Value::addr("n0")});
  sim.inject_all(facts);
  // The n1->n0 link fails mid-run.
  sim.retract(Tuple("link", {Value::addr("n1"), Value::addr("n0"), Value::integer(1)}),
              fail_at);

  sim.run();
  return result;
}

TEST(RuntimeCti, SoftDvConvergesBeforeFailure) {
  // No failure: costs stay at the true distances (1 and 2).
  auto result = run_soft_dv(kSoftDv, /*fail_at=*/1e9, /*rounds=*/10);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_EQ(result.max_cost_seen, 2);
}

TEST(RuntimeCti, CountToInfinityObservedAfterLinkFailure) {
  // E2 runtime flavor: after the failure the cost climbs past the monitor
  // threshold — the live count-to-infinity.
  auto result = run_soft_dv(kSoftDv, /*fail_at=*/4.6, /*rounds=*/40);
  EXPECT_GT(result.violations, 0u);
  EXPECT_GE(result.max_cost_seen, 10);
}

TEST(RuntimeCti, SplitHorizonStopsTheClimb) {
  auto result = run_soft_dv(kSoftDvSplitHorizon, /*fail_at=*/4.6, /*rounds=*/40);
  EXPECT_EQ(result.violations, 0u);
  EXPECT_LE(result.max_cost_seen, 3);
}

}  // namespace
}  // namespace fvn
