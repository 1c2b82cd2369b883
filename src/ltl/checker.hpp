// LTL model checking over fvn::mc's NDlog transition system: the product of
// the Büchi automaton for ¬φ with the (stutter-extended) system state graph,
// searched for acceptance cycles with iterative nested DFS. The system side
// runs on an mc::StateSpace of interned ids; valuations are read from its
// tables. A violation is a lasso — a finite stem plus a cycle that repeats
// forever — carrying full NetState snapshots, renderable as text or as an
// fvn::obs Chrome trace. See DESIGN.md §14.3.
#pragma once

#include <string>
#include <vector>

#include "ltl/buchi.hpp"
#include "ltl/formula.hpp"
#include "mc/ndlog_ts.hpp"
#include "obs/trace.hpp"

namespace fvn::ltl {

/// One step of a counterexample lasso: the state plus the valuation read
/// when entering it.
struct LassoStep {
  mc::NetState state;
  Valuation valuation = 0;
};

struct PropertyResult {
  std::string name;
  std::string formula;
  ApSet aps;
  bool holds = true;
  /// Verdict is definitive only when the product was fully explored.
  bool exhausted = true;
  std::size_t product_states = 0;
  std::size_t transitions = 0;
  /// Distinct system states interned, and local fixpoints actually run: one
  /// per distinct (node, table, delivered tuple), however many transitions
  /// deliver it.
  std::size_t system_states = 0;
  std::size_t local_steps = 0;
  /// Counterexample (empty when holds): `stem` ends at the loop head; `cycle`
  /// lists the loop body and ends back at the loop head (its last state
  /// equals stem.back()).
  std::vector<LassoStep> stem;
  std::vector<LassoStep> cycle;
};

struct CheckOptions {
  /// Budget on distinct product states; exceeded => exhausted = false.
  std::size_t max_product_states = 200000;
};

struct CheckResult {
  std::vector<PropertyResult> properties;

  bool all_hold() const {
    for (const auto& p : properties)
      if (!p.holds) return false;
    return true;
  }
  bool exhausted() const {
    for (const auto& p : properties)
      if (!p.exhausted) return false;
    return true;
  }
};

/// Check one property over every message interleaving from `initial`.
/// Terminal (quiescent) states are stutter-extended with a self-loop, so
/// finite executions induce infinite words.
PropertyResult check_property(const mc::NdlogTransitionSystem& ts,
                              const mc::NetState& initial, const Property& property,
                              const CheckOptions& options = {});

/// Check every property of a spec.
CheckResult check_ltl(const mc::NdlogTransitionSystem& ts, const mc::NetState& initial,
                      const Spec& spec, const CheckOptions& options = {});

/// Human counterexample rendering: per-step valuations and full per-node
/// tables, with the cycle marked.
std::string render_counterexample(const PropertyResult& result);

/// Render a counterexample into an obs Chrome trace: one "ltl" instant per
/// step (valuation + phase) plus one "state" instant per node per step with
/// that node's table; virtual time is one millisecond per step.
void counterexample_to_trace(const PropertyResult& result, obs::Trace& trace);

}  // namespace fvn::ltl
