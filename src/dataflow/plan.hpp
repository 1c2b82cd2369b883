// The dataflow planner: compiles each rule of a *localized* NDlog program
// into explicit element strands (one strand per positive body-atom position,
// the delta position). The planner statically replays the interpreter's join
// schedule — body-order atom enumeration, eager check discharge, first-bound
// index-probe selection — so a compiled strand enumerates exactly the
// solutions (in exactly the order) that RuleEngine::eval_rule_delta would,
// which is what makes interpreter/dataflow differential runs bit-identical.
// One departure: when the delta atom binds the declared key
// (`materialize(..., keys(...))`) of every atom before it, the strand starts
// with the delta and joins those atoms next, by an index probe on a bound
// key column off the location specifier, discharging no check until they
// are joined. Under the engine's precondition of at most one row per
// declared key (dataflow/engine.hpp) each contributes at most one row, so
// the solutions and their order are still the interpreter's (DESIGN.md §10).
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "dataflow/element.hpp"
#include "ndlog/ast.hpp"

namespace fvn::dataflow {

/// The compiled pipeline for one (rule, delta position) pair.
struct Strand {
  std::size_t rule_index = 0;      // into Plan::program.rules
  std::string rule_label;          // Rule::display_name()
  std::string delta_predicate;     // predicate consumed by the Delta element
  std::size_t delta_position = 0;  // index among the rule's positive atoms
  /// A dead strand can never emit (an undischargeable check or an atom
  /// argument mentioning a never-bound variable) — mirroring the
  /// interpreter, which silently enumerates zero solutions for such rules.
  bool dead = false;
  std::vector<Element> elements;
  std::size_t nslots = 0;               // register-file size
  std::vector<std::string> slot_names;  // slot -> variable name (dumps)
};

/// Compilation of one aggregate rule: either true incremental view
/// maintenance (per-group multiset state updated by ±delta strands) or the
/// interpreter-identical full recompute fallback.
struct AggregateRulePlan {
  std::size_t rule_index = 0;
  std::string rule_label;
  bool incremental = true;
  std::string mode_reason;  // why recompute was forced (empty if incremental)
  ndlog::AggKind kind = ndlog::AggKind::Min;
  std::size_t agg_pos = 0;
  /// Incremental mode: one maintenance strand per positive atom position,
  /// each terminated by an Aggregate element.
  std::vector<Strand> strands;
  /// Every predicate the rule body reads (positive and negated) — the
  /// engine's dirty-tracking set.
  std::set<std::string> body_predicates;
};

struct PlanOptions {
  /// When false every aggregate rule uses the recompute fallback (ablation).
  bool incremental_aggregates = true;
  /// Reorder each rule's body atoms into the statically cheapest join order
  /// (ndlog::cost::plan_orders) before building strands. Only rules whose
  /// reordering provably cannot change the final database are touched, so
  /// the fixpoint stays bit-identical to the interpreter's.
  bool cost_order = false;
};

/// A compiled program: self-contained (owns a copy of the localized program
/// so plans can be dumped or executed independently of the caller's AST).
struct Plan {
  ndlog::Program program;
  /// Rule bodies were permuted by the cost-guided join-order pass.
  bool cost_ordered = false;
  std::vector<Strand> strands;               // (rule order, delta position)
  std::vector<AggregateRulePlan> aggregates; // rule order
  /// delta predicate -> strand indices, preserving global strand order.
  std::map<std::string, std::vector<std::size_t>> strands_by_predicate;

  /// Interned dispatch tables. Every predicate the engine can be handed a
  /// delta for — normal-strand delta predicates, aggregate body predicates,
  /// aggregate maintenance-strand deltas — gets a dense id at compile time.
  /// The engine's hot path then costs one hash probe per delta instead of a
  /// std::map string walk plus per-aggregate set<string> membership scans.
  std::unordered_map<std::string, std::uint32_t> predicate_ids;
  /// id -> normal strand indices (same contents/order as strands_by_predicate).
  std::vector<std::vector<std::size_t>> strands_by_id;
  /// id -> aggregate indices whose body reads the predicate (dirty marking).
  std::vector<std::vector<std::size_t>> aggregates_by_id;
  /// id -> (aggregate index, maintenance strand index) pairs whose delta is
  /// the predicate, in (aggregate, strand) order — incremental plans only.
  std::vector<std::vector<std::pair<std::size_t, std::size_t>>> agg_strands_by_id;

  /// Interned id for a predicate, or -1 when the plan never dispatches on it.
  int pred_id(const std::string& predicate) const {
    auto it = predicate_ids.find(predicate);
    return it == predicate_ids.end() ? -1 : static_cast<int>(it->second);
  }

  std::size_t element_count() const;
  /// Graphviz rendering: one cluster per strand.
  std::string to_dot() const;
  /// Machine-readable rendering (parsable by obs::json).
  std::string to_json() const;
  /// Compact per-strand text ("r2[d1] link -> join path@0 ..."), for the CLI.
  std::string summary() const;
};

/// Compile an already-localized program (run runtime::localize first; the
/// planner itself is location-agnostic and never rewrites rules). Throws
/// ndlog::AnalysisError on rules that violate planning preconditions the
/// safety check would also reject (unbound head/aggregate variables).
Plan compile(const ndlog::Program& localized, const PlanOptions& options = {});

}  // namespace fvn::dataflow
