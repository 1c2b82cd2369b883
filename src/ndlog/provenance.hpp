// Derivation provenance: the proof-theoretic semantics of NDlog made
// concrete. Every derived tuple carries a derivation tree (which rule fired,
// from which premise tuples, under which side conditions) — the operational
// counterpart of the inductive definitions produced by arc 4. Footnote 1 of
// the paper ("the equivalence of NDlog's proof-theoretic and operational
// semantics guarantees that FVN is sound") is checkable: every derivation
// step must satisfy the corresponding clause of the translated theory
// (see translate/ndlog_to_logic.hpp and the provenance tests).
#pragma once

#include <map>
#include <memory>

#include "ndlog/eval.hpp"

namespace fvn::ndlog {

struct Derivation;
using DerivationPtr = std::shared_ptr<const Derivation>;

/// One node of a derivation tree.
struct Derivation {
  Tuple tuple;
  /// Name of the rule that produced the tuple; empty for base facts.
  std::string rule;
  /// Premise derivations (the rule's positive body atoms, instantiated).
  std::vector<DerivationPtr> premises;
  /// Satisfied side conditions (comparisons / negated atoms), rendered.
  std::vector<std::string> side_conditions;

  bool is_base_fact() const noexcept { return rule.empty(); }
  std::size_t height() const;
  std::size_t size() const;  // total nodes
  /// Indented proof-tree rendering.
  std::string to_string(std::size_t indent = 0) const;
};

/// Result of a provenance-recording evaluation: the database plus one
/// (first-found) derivation per derived tuple.
struct ProvenanceResult {
  Database database;
  std::map<Tuple, DerivationPtr> derivations;
  EvalStats stats;

  /// Derivation of `tuple` (nullptr if not derived).
  DerivationPtr derivation_of(const Tuple& tuple) const;
};

/// Evaluator::run with provenance recording: the evaluator tells this
/// function of every tuple it adds, with the body solution that derived it,
/// so database, stats and options mean what they mean for run(). An
/// aggregate row cites its group's witness as its premises: for min/max the
/// first solution that reached the winning value, for count/sum the group's
/// first solution.
ProvenanceResult eval_with_provenance(const Program& program,
                                      const std::vector<Tuple>& base_facts,
                                      const EvalOptions& options = {});

}  // namespace fvn::ndlog
