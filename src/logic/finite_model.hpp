// Finite-model semantics for FVN formulas: evaluate a Formula against a
// concrete finite structure (relations = tuple sets, functions = the NDlog
// built-ins, quantifiers ranging over a finite per-sort domain).
//
// Used to (a) validate the property-preserving translations of arcs 3/4 on
// concrete instances, (b) search for counterexamples before attempting a
// proof, and (c) give the model checker a property language.
#pragma once

#include <map>
#include <optional>
#include <vector>

#include "logic/formula.hpp"
#include "ndlog/database.hpp"

namespace fvn::logic {

/// A finite first-order structure.
class FiniteModel {
 public:
  /// Interpret every relation of `db` and (by default) harvest the domain:
  /// every value occurring in any tuple joins the domain of its matching
  /// sort (addresses → Node, ints/doubles → Metric, lists → Path, ...).
  void load_database(const ndlog::Database& db, bool harvest_domain = true);

  void add_tuple(const ndlog::Tuple& tuple);
  void add_domain_value(Sort sort, Value v);
  /// Extra Metric values worth quantifying over (e.g. bounds in properties).
  void add_metric_range(std::int64_t lo, std::int64_t hi);

  const std::vector<Value>& domain(Sort sort) const;

  /// Evaluate a closed formula (or one whose free variables are bound by
  /// `env`). Quantifiers enumerate the per-sort domain; Sort::Unknown ranges
  /// over the union of all domains.
  bool eval(const Formula& formula,
            const std::map<std::string, Value>& env = {}) const;

  /// Evaluate a term; throws TypeError on unbound variables.
  Value eval_term(const LTerm& term, const std::map<std::string, Value>& env) const;

  /// Number of ground quantifier instantiations performed by the last eval.
  std::size_t last_instantiations() const noexcept { return instantiations_; }

 private:
  std::map<std::string, ndlog::TupleSet> relations_;
  std::map<Sort, std::vector<Value>> domains_;
  std::vector<Value> universe_;  // union, deduplicated
  mutable std::size_t instantiations_ = 0;

  void note_domain(const Value& v);
  bool eval_inner(const Formula& formula, std::map<std::string, Value>& env) const;
};

}  // namespace fvn::logic
