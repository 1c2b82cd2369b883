// Goal-directed querying (declarative networking's "network queries", §2.2):
// evaluate only the rules relevant to a goal predicate (backward reachability
// over the dependency graph — a lightweight magic-sets cousin) and filter the
// goal relation against the query pattern's constants.
#pragma once

#include "ndlog/eval.hpp"

namespace fvn::ndlog {

struct QueryOptions {
  EvalOptions eval;
};

struct QueryResult {
  /// Tuples of the goal predicate matching the query pattern.
  TupleSet answers;
  /// Bindings of the pattern's variables, one map per answer.
  std::vector<Bindings> bindings;
  EvalStats stats;
  std::size_t rules_total = 0;
  std::size_t rules_relevant = 0;
};

/// Predicates the goal predicate transitively depends on (including itself).
std::set<std::string> relevant_predicates(const Program& program,
                                          const std::string& goal_predicate);

/// The program restricted to rules whose heads are relevant to the goal.
Program restrict_to_goal(const Program& program, const std::string& goal_predicate);

/// Evaluate the restricted program over `facts` and match `goal` (an atom
/// whose arguments are constants — filters — or variables — outputs).
QueryResult query(const Program& program, const Atom& goal,
                  const std::vector<Tuple>& facts, const QueryOptions& options = {});

/// The goal read with parse_atom, e.g. "bestPath(@n0, n3, P, C)": one atom
/// and nothing after it.
QueryResult query(const Program& program, std::string_view goal_text,
                  const std::vector<Tuple>& facts, const QueryOptions& options = {});

}  // namespace fvn::ndlog
