#include "ndlog/query.hpp"

#include <deque>

#include "ndlog/analysis.hpp"
#include "ndlog/parser.hpp"

namespace fvn::ndlog {

std::set<std::string> relevant_predicates(const Program& program,
                                          const std::string& goal_predicate) {
  // Backward reachability: head -> body edges.
  std::map<std::string, std::set<std::string>> depends_on;
  for (const auto& rule : program.rules) {
    auto& deps = depends_on[rule.head.predicate];
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        deps.insert(ba->atom.predicate);
      }
    }
  }
  std::set<std::string> relevant{goal_predicate};
  std::deque<std::string> frontier{goal_predicate};
  while (!frontier.empty()) {
    const std::string current = frontier.front();
    frontier.pop_front();
    auto it = depends_on.find(current);
    if (it == depends_on.end()) continue;
    for (const auto& dep : it->second) {
      if (relevant.insert(dep).second) frontier.push_back(dep);
    }
  }
  return relevant;
}

Program restrict_to_goal(const Program& program, const std::string& goal_predicate) {
  const auto relevant = relevant_predicates(program, goal_predicate);
  Program out;
  out.name = program.name + "_query_" + goal_predicate;
  for (const auto& m : program.materializations) {
    if (relevant.count(m.predicate)) out.materializations.push_back(m);
  }
  for (const auto& rule : program.rules) {
    if (relevant.count(rule.head.predicate)) out.rules.push_back(rule);
  }
  return out;
}

QueryResult query(const Program& program, const Atom& goal,
                  const std::vector<Tuple>& facts, const QueryOptions& options) {
  QueryResult result;
  result.rules_total = program.rules.size();
  Program restricted = restrict_to_goal(program, goal.predicate);
  result.rules_relevant = restricted.rules.size();

  auto evaluated = Evaluator().run(restricted, facts, options.eval);
  result.stats = evaluated.stats;

  for (const auto& t : evaluated.database.relation(goal.predicate)) {
    Bindings env;
    if (!match_atom(goal, t, env)) continue;
    result.answers.insert(t);
    result.bindings.push_back(std::move(env));
  }
  return result;
}

QueryResult query(const Program& program, std::string_view goal_text,
                  const std::vector<Tuple>& facts, const QueryOptions& options) {
  return query(program, parse_atom(goal_text), facts, options);
}

}  // namespace fvn::ndlog
