#include "translate/ndlog_to_logic.hpp"

#include <algorithm>
#include <map>
#include <set>

namespace fvn::translate {

using logic::Formula;
using logic::FormulaPtr;
using logic::InductiveDef;
using logic::LTerm;
using logic::LTermPtr;
using logic::Sort;
using logic::Theory;
using logic::TypedVar;
using ndlog::Atom;
using ndlog::BodyAtom;
using ndlog::Comparison;
using ndlog::Program;
using ndlog::Rule;

Sort sort_of_variable(const std::string& name) {
  if (name.empty()) return Sort::Unknown;
  // Path vectors: P, P2, Path...
  if (name[0] == 'P') return Sort::Path;
  // Metrics and local preferences.
  if (name[0] == 'C' || name == "LP" || name.rfind("LP", 0) == 0 ||
      name[0] == 'B') {
    return Sort::Metric;
  }
  if (name[0] == 'T') return Sort::Time;
  // Node-valued names used throughout the paper.
  static const char node_initials[] = {'S', 'D', 'Z', 'N', 'U', 'W', 'M', 'X', 'Y'};
  for (char c : node_initials) {
    if (name[0] == c) return Sort::Node;
  }
  return Sort::Unknown;
}

logic::LTermPtr translate_term(const ndlog::TermPtr& term) {
  switch (term->kind) {
    case ndlog::Term::Kind::Var:
      return LTerm::var(term->name);
    case ndlog::Term::Kind::Const:
      return LTerm::constant_of(term->constant);
    case ndlog::Term::Kind::Func: {
      std::vector<LTermPtr> args;
      args.reserve(term->args.size());
      for (const auto& a : term->args) args.push_back(translate_term(a));
      return LTerm::func(term->name, std::move(args));
    }
    case ndlog::Term::Kind::Binary:
      return LTerm::arith(term->op, translate_term(term->args[0]),
                          translate_term(term->args[1]));
  }
  throw TranslateError("unreachable term kind");
}

namespace {

/// Conjunction of the translations of a rule body (relational atoms become
/// predicates, `=` becomes equality, negation becomes NOT).
FormulaPtr translate_body(const Rule& rule) {
  std::vector<FormulaPtr> conjuncts;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      std::vector<LTermPtr> args;
      args.reserve(ba->atom.args.size());
      for (const auto& a : ba->atom.args) args.push_back(translate_term(a));
      FormulaPtr p = Formula::pred(ba->atom.predicate, std::move(args));
      conjuncts.push_back(ba->negated ? Formula::negate(std::move(p)) : std::move(p));
    } else {
      const auto& cmp = std::get<Comparison>(elem);
      conjuncts.push_back(
          Formula::cmp(cmp.op, translate_term(cmp.lhs), translate_term(cmp.rhs)));
    }
  }
  return Formula::conj(std::move(conjuncts));
}

std::vector<TypedVar> typed(const std::vector<std::string>& names) {
  std::vector<TypedVar> out;
  out.reserve(names.size());
  for (const auto& n : names) out.push_back(TypedVar{n, sort_of_variable(n)});
  return out;
}

/// Head parameter names for a predicate: prefer the head variables of the
/// first defining rule where the argument is a plain variable; fall back to
/// A1..An. The aggregate position reuses the aggregate variable's name.
std::vector<std::string> param_names(const std::vector<const Rule*>& rules) {
  const std::size_t arity = rules.front()->head.args.size();
  std::vector<std::string> names(arity);
  for (std::size_t i = 0; i < arity; ++i) {
    std::string fallback = "A";
    fallback += std::to_string(i + 1);
    names[i] = std::move(fallback);
    for (const Rule* rule : rules) {
      const auto& arg = rule->head.args[i];
      if (arg.is_agg()) {
        names[i] = arg.agg_var;
        break;
      }
      if (arg.term->kind == ndlog::Term::Kind::Var) {
        names[i] = arg.term->name;
        break;
      }
    }
  }
  // Deduplicate repeated names (e.g. head `route(@S,S,...)`): suffix later
  // occurrences.
  std::set<std::string> seen;
  for (auto& n : names) {
    std::string candidate = n;
    int k = 0;
    while (seen.count(candidate)) candidate = n + "_" + std::to_string(++k);
    seen.insert(candidate);
    n = candidate;
  }
  return names;
}

/// Translate one non-aggregate rule into a clause over `params`.
FormulaPtr rule_clause(const Rule& rule, const std::vector<std::string>& params) {
  // Variables of the rule that also serve as head parameters are identified
  // with the parameter (substitution); everything else is existential.
  FormulaPtr body = translate_body(rule);

  std::vector<FormulaPtr> eqs;
  std::map<std::string, std::string> head_var_to_param;  // first occurrence
  for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
    const auto& arg = rule.head.args[i];
    LTermPtr head_term = translate_term(arg.term);
    if (arg.term->kind == ndlog::Term::Kind::Var) {
      auto [it, inserted] = head_var_to_param.emplace(arg.term->name, params[i]);
      if (inserted) continue;  // identified below via substitution
      // Repeated head variable: param_i = param_first.
      eqs.push_back(Formula::eq(LTerm::var(params[i]), LTerm::var(it->second)));
      continue;
    }
    eqs.push_back(Formula::eq(LTerm::var(params[i]), head_term));
  }

  // Rename head variables to parameter names inside the body and the
  // equality conjuncts (a complex head term may itself mention head vars).
  for (const auto& [var, param] : head_var_to_param) {
    if (var == param) continue;
    body = body->substitute(var, LTerm::var(param));
    for (auto& e : eqs) e = e->substitute(var, LTerm::var(param));
  }

  // Existentials: free body variables that are not parameters.
  std::set<std::string> frees;
  body->free_vars(frees);
  for (const auto& e : eqs) e->free_vars(frees);
  std::vector<std::string> ex;
  for (const auto& v : frees) {
    if (std::find(params.begin(), params.end(), v) == params.end()) ex.push_back(v);
  }

  std::vector<FormulaPtr> all = std::move(eqs);
  all.push_back(std::move(body));
  FormulaPtr clause = Formula::conj(std::move(all));
  return Formula::exists(typed(ex), std::move(clause));
}

/// Translate an aggregate rule into its first-order characterization.
FormulaPtr agg_clause(const Rule& rule, const std::vector<std::string>& params,
                      logic::NameSupply& fresh) {
  std::size_t agg_pos = rule.head.args.size();
  for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
    if (rule.head.args[i].is_agg()) agg_pos = i;
  }
  const auto& agg = rule.head.args[agg_pos];
  if (*agg.agg != ndlog::AggKind::Min && *agg.agg != ndlog::AggKind::Max) {
    throw TranslateError("rule " + rule.name +
                         ": only min/max aggregates have a first-order translation");
  }

  // Existence part: the body holds with the aggregate variable equal to the
  // aggregate parameter. Build it like a normal rule whose head has the
  // aggregate variable in the aggregate position.
  Rule exists_rule = rule;
  exists_rule.head.args[agg_pos] = ndlog::HeadArg::plain(ndlog::Term::var(agg.agg_var));
  FormulaPtr existence = rule_clause(exists_rule, params);

  // Optimality part: every body solution (with all non-parameter variables
  // renamed fresh) has aggregate value >= (min) / <= (max) the parameter.
  FormulaPtr body = translate_body(rule);
  // Identify group-by head vars with params.
  std::map<std::string, std::string> head_var_to_param;
  for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
    if (i == agg_pos) continue;
    const auto& arg = rule.head.args[i];
    if (arg.term->kind == ndlog::Term::Kind::Var) {
      head_var_to_param.emplace(arg.term->name, params[i]);
    }
  }
  for (const auto& [var, param] : head_var_to_param) {
    if (var != param) body = body->substitute(var, LTerm::var(param));
  }
  // Fresh-rename every remaining non-parameter variable (including the
  // aggregate variable).
  std::set<std::string> frees;
  body->free_vars(frees);
  std::map<std::string, std::string> renaming;
  for (const auto& v : frees) {
    // The aggregate variable itself must be renamed even though it names the
    // aggregate parameter: in the optimality part it ranges over arbitrary
    // solutions, not the selected optimum.
    if (v != agg.agg_var &&
        std::find(params.begin(), params.end(), v) != params.end()) {
      continue;
    }
    renaming[v] = fresh.fresh(v);
  }
  for (const auto& [from, to] : renaming) body = body->substitute(from, LTerm::var(to));
  const std::string renamed_agg =
      renaming.count(agg.agg_var) ? renaming.at(agg.agg_var) : agg.agg_var;

  FormulaPtr bound =
      *agg.agg == ndlog::AggKind::Min
          ? Formula::cmp(ndlog::CmpOp::Le, LTerm::var(params[agg_pos]),
                         LTerm::var(renamed_agg))
          : Formula::cmp(ndlog::CmpOp::Ge, LTerm::var(params[agg_pos]),
                         LTerm::var(renamed_agg));

  std::vector<std::string> universals;
  for (const auto& [from, to] : renaming) universals.push_back(to);
  FormulaPtr optimality = Formula::forall(
      typed(universals), Formula::implies(std::move(body), std::move(bound)));

  return Formula::conj({std::move(existence), std::move(optimality)});
}

}  // namespace

logic::InductiveDef predicate_to_inductive(const Program& program,
                                           const std::string& predicate,
                                           const LogicOptions& options) {
  (void)options;
  std::vector<const Rule*> rules;
  for (const auto& rule : program.rules) {
    if (rule.head.predicate == predicate && !rule.is_fact()) rules.push_back(&rule);
  }
  if (rules.empty()) {
    throw TranslateError("predicate '" + predicate + "' has no defining rules");
  }
  const auto params = param_names(rules);

  InductiveDef def;
  def.pred_name = predicate;
  for (const auto& p : params) def.params.push_back(TypedVar{p, sort_of_variable(p)});

  logic::NameSupply fresh;
  for (const Rule* rule : rules) {
    def.clauses.push_back(rule->head.has_aggregate() ? agg_clause(*rule, params, fresh)
                                                     : rule_clause(*rule, params));
  }
  return def;
}

logic::Theory to_logic(const Program& program, const LogicOptions& options) {
  Theory theory;
  theory.name = program.name;
  for (const auto& pred : ndlog::derived_predicates(program)) {
    theory.definitions.push_back(predicate_to_inductive(program, pred, options));
  }
  return theory;
}

}  // namespace fvn::translate
