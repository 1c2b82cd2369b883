#include "prover/prover.hpp"

#include <algorithm>
#include <chrono>
#include <functional>
#include <sstream>

#include "prover/linear.hpp"
#include "prover/rewrite.hpp"

namespace fvn::prover {

using logic::Formula;
using logic::FormulaPtr;
using logic::InductiveDef;
using logic::LTerm;
using logic::LTermPtr;
using logic::Sort;
using logic::TypedVar;

std::string Sequent::to_string() const {
  std::string out;
  for (const auto& a : ante) out += "  " + a->to_string() + "\n";
  out += "  |-------\n";
  for (const auto& c : cons) out += "  " + c->to_string() + "\n";
  return out;
}

std::string Command::to_string() const {
  switch (kind) {
    case Kind::Skolem: return "(skolem!)";
    case Kind::Flatten: return "(flatten)";
    case Kind::Split: return "(split)";
    case Kind::Expand: return "(expand \"" + pred + "\")";
    case Kind::Inst: {
      std::string out = "(inst";
      for (const auto& t : terms) {
        out += ' ';
        out += t->to_string();
      }
      return out + ")";
    }
    case Kind::Assert: return "(assert)";
    case Kind::Induct: return "(induct \"" + pred + "\")";
    case Kind::Grind: return "(grind)";
    case Kind::Case: return "(case " + (formula ? formula->to_string() : "?") + ")";
  }
  return "(?)";
}

std::size_t ProofResult::automated_steps() const noexcept {
  return static_cast<std::size_t>(
      std::count_if(steps.begin(), steps.end(), [](const ProofStep& s) { return s.automated; }));
}

Prover::Prover(logic::Theory theory) : theory_(std::move(theory)) {}

void Prover::add_axiom(logic::Theorem axiom) { axioms_.push_back(std::move(axiom)); }

bool Prover::is_recursive(const std::string& pred) const {
  const InductiveDef* def = theory_.find_definition(pred);
  if (!def) return false;
  bool found = false;
  std::function<void(const Formula&)> walk = [&](const Formula& f) {
    if (f.kind == Formula::Kind::Pred && f.pred_name == pred) found = true;
    for (const auto& s : f.subs) walk(*s);
  };
  for (const auto& c : def->clauses) walk(*c);
  return found;
}

FormulaPtr Prover::refresh_binders(const FormulaPtr& f, State& state) const {
  if (f->kind == Formula::Kind::Forall || f->kind == Formula::Kind::Exists) {
    FormulaPtr body = f->subs[0];
    std::vector<TypedVar> new_binders;
    new_binders.reserve(f->binders.size());
    for (const auto& b : f->binders) {
      const std::string fresh = state.supply.fresh(b.name);
      state.sorts[fresh] = b.sort;
      new_binders.push_back(TypedVar{fresh, b.sort});
      body = body->substitute(b.name, LTerm::var(fresh));
    }
    body = refresh_binders(body, state);
    return f->kind == Formula::Kind::Forall
               ? Formula::forall(std::move(new_binders), std::move(body))
               : Formula::exists(std::move(new_binders), std::move(body));
  }
  if (f->subs.empty()) return f;
  auto copy = std::make_shared<Formula>(*f);
  for (auto& s : copy->subs) s = refresh_binders(s, state);
  return copy;
}

FormulaPtr Prover::instantiate_formula(const FormulaPtr& formula,
                                       const std::vector<TypedVar>& params,
                                       const std::vector<LTermPtr>& args,
                                       State& state) const {
  FormulaPtr body = refresh_binders(formula, state);
  std::vector<std::string> temps;
  for (const auto& p : params) {
    const std::string tmp = state.supply.fresh("#" + p.name);
    temps.push_back(tmp);
    body = body->substitute(p.name, LTerm::var(tmp));
  }
  for (std::size_t i = 0; i < params.size(); ++i) {
    body = body->substitute(temps[i], args[i]);
  }
  return body;
}

FormulaPtr Prover::instantiate_def(const InductiveDef& def,
                                   const std::vector<LTermPtr>& args,
                                   State& state) const {
  FormulaPtr body = refresh_binders(def.body(), state);
  // Substitute params by args. Two-phase (via fresh intermediates) to avoid
  // capture when an arg mentions a name equal to a later param.
  std::vector<std::string> temps;
  for (const auto& p : def.params) {
    const std::string tmp = state.supply.fresh("#" + p.name);
    temps.push_back(tmp);
    body = body->substitute(p.name, LTerm::var(tmp));
  }
  for (std::size_t i = 0; i < def.params.size(); ++i) {
    body = body->substitute(temps[i], args[i]);
  }
  return body;
}

// ---------------------------------------------------------------------------
// Sequent helpers
// ---------------------------------------------------------------------------

namespace {

bool contains_formula(const std::vector<FormulaPtr>& fs, const Formula& f) {
  return std::any_of(fs.begin(), fs.end(),
                     [&](const FormulaPtr& g) { return g->equals(f); });
}

void push_unique(std::vector<FormulaPtr>& fs, FormulaPtr f) {
  if (!contains_formula(fs, *f)) fs.push_back(std::move(f));
}

/// Negation of a comparison as a comparison (for arithmetic refutation).
FormulaPtr negate_cmp(const Formula& f) {
  return Formula::cmp(ndlog::negate(f.cmp_op), f.terms[0], f.terms[1]);
}

}  // namespace

bool Prover::closed(const Sequent& s) const {
  for (const auto& a : s.ante) {
    if (a->kind == Formula::Kind::False) return true;
    if (contains_formula(s.cons, *a)) return true;
  }
  for (const auto& c : s.cons) {
    if (c->kind == Formula::Kind::True) return true;
  }
  return false;
}

bool Prover::simplify(Sequent& s) const {
  bool changed = true;
  int guard = 64;
  while (changed && guard-- > 0) {
    changed = false;
    // Rewrite + drop trivials.
    std::vector<FormulaPtr> new_ante, new_cons;
    for (auto& a : s.ante) {
      FormulaPtr r = rewrite_formula(a);
      if (r->kind == Formula::Kind::True) {
        changed = true;
        continue;
      }
      changed = changed || !r->equals(*a);
      push_unique(new_ante, std::move(r));
    }
    for (auto& c : s.cons) {
      FormulaPtr r = rewrite_formula(c);
      if (r->kind == Formula::Kind::False) {
        changed = true;
        continue;
      }
      changed = changed || !r->equals(*c);
      push_unique(new_cons, std::move(r));
    }
    s.ante = std::move(new_ante);
    s.cons = std::move(new_cons);
    if (closed(s)) return true;

    // Flatten antecedent conjunctions (cheap, keeps MP effective).
    std::vector<FormulaPtr> flat;
    for (const auto& a : s.ante) {
      if (a->kind == Formula::Kind::And) {
        for (const auto& sub : a->subs) push_unique(flat, sub);
        changed = true;
      } else {
        push_unique(flat, a);
      }
    }
    s.ante = std::move(flat);

    // Modus ponens: ante implication whose hypothesis is (conjunction of)
    // present antecedents.
    for (const auto& a : s.ante) {
      if (a->kind != Formula::Kind::Implies) continue;
      const FormulaPtr& hyp = a->subs[0];
      bool have = false;
      if (contains_formula(s.ante, *hyp)) {
        have = true;
      } else if (hyp->kind == Formula::Kind::And) {
        have = std::all_of(hyp->subs.begin(), hyp->subs.end(), [&](const FormulaPtr& h) {
          return contains_formula(s.ante, *h);
        });
      }
      if (have && !contains_formula(s.ante, *a->subs[1])) {
        s.ante.push_back(a->subs[1]);
        changed = true;
        break;  // restart (iterator invalidation)
      }
    }

    // Equality substitution: ante  X = t  (or t = X) with X a variable not
    // occurring in t — substitute X by t everywhere and drop the equation.
    for (std::size_t i = 0; i < s.ante.size(); ++i) {
      const auto& a = s.ante[i];
      if (a->kind != Formula::Kind::Cmp || a->cmp_op != ndlog::CmpOp::Eq) continue;
      const LTermPtr* var_side = nullptr;
      const LTermPtr* term_side = nullptr;
      if (a->terms[0]->kind == LTerm::Kind::Var) {
        var_side = &a->terms[0];
        term_side = &a->terms[1];
      } else if (a->terms[1]->kind == LTerm::Kind::Var) {
        var_side = &a->terms[1];
        term_side = &a->terms[0];
      }
      if (!var_side) continue;
      std::set<std::string> tv;
      (*term_side)->free_vars(tv);
      if (tv.count((*var_side)->name)) continue;
      const std::string var = (*var_side)->name;
      const LTermPtr replacement = *term_side;
      Sequent next;
      for (std::size_t j = 0; j < s.ante.size(); ++j) {
        if (j == i) continue;
        next.ante.push_back(s.ante[j]->substitute(var, replacement));
      }
      for (const auto& c : s.cons) next.cons.push_back(c->substitute(var, replacement));
      s = std::move(next);
      changed = true;
      break;
    }
    if (closed(s)) return true;
  }
  return closed(s) || arith_closes(s);
}

bool Prover::arith_closes(const Sequent& s) const {
  std::vector<LinearConstraint> constraints;
  bool any_numeric = false;
  for (const auto& a : s.ante) {
    if (a->kind != Formula::Kind::Cmp) continue;
    if (auto cs = constraint_of(*a)) {
      constraints.insert(constraints.end(), cs->begin(), cs->end());
      any_numeric = true;
    }
  }
  std::vector<const Formula*> eq_cons;  // consequent equalities: special-cased
  for (const auto& c : s.cons) {
    if (c->kind != Formula::Kind::Cmp) continue;
    if (c->cmp_op == ndlog::CmpOp::Eq) {
      eq_cons.push_back(c.get());
      continue;
    }
    FormulaPtr neg = negate_cmp(*c);
    if (auto cs = constraint_of(*neg)) {
      constraints.insert(constraints.end(), cs->begin(), cs->end());
      any_numeric = true;
    }
  }
  if (!any_numeric && eq_cons.empty()) return false;
  if (!constraints.empty() && infeasible(constraints)) return true;

  // Consequent equality a=b: closed if both assuming a<b and assuming b>a
  // are infeasible with the antecedent constraints.
  for (const Formula* eq : eq_cons) {
    auto lt = Formula::cmp(ndlog::CmpOp::Lt, eq->terms[0], eq->terms[1]);
    auto gt = Formula::cmp(ndlog::CmpOp::Gt, eq->terms[0], eq->terms[1]);
    auto cs_lt = constraint_of(*lt);
    auto cs_gt = constraint_of(*gt);
    if (!cs_lt || !cs_gt) continue;
    auto with_lt = constraints;
    with_lt.insert(with_lt.end(), cs_lt->begin(), cs_lt->end());
    auto with_gt = constraints;
    with_gt.insert(with_gt.end(), cs_gt->begin(), cs_gt->end());
    if (infeasible(with_lt) && infeasible(with_gt)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Tactics
// ---------------------------------------------------------------------------

bool Prover::tac_skolem(State& state) const {
  Sequent& s = state.goals.front();
  bool progress = false;
  bool again = true;
  int guard = 64;
  while (again && guard-- > 0) {
    again = false;
    for (auto& c : s.cons) {
      if (c->kind != Formula::Kind::Forall) continue;
      FormulaPtr body = c->subs[0];
      for (const auto& b : c->binders) {
        const std::string fresh = state.supply.fresh(b.name);
        state.sorts[fresh] = b.sort;
        body = body->substitute(b.name, LTerm::var(fresh));
      }
      c = body;
      progress = again = true;
      break;
    }
    for (auto& a : s.ante) {
      if (a->kind != Formula::Kind::Exists) continue;
      FormulaPtr body = a->subs[0];
      for (const auto& b : a->binders) {
        const std::string fresh = state.supply.fresh(b.name);
        state.sorts[fresh] = b.sort;
        body = body->substitute(b.name, LTerm::var(fresh));
      }
      a = body;
      progress = again = true;
      break;
    }
  }
  return progress;
}

bool Prover::tac_flatten(State& state) const {
  Sequent& s = state.goals.front();
  bool progress = false;
  bool again = true;
  int guard = 128;
  while (again && guard-- > 0) {
    again = false;
    for (std::size_t i = 0; i < s.cons.size(); ++i) {
      const FormulaPtr c = s.cons[i];
      if (c->kind == Formula::Kind::Implies) {
        s.cons.erase(s.cons.begin() + static_cast<std::ptrdiff_t>(i));
        push_unique(s.ante, c->subs[0]);
        push_unique(s.cons, c->subs[1]);
        progress = again = true;
        break;
      }
      if (c->kind == Formula::Kind::Or) {
        s.cons.erase(s.cons.begin() + static_cast<std::ptrdiff_t>(i));
        for (const auto& sub : c->subs) push_unique(s.cons, sub);
        progress = again = true;
        break;
      }
      if (c->kind == Formula::Kind::Not) {
        s.cons.erase(s.cons.begin() + static_cast<std::ptrdiff_t>(i));
        push_unique(s.ante, c->subs[0]);
        progress = again = true;
        break;
      }
    }
    if (again) continue;
    for (std::size_t i = 0; i < s.ante.size(); ++i) {
      const FormulaPtr a = s.ante[i];
      if (a->kind == Formula::Kind::And) {
        s.ante.erase(s.ante.begin() + static_cast<std::ptrdiff_t>(i));
        for (const auto& sub : a->subs) push_unique(s.ante, sub);
        progress = again = true;
        break;
      }
      if (a->kind == Formula::Kind::Not) {
        s.ante.erase(s.ante.begin() + static_cast<std::ptrdiff_t>(i));
        push_unique(s.cons, a->subs[0]);
        progress = again = true;
        break;
      }
      if (a->kind == Formula::Kind::True) {
        s.ante.erase(s.ante.begin() + static_cast<std::ptrdiff_t>(i));
        progress = again = true;
        break;
      }
    }
  }
  return progress;
}

bool Prover::tac_split(State& state) const {
  Sequent s = state.goals.front();
  // Consequent conjunction.
  for (std::size_t i = 0; i < s.cons.size(); ++i) {
    if (s.cons[i]->kind != Formula::Kind::And) continue;
    const FormulaPtr target = s.cons[i];
    state.goals.erase(state.goals.begin());
    std::vector<Sequent> subgoals;
    for (const auto& member : target->subs) {
      Sequent sub = s;
      sub.cons[i] = member;
      subgoals.push_back(std::move(sub));
    }
    state.goals.insert(state.goals.begin(), subgoals.begin(), subgoals.end());
    return true;
  }
  // Antecedent disjunction.
  for (std::size_t i = 0; i < s.ante.size(); ++i) {
    if (s.ante[i]->kind != Formula::Kind::Or) continue;
    const FormulaPtr target = s.ante[i];
    state.goals.erase(state.goals.begin());
    std::vector<Sequent> subgoals;
    for (const auto& member : target->subs) {
      Sequent sub = s;
      sub.ante[i] = member;
      subgoals.push_back(std::move(sub));
    }
    state.goals.insert(state.goals.begin(), subgoals.begin(), subgoals.end());
    return true;
  }
  // Antecedent implication: prove the hypothesis, or use the conclusion.
  for (std::size_t i = 0; i < s.ante.size(); ++i) {
    if (s.ante[i]->kind != Formula::Kind::Implies) continue;
    const FormulaPtr target = s.ante[i];
    state.goals.erase(state.goals.begin());
    Sequent use = s;
    use.ante[i] = target->subs[1];
    Sequent prove_hyp = s;
    prove_hyp.ante.erase(prove_hyp.ante.begin() + static_cast<std::ptrdiff_t>(i));
    prove_hyp.cons.insert(prove_hyp.cons.begin(), target->subs[0]);
    state.goals.insert(state.goals.begin(), {use, prove_hyp});
    return true;
  }
  // Consequent iff.
  for (std::size_t i = 0; i < s.cons.size(); ++i) {
    if (s.cons[i]->kind != Formula::Kind::Iff) continue;
    const FormulaPtr target = s.cons[i];
    state.goals.erase(state.goals.begin());
    Sequent fwd = s;
    fwd.cons[i] = Formula::implies(target->subs[0], target->subs[1]);
    Sequent bwd = s;
    bwd.cons[i] = Formula::implies(target->subs[1], target->subs[0]);
    state.goals.insert(state.goals.begin(), {fwd, bwd});
    return true;
  }
  return false;
}

bool Prover::tac_expand(State& state, const std::string& pred) const {
  const InductiveDef* def = theory_.find_definition(pred);
  if (!def) return false;
  Sequent& s = state.goals.front();
  bool progress = false;
  std::function<FormulaPtr(const FormulaPtr&)> walk = [&](const FormulaPtr& f) -> FormulaPtr {
    if (f->kind == Formula::Kind::Pred && f->pred_name == pred &&
        f->terms.size() == def->params.size()) {
      progress = true;
      return instantiate_def(*def, f->terms, state);
    }
    if (f->subs.empty()) return f;
    auto copy = std::make_shared<Formula>(*f);
    for (auto& sub : copy->subs) sub = walk(sub);
    return copy;
  };
  for (auto& a : s.ante) a = walk(a);
  for (auto& c : s.cons) c = walk(c);
  return progress;
}

bool Prover::tac_inst(State& state, const std::vector<LTermPtr>& terms) const {
  Sequent& s = state.goals.front();
  auto instantiate = [&](const FormulaPtr& q) -> FormulaPtr {
    FormulaPtr body = q->subs[0];
    std::vector<TypedVar> rest;
    for (std::size_t i = 0; i < q->binders.size(); ++i) {
      if (i < terms.size()) {
        body = body->substitute(q->binders[i].name, terms[i]);
      } else {
        rest.push_back(q->binders[i]);
      }
    }
    return q->kind == Formula::Kind::Forall ? Formula::forall(rest, body)
                                            : Formula::exists(rest, body);
  };
  for (const auto& a : s.ante) {
    if (a->kind != Formula::Kind::Forall) continue;
    FormulaPtr inst = instantiate(a);
    if (!contains_formula(s.ante, *inst)) {
      s.ante.push_back(std::move(inst));
      return true;
    }
  }
  for (const auto& c : s.cons) {
    if (c->kind != Formula::Kind::Exists) continue;
    FormulaPtr inst = instantiate(c);
    if (!contains_formula(s.cons, *inst)) {
      s.cons.push_back(std::move(inst));
      return true;
    }
  }
  return false;
}

bool Prover::tac_assert(State& state) const {
  Sequent& s = state.goals.front();
  if (simplify(s)) {
    state.goals.erase(state.goals.begin());
    return true;
  }
  return false;
}

bool Prover::tac_case(State& state, const FormulaPtr& f) const {
  if (!f) return false;
  Sequent s = state.goals.front();
  state.goals.erase(state.goals.begin());
  Sequent with = s;
  with.ante.push_back(f);
  Sequent without = s;
  without.cons.push_back(f);
  state.goals.insert(state.goals.begin(), {with, without});
  return true;
}

bool Prover::tac_induct(State& state, const std::string& pred) const {
  const InductiveDef* def = theory_.find_definition(pred);
  if (!def) return false;
  Sequent s = state.goals.front();
  if (s.cons.size() != 1) return false;
  const FormulaPtr goal = s.cons[0];
  if (goal->kind != Formula::Kind::Forall) return false;
  const FormulaPtr body = goal->subs[0];
  if (body->kind != Formula::Kind::Implies) return false;
  const FormulaPtr head = body->subs[0];
  const FormulaPtr phi = body->subs[1];
  if (head->kind != Formula::Kind::Pred || head->pred_name != pred) return false;
  if (head->terms.size() != def->params.size()) return false;
  // The predicate's arguments must be distinct bound variables.
  std::vector<std::string> arg_vars;
  for (const auto& t : head->terms) {
    if (t->kind != LTerm::Kind::Var) return false;
    if (std::find(arg_vars.begin(), arg_vars.end(), t->name) != arg_vars.end()) return false;
    arg_vars.push_back(t->name);
  }

  state.goals.erase(state.goals.begin());
  std::vector<Sequent> subgoals;
  for (const auto& clause : def->clauses) {
    // Fresh constants for the induction variables.
    std::map<std::string, LTermPtr> consts;
    for (const auto& b : goal->binders) {
      const std::string fresh = state.supply.fresh(b.name);
      state.sorts[fresh] = b.sort;
      consts[b.name] = LTerm::var(fresh);
    }
    // Clause over the fresh constants (def params positionally match the
    // predicate arguments).
    std::vector<LTermPtr> args;
    for (const auto& v : arg_vars) args.push_back(consts.at(v));
    FormulaPtr inst_clause = instantiate_formula(clause, def->params, args, state);
    // Skolemize clause existentials so recursive occurrences are visible.
    while (inst_clause->kind == Formula::Kind::Exists) {
      FormulaPtr inner = inst_clause->subs[0];
      for (const auto& b : inst_clause->binders) {
        const std::string fresh = state.supply.fresh(b.name);
        state.sorts[fresh] = b.sort;
        inner = inner->substitute(b.name, LTerm::var(fresh));
      }
      inst_clause = inner;
    }

    Sequent sub = s;
    sub.cons.clear();
    // Antecedents: the clause conjuncts; induction hypotheses for recursive
    // occurrences at positive conjunct positions.
    std::vector<FormulaPtr> conjuncts;
    std::function<void(const FormulaPtr&)> collect = [&](const FormulaPtr& f) {
      if (f->kind == Formula::Kind::And) {
        for (const auto& c : f->subs) collect(c);
        return;
      }
      conjuncts.push_back(f);
    };
    collect(inst_clause);
    for (const auto& c : conjuncts) {
      push_unique(sub.ante, c);
      if (c->kind == Formula::Kind::Pred && c->pred_name == pred &&
          c->terms.size() == arg_vars.size()) {
        FormulaPtr ih = phi;
        // Map the induction variables to this occurrence's arguments (other
        // goal binders stay universally quantified inside phi already).
        for (std::size_t i = 0; i < arg_vars.size(); ++i) {
          ih = ih->substitute(arg_vars[i], c->terms[i]);
        }
        // Any remaining binder variables in ih refer to the outer quantifier;
        // replace with the fresh constants.
        for (const auto& [name, value] : consts) ih = ih->substitute(name, value);
        push_unique(sub.ante, ih);
      }
    }
    // Conclusion: phi at the fresh constants.
    FormulaPtr conclusion = phi;
    for (const auto& [name, value] : consts) {
      conclusion = conclusion->substitute(name, value);
    }
    sub.cons.push_back(conclusion);
    subgoals.push_back(std::move(sub));
  }
  state.goals.insert(state.goals.begin(), subgoals.begin(), subgoals.end());
  return true;
}

bool Prover::tac_auto_inst(State& state) const {
  Sequent& s = state.goals.front();
  // Candidate terms: free variables (skolem constants) and integer constants
  // occurring in the sequent, grouped by sort.
  std::set<std::string> vars;
  for (const auto& a : s.ante) a->free_vars(vars);
  for (const auto& c : s.cons) c->free_vars(vars);
  std::vector<std::pair<LTermPtr, Sort>> candidates;
  for (const auto& v : vars) {
    auto it = state.sorts.find(v);
    candidates.emplace_back(LTerm::var(v), it == state.sorts.end() ? Sort::Unknown : it->second);
  }

  auto compatible = [](Sort want, Sort have) {
    return want == Sort::Unknown || have == Sort::Unknown || want == have;
  };

  auto try_quantifier = [&](const FormulaPtr& q, bool antecedent) -> bool {
    // Enumerate combinations (bounded).
    const std::size_t n = q->binders.size();
    std::vector<std::size_t> idx(n, 0);
    std::size_t combos = 0;
    while (combos < state.options.max_inst_candidates) {
      ++combos;
      std::vector<LTermPtr> terms(n);
      bool ok = !candidates.empty();
      for (std::size_t i = 0; i < n && ok; ++i) {
        const auto& [term, sort] = candidates[idx[i] % candidates.size()];
        if (!compatible(q->binders[i].sort, sort)) ok = false;
        terms[i] = term;
      }
      if (ok) {
        FormulaPtr body = q->subs[0];
        for (std::size_t i = 0; i < n; ++i) {
          body = body->substitute(q->binders[i].name, terms[i]);
        }
        Sequent trial = s;
        if (antecedent) {
          trial.ante.push_back(body);
        } else {
          trial.cons.push_back(body);
        }
        if (simplify(trial)) {
          state.goals.front() = std::move(trial);
          state.goals.erase(state.goals.begin());
          return true;
        }
        // Keep useful instantiations even when they don't close the goal:
        // a modus-ponens-enabling antecedent instantiation is progress.
        if (antecedent && body->kind == Formula::Kind::Implies &&
            contains_formula(s.ante, *body->subs[0]) &&
            !contains_formula(s.ante, *body)) {
          s.ante.push_back(body);
          return true;
        }
      }
      // Advance the odometer.
      std::size_t pos = 0;
      while (pos < n) {
        if (++idx[pos] % std::max<std::size_t>(candidates.size(), 1) != 0) break;
        idx[pos] = 0;
        ++pos;
      }
      if (pos == n || n == 0) break;
    }
    return false;
  };

  // Index-based iteration with a copied handle: try_quantifier may push to
  // the sequent's own vectors.
  for (std::size_t i = 0; i < s.ante.size(); ++i) {
    const FormulaPtr a = s.ante[i];
    if (a->kind == Formula::Kind::Forall && try_quantifier(a, true)) return true;
  }
  for (std::size_t i = 0; i < s.cons.size(); ++i) {
    const FormulaPtr c = s.cons[i];
    if (c->kind == Formula::Kind::Exists && try_quantifier(c, false)) return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

namespace {

const char* kind_name(Command::Kind kind) {
  switch (kind) {
    case Command::Kind::Skolem: return "skolem";
    case Command::Kind::Flatten: return "flatten";
    case Command::Kind::Split: return "split";
    case Command::Kind::Expand: return "expand";
    case Command::Kind::Inst: return "inst";
    case Command::Kind::Assert: return "assert";
    case Command::Kind::Induct: return "induct";
    case Command::Kind::Case: return "case";
    case Command::Kind::Grind: return "grind";
  }
  return "unknown";
}

}  // namespace

bool Prover::run_command(const Command& cmd, State& state, bool automated,
                         ProofResult& result) {
  if (state.goals.empty()) return false;
  const std::string kind = kind_name(cmd.kind);
  if (metrics_ != nullptr) {
    metrics_->counter("prover/tactic/" + kind + "/invocations").add(1);
  }
  obs::Timer::Scope timing(metrics_ != nullptr ? &metrics_->timer("prover/tactic/" + kind)
                                               : nullptr);
  obs::Span span(trace_, cmd.to_string(), "prover/tactic");
  ProofStep step;
  step.command = cmd.to_string();
  step.automated = automated;
  step.goals_before = state.goals.size();
  bool progress = false;
  switch (cmd.kind) {
    case Command::Kind::Skolem: progress = tac_skolem(state); break;
    case Command::Kind::Flatten: progress = tac_flatten(state); break;
    case Command::Kind::Split: progress = tac_split(state); break;
    case Command::Kind::Expand: progress = tac_expand(state, cmd.pred); break;
    case Command::Kind::Inst: progress = tac_inst(state, cmd.terms); break;
    case Command::Kind::Assert: progress = tac_assert(state); break;
    case Command::Kind::Induct: progress = tac_induct(state, cmd.pred); break;
    case Command::Kind::Case: progress = tac_case(state, cmd.formula); break;
    case Command::Kind::Grind:
      // The grind command's internal micro-steps are recorded as automated;
      // the command itself still counts toward scripted_steps (in prove()).
      grind(state, result);
      return true;
  }
  step.goals_after = state.goals.size();
  result.steps.push_back(std::move(step));
  return progress;
}

void Prover::grind(State& state, ProofResult& result) {
  auto log = [&](const char* name) {
    if (metrics_ != nullptr) metrics_->counter(std::string("prover/grind/") + name).add(1);
    ProofStep step;
    step.command = std::string("(") + name + ")";
    step.automated = true;
    step.goals_before = state.goals.size();
    step.goals_after = state.goals.size();
    result.steps.push_back(std::move(step));
  };
  for (std::size_t round = 0; round < state.options.max_rounds; ++round) {
    if (state.goals.empty()) return;
    if (tac_assert(state)) {
      log("assert");
      continue;
    }
    if (tac_flatten(state)) {
      log("flatten");
      continue;
    }
    if (tac_skolem(state)) {
      log("skolem!");
      continue;
    }
    // Expand non-recursive definitions mentioned in the goal.
    bool expanded = false;
    for (const auto& def : theory_.definitions) {
      if (is_recursive(def.pred_name)) continue;
      // Present in the sequent?
      const Sequent& s = state.goals.front();
      auto mentions = [&](const FormulaPtr& f) {
        bool found = false;
        std::function<void(const Formula&)> walk = [&](const Formula& g) {
          if (g.kind == Formula::Kind::Pred && g.pred_name == def.pred_name) found = true;
          for (const auto& sub : g.subs) walk(*sub);
        };
        walk(*f);
        return found;
      };
      bool present = std::any_of(s.ante.begin(), s.ante.end(), mentions) ||
                     std::any_of(s.cons.begin(), s.cons.end(), mentions);
      if (present && tac_expand(state, def.pred_name)) {
        log(("expand " + def.pred_name).c_str());
        expanded = true;
        break;
      }
    }
    if (expanded) continue;
    if (tac_auto_inst(state)) {
      log("inst?");
      continue;
    }
    if (tac_split(state)) {
      log("split");
      continue;
    }
    return;  // stuck
  }
}

ProofResult Prover::prove(const logic::Theorem& theorem, const std::vector<Command>& script,
                          const GrindOptions& options) {
  const auto start = std::chrono::steady_clock::now();
  ProofResult result;
  State state;
  state.options = options;
  Sequent root;
  for (const auto& ax : axioms_) root.ante.push_back(ax.statement);
  root.cons.push_back(theorem.statement);
  state.goals.push_back(std::move(root));

  for (const auto& cmd : script) {
    if (state.goals.empty()) break;
    ++result.scripted_steps;
    run_command(cmd, state, /*automated=*/false, result);
  }
  result.proved = state.goals.empty();
  result.open_goals = state.goals;
  if (!result.proved) {
    result.failure_reason = std::to_string(state.goals.size()) + " open goal(s) remain";
  }
  result.elapsed_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return result;
}

ProofResult Prover::prove_auto(const logic::Theorem& theorem, const GrindOptions& options) {
  return prove(theorem, {Command::grind()}, options);
}

std::optional<std::string> Prover::find_counterexample(
    const logic::Theorem& theorem, const logic::FiniteModel& model) const {
  // A universally quantified implication fails iff the negation is
  // satisfiable; the finite model enumerates witnesses directly.
  if (model.eval(*theorem.statement)) return std::nullopt;
  // Narrow the witness: peel the outer quantifier and report the assignment
  // that falsifies the body.
  const logic::Formula& f = *theorem.statement;
  if (f.kind != Formula::Kind::Forall) return "theorem is false in the finite model";
  std::vector<const logic::TypedVar*> binders;
  for (const auto& b : f.binders) binders.push_back(&b);
  std::map<std::string, logic::Value> env;
  std::function<std::optional<std::string>(std::size_t)> search =
      [&](std::size_t i) -> std::optional<std::string> {
    if (i == binders.size()) {
      if (!model.eval(*f.subs[0], env)) {
        std::ostringstream os;
        os << "counterexample:";
        for (const auto& [k, v] : env) os << " " << k << "=" << v.to_string();
        return os.str();
      }
      return std::nullopt;
    }
    for (const auto& v : model.domain(binders[i]->sort)) {
      env[binders[i]->name] = v;
      if (auto r = search(i + 1)) return r;
    }
    env.erase(binders[i]->name);
    return std::nullopt;
  };
  return search(0);
}

}  // namespace fvn::prover
