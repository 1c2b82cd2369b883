#include "logic/finite_model.hpp"

#include <algorithm>
#include <functional>

#include "ndlog/builtins.hpp"

namespace fvn::logic {

namespace {

Sort sort_of_value(const Value& v) {
  switch (v.kind()) {
    case ndlog::ValueKind::Addr: return Sort::Node;
    case ndlog::ValueKind::Int:
    case ndlog::ValueKind::Double: return Sort::Metric;
    case ndlog::ValueKind::List: return Sort::Path;
    case ndlog::ValueKind::Bool: return Sort::Bool;
    case ndlog::ValueKind::Str: return Sort::Str;
    default: return Sort::Unknown;
  }
}

}  // namespace

void FiniteModel::note_domain(const Value& v) {
  auto& dom = domains_[sort_of_value(v)];
  if (std::find(dom.begin(), dom.end(), v) == dom.end()) dom.push_back(v);
  if (std::find(universe_.begin(), universe_.end(), v) == universe_.end()) {
    universe_.push_back(v);
  }
}

void FiniteModel::load_database(const ndlog::Database& db, bool harvest_domain) {
  for (const auto& pred : db.predicates()) {
    for (const auto& t : db.relation(pred)) {
      relations_[pred].insert(t);
      if (harvest_domain) {
        for (const auto& v : t.values()) note_domain(v);
      }
    }
  }
}

void FiniteModel::add_tuple(const ndlog::Tuple& tuple) {
  relations_[tuple.predicate()].insert(tuple);
  for (const auto& v : tuple.values()) note_domain(v);
}

void FiniteModel::add_domain_value(Sort sort, Value v) {
  auto& dom = domains_[sort];
  if (std::find(dom.begin(), dom.end(), v) == dom.end()) dom.push_back(std::move(v));
  if (std::find(universe_.begin(), universe_.end(), dom.back()) == universe_.end()) {
    universe_.push_back(dom.back());
  }
}

void FiniteModel::add_metric_range(std::int64_t lo, std::int64_t hi) {
  for (std::int64_t v = lo; v <= hi; ++v) {
    add_domain_value(Sort::Metric, Value::integer(v));
  }
}

const std::vector<Value>& FiniteModel::domain(Sort sort) const {
  if (sort == Sort::Unknown) return universe_;
  static const std::vector<Value> empty;
  auto it = domains_.find(sort);
  return it == domains_.end() ? empty : it->second;
}

Value FiniteModel::eval_term(const LTerm& term,
                             const std::map<std::string, Value>& env) const {
  switch (term.kind) {
    case LTerm::Kind::Var: {
      auto it = env.find(term.name);
      if (it == env.end()) {
        throw ndlog::TypeError("unbound variable '" + term.name + "' in finite model");
      }
      return it->second;
    }
    case LTerm::Kind::Const:
      return term.constant;
    case LTerm::Kind::Func: {
      std::vector<Value> args;
      args.reserve(term.args.size());
      for (const auto& a : term.args) args.push_back(eval_term(*a, env));
      return ndlog::call_builtin(term.name, args);
    }
    case LTerm::Kind::Arith: {
      const Value lhs = eval_term(*term.args[0], env);
      const Value rhs = eval_term(*term.args[1], env);
      switch (term.op) {
        case ndlog::BinOp::Add: return lhs.add(rhs);
        case ndlog::BinOp::Sub: return lhs.sub(rhs);
        case ndlog::BinOp::Mul: return lhs.mul(rhs);
        case ndlog::BinOp::Div: return lhs.div(rhs);
        case ndlog::BinOp::Mod: return lhs.mod(rhs);
      }
      break;
    }
  }
  throw ndlog::TypeError("unreachable term kind in finite model");
}

bool FiniteModel::eval(const Formula& formula,
                       const std::map<std::string, Value>& env) const {
  instantiations_ = 0;
  std::map<std::string, Value> mutable_env = env;
  return eval_inner(formula, mutable_env);
}

bool FiniteModel::eval_inner(const Formula& f, std::map<std::string, Value>& env) const {
  switch (f.kind) {
    case Formula::Kind::True: return true;
    case Formula::Kind::False: return false;
    case Formula::Kind::Pred: {
      std::vector<Value> values;
      values.reserve(f.terms.size());
      for (const auto& t : f.terms) values.push_back(eval_term(*t, env));
      auto it = relations_.find(f.pred_name);
      return it != relations_.end() &&
             it->second.count(ndlog::Tuple(f.pred_name, std::move(values))) != 0;
    }
    case Formula::Kind::Cmp: {
      const Value lhs = eval_term(*f.terms[0], env);
      const Value rhs = eval_term(*f.terms[1], env);
      return ndlog::compare(f.cmp_op, lhs, rhs);
    }
    case Formula::Kind::Not:
      return !eval_inner(*f.subs[0], env);
    case Formula::Kind::And:
      return std::all_of(f.subs.begin(), f.subs.end(),
                         [&](const FormulaPtr& s) { return eval_inner(*s, env); });
    case Formula::Kind::Or:
      return std::any_of(f.subs.begin(), f.subs.end(),
                         [&](const FormulaPtr& s) { return eval_inner(*s, env); });
    case Formula::Kind::Implies:
      return !eval_inner(*f.subs[0], env) || eval_inner(*f.subs[1], env);
    case Formula::Kind::Iff:
      return eval_inner(*f.subs[0], env) == eval_inner(*f.subs[1], env);
    case Formula::Kind::Forall:
    case Formula::Kind::Exists: {
      const bool is_forall = f.kind == Formula::Kind::Forall;
      // Enumerate binder assignments depth-first.
      std::function<bool(std::size_t)> enumerate = [&](std::size_t i) -> bool {
        if (i == f.binders.size()) {
          ++instantiations_;
          return eval_inner(*f.subs[0], env);
        }
        const auto& binder = f.binders[i];
        const auto& dom = domain(binder.sort);
        const bool had = env.count(binder.name) != 0;
        const Value saved = had ? env[binder.name] : Value::nil();
        for (const auto& v : dom) {
          env[binder.name] = v;
          const bool sub = enumerate(i + 1);
          if (is_forall && !sub) {
            if (had) env[binder.name] = saved; else env.erase(binder.name);
            return false;
          }
          if (!is_forall && sub) {
            if (had) env[binder.name] = saved; else env.erase(binder.name);
            return true;
          }
        }
        if (had) env[binder.name] = saved; else env.erase(binder.name);
        return is_forall;
      };
      return enumerate(0);
    }
  }
  return false;
}

}  // namespace fvn::logic
