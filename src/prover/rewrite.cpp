#include "prover/rewrite.hpp"

#include "ndlog/builtins.hpp"

namespace fvn::prover {

using logic::Formula;
using logic::FormulaPtr;
using logic::LTerm;
using logic::LTermPtr;
using logic::Value;

namespace {

bool is_const(const LTermPtr& t) { return t->kind == LTerm::Kind::Const; }

bool is_fn(const LTermPtr& t, const char* name) {
  return t->kind == LTerm::Kind::Func && t->name == name;
}

LTermPtr int_const(std::int64_t v) { return LTerm::constant_of(Value::integer(v)); }

/// One top-level rewrite step; nullptr if no rule applies.
LTermPtr step(const LTermPtr& t) {
  if (t->kind == LTerm::Kind::Func) {
    // Constant folding of fully-ground applications.
    bool all_const = !t->args.empty();
    for (const auto& a : t->args) all_const = all_const && is_const(a);
    const ndlog::Builtin* fn = all_const ? ndlog::find_builtin(t->name) : nullptr;
    if (fn != nullptr) {
      std::vector<Value> args;
      for (const auto& a : t->args) args.push_back(a->constant);
      return LTerm::constant_of(fn->call(args));
    }
    const auto& a = t->args;
    if (t->name == "f_head" && a.size() == 1) {
      if (is_fn(a[0], "f_init")) return a[0]->args[0];        // f_head(f_init(X,Y)) -> X
      if (is_fn(a[0], "f_concatPath")) return a[0]->args[0];  // f_head(X::P) -> X
    }
    if (t->name == "f_last" && a.size() == 1) {
      if (is_fn(a[0], "f_init")) return a[0]->args[1];  // f_last(f_init(X,Y)) -> Y
      if (is_fn(a[0], "f_concatPath")) {
        return LTerm::func("f_last", {a[0]->args[1]});  // f_last(X::P) -> f_last(P)
      }
    }
    if (t->name == "f_size" && a.size() == 1) {
      if (is_fn(a[0], "f_init")) return int_const(2);
      if (is_fn(a[0], "f_concatPath")) {
        return LTerm::arith(ndlog::BinOp::Add,
                            LTerm::func("f_size", {a[0]->args[1]}), int_const(1));
      }
    }
    if (t->name == "f_inPath" && a.size() == 2) {
      // f_inPath(f_init(X,Y),Z) -> true when Z is syntactically X or Y.
      if (is_fn(a[0], "f_init") &&
          (a[0]->args[0]->equals(*a[1]) || a[0]->args[1]->equals(*a[1]))) {
        return LTerm::constant_of(Value::boolean(true));
      }
      // f_inPath(X::P, X) -> true.
      if (is_fn(a[0], "f_concatPath") && a[0]->args[0]->equals(*a[1])) {
        return LTerm::constant_of(Value::boolean(true));
      }
    }
    return nullptr;
  }

  if (t->kind == LTerm::Kind::Arith && is_const(t->args[0]) && is_const(t->args[1])) {
    const Value& l = t->args[0]->constant;
    const Value& r = t->args[1]->constant;
    if (l.is_numeric() && r.is_numeric()) {
      switch (t->op) {
        case ndlog::BinOp::Add: return LTerm::constant_of(l.add(r));
        case ndlog::BinOp::Sub: return LTerm::constant_of(l.sub(r));
        case ndlog::BinOp::Mul: return LTerm::constant_of(l.mul(r));
        case ndlog::BinOp::Div:
          if ((r.is_int() && r.as_int() == 0) || r.as_double() == 0.0) return nullptr;
          return LTerm::constant_of(l.div(r));
        case ndlog::BinOp::Mod:
          if (!l.is_int() || !r.is_int() || r.as_int() == 0) return nullptr;
          return LTerm::constant_of(l.mod(r));
      }
    }
  }
  return nullptr;
}

}  // namespace

LTermPtr rewrite_term(const logic::LTermPtr& term) {
  // Bottom-up, to fixpoint (bounded by structure: every rule shrinks or
  // constant-folds, except f_size which introduces one + node but consumes a
  // constructor — overall terminating; a depth guard keeps us honest).
  LTermPtr current = term;
  for (int guard = 0; guard < 64; ++guard) {
    // Rewrite children first.
    if (!current->args.empty()) {
      std::vector<LTermPtr> new_args;
      new_args.reserve(current->args.size());
      bool changed = false;
      for (const auto& a : current->args) {
        LTermPtr na = rewrite_term(a);
        changed = changed || na.get() != a.get();
        new_args.push_back(std::move(na));
      }
      if (changed) {
        current = current->kind == LTerm::Kind::Func
                      ? LTerm::func(current->name, std::move(new_args))
                      : LTerm::arith(current->op, new_args[0], new_args[1]);
      }
    }
    LTermPtr next = step(current);
    if (!next) return current;
    current = next;
  }
  return current;
}

FormulaPtr rewrite_formula(const logic::FormulaPtr& f) {
  auto copy = std::make_shared<Formula>(*f);
  for (auto& t : copy->terms) t = rewrite_term(t);
  for (auto& s : copy->subs) s = rewrite_formula(s);

  if (copy->kind == Formula::Kind::Cmp) {
    const auto& l = copy->terms[0];
    const auto& r = copy->terms[1];
    if (is_const(l) && is_const(r)) {
      bool value = false;
      const Value& a = l->constant;
      const Value& b = r->constant;
      switch (copy->cmp_op) {
        case ndlog::CmpOp::Eq: value = a == b; break;
        case ndlog::CmpOp::Ne: value = !(a == b); break;
        case ndlog::CmpOp::Lt: value = a < b; break;
        case ndlog::CmpOp::Le: value = a < b || a == b; break;
        case ndlog::CmpOp::Gt: value = b < a; break;
        case ndlog::CmpOp::Ge: value = b < a || a == b; break;
      }
      return value ? Formula::truth() : Formula::falsity();
    }
    // Reflexivity: t = t.
    if (copy->cmp_op == ndlog::CmpOp::Eq && l->equals(*r)) return Formula::truth();
  }
  // Propositional re-normalization via the smart constructors.
  switch (copy->kind) {
    case Formula::Kind::Not: return Formula::negate(copy->subs[0]);
    case Formula::Kind::And: return Formula::conj(copy->subs);
    case Formula::Kind::Or: return Formula::disj(copy->subs);
    default: break;
  }
  return copy;
}

}  // namespace fvn::prover
