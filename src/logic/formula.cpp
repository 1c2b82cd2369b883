#include "logic/formula.hpp"

#include <algorithm>
#include <sstream>

namespace fvn::logic {

namespace {

/// "(lhs op rhs)", `op` carrying its own spacing.
std::string parenthesized(const std::string& lhs, std::string_view op, const std::string& rhs) {
  std::string out = "(";
  out += lhs;
  out += op;
  out += rhs;
  out += ')';
  return out;
}

}  // namespace

std::string_view to_string(Sort sort) noexcept {
  switch (sort) {
    case Sort::Unknown: return "T";
    case Sort::Node: return "Node";
    case Sort::Metric: return "Metric";
    case Sort::Path: return "Path";
    case Sort::Bool: return "bool";
    case Sort::Str: return "string";
    case Sort::Time: return "Time";
  }
  return "?";
}

std::string TypedVar::to_string() const {
  return name + ":" + std::string(logic::to_string(sort));
}

// ---------------------------------------------------------------------------
// LTerm
// ---------------------------------------------------------------------------

LTermPtr LTerm::var(std::string name) {
  auto t = std::make_shared<LTerm>();
  t->kind = Kind::Var;
  t->name = std::move(name);
  return t;
}

LTermPtr LTerm::constant_of(Value v) {
  auto t = std::make_shared<LTerm>();
  t->kind = Kind::Const;
  t->constant = std::move(v);
  return t;
}

LTermPtr LTerm::func(std::string name, std::vector<LTermPtr> args) {
  auto t = std::make_shared<LTerm>();
  t->kind = Kind::Func;
  t->name = std::move(name);
  t->args = std::move(args);
  return t;
}

LTermPtr LTerm::arith(BinOp op, LTermPtr lhs, LTermPtr rhs) {
  auto t = std::make_shared<LTerm>();
  t->kind = Kind::Arith;
  t->op = op;
  t->args = {std::move(lhs), std::move(rhs)};
  return t;
}

bool LTerm::equals(const LTerm& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::Var: return name == other.name;
    case Kind::Const: return constant == other.constant;
    case Kind::Func:
      if (name != other.name || args.size() != other.args.size()) return false;
      break;
    case Kind::Arith:
      if (op != other.op || args.size() != other.args.size()) return false;
      break;
  }
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!args[i]->equals(*other.args[i])) return false;
  }
  return true;
}

void LTerm::free_vars(std::set<std::string>& out) const {
  if (kind == Kind::Var) {
    out.insert(name);
    return;
  }
  for (const auto& a : args) a->free_vars(out);
}

LTermPtr LTerm::substitute(const std::string& var, const LTermPtr& replacement) const {
  switch (kind) {
    case Kind::Var:
      return name == var ? replacement : LTerm::var(name);
    case Kind::Const:
      return LTerm::constant_of(constant);
    case Kind::Func:
    case Kind::Arith: {
      std::vector<LTermPtr> new_args;
      new_args.reserve(args.size());
      for (const auto& a : args) new_args.push_back(a->substitute(var, replacement));
      if (kind == Kind::Func) return LTerm::func(name, std::move(new_args));
      return LTerm::arith(op, std::move(new_args[0]), std::move(new_args[1]));
    }
  }
  return nullptr;
}

std::string LTerm::to_string() const {
  switch (kind) {
    case Kind::Var: return name;
    case Kind::Const: return constant.to_string();
    case Kind::Func: {
      std::string out = name + "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) out += ",";
        out += args[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Arith:
      return parenthesized(args[0]->to_string(), ndlog::to_string(op), args[1]->to_string());
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Formula
// ---------------------------------------------------------------------------

FormulaPtr Formula::truth() {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::True;
  return f;
}

FormulaPtr Formula::falsity() {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::False;
  return f;
}

FormulaPtr Formula::pred(std::string name, std::vector<LTermPtr> args) {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Pred;
  f->pred_name = std::move(name);
  f->terms = std::move(args);
  return f;
}

FormulaPtr Formula::cmp(CmpOp op, LTermPtr lhs, LTermPtr rhs) {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Cmp;
  f->cmp_op = op;
  f->terms = {std::move(lhs), std::move(rhs)};
  return f;
}

FormulaPtr Formula::negate(FormulaPtr sub) {
  if (sub->kind == Kind::True) return falsity();
  if (sub->kind == Kind::False) return truth();
  if (sub->kind == Kind::Not) return sub->subs[0];
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Not;
  f->subs = {std::move(sub)};
  return f;
}

FormulaPtr Formula::conj(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (auto& f : fs) {
    if (f->kind == Kind::True) continue;
    if (f->kind == Kind::False) return falsity();
    if (f->kind == Kind::And) {
      flat.insert(flat.end(), f->subs.begin(), f->subs.end());
    } else {
      flat.push_back(std::move(f));
    }
  }
  if (flat.empty()) return truth();
  if (flat.size() == 1) return flat[0];
  auto f = std::make_shared<Formula>();
  f->kind = Kind::And;
  f->subs = std::move(flat);
  return f;
}

FormulaPtr Formula::disj(std::vector<FormulaPtr> fs) {
  std::vector<FormulaPtr> flat;
  for (auto& f : fs) {
    if (f->kind == Kind::False) continue;
    if (f->kind == Kind::True) return truth();
    if (f->kind == Kind::Or) {
      flat.insert(flat.end(), f->subs.begin(), f->subs.end());
    } else {
      flat.push_back(std::move(f));
    }
  }
  if (flat.empty()) return falsity();
  if (flat.size() == 1) return flat[0];
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Or;
  f->subs = std::move(flat);
  return f;
}

FormulaPtr Formula::implies(FormulaPtr lhs, FormulaPtr rhs) {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Implies;
  f->subs = {std::move(lhs), std::move(rhs)};
  return f;
}

FormulaPtr Formula::iff(FormulaPtr lhs, FormulaPtr rhs) {
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Iff;
  f->subs = {std::move(lhs), std::move(rhs)};
  return f;
}

FormulaPtr Formula::forall(std::vector<TypedVar> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  if (body->kind == Kind::Forall) {
    std::vector<TypedVar> merged = std::move(vars);
    merged.insert(merged.end(), body->binders.begin(), body->binders.end());
    return forall(std::move(merged), body->subs[0]);
  }
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Forall;
  f->binders = std::move(vars);
  f->subs = {std::move(body)};
  return f;
}

FormulaPtr Formula::exists(std::vector<TypedVar> vars, FormulaPtr body) {
  if (vars.empty()) return body;
  if (body->kind == Kind::Exists) {
    std::vector<TypedVar> merged = std::move(vars);
    merged.insert(merged.end(), body->binders.begin(), body->binders.end());
    return exists(std::move(merged), body->subs[0]);
  }
  auto f = std::make_shared<Formula>();
  f->kind = Kind::Exists;
  f->binders = std::move(vars);
  f->subs = {std::move(body)};
  return f;
}

bool Formula::equals(const Formula& other) const {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::True:
    case Kind::False:
      return true;
    case Kind::Pred:
      if (pred_name != other.pred_name) return false;
      break;
    case Kind::Cmp:
      if (cmp_op != other.cmp_op) return false;
      break;
    case Kind::Forall:
    case Kind::Exists:
      if (binders != other.binders) return false;
      break;
    default:
      break;
  }
  if (terms.size() != other.terms.size() || subs.size() != other.subs.size()) return false;
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (!terms[i]->equals(*other.terms[i])) return false;
  }
  for (std::size_t i = 0; i < subs.size(); ++i) {
    if (!subs[i]->equals(*other.subs[i])) return false;
  }
  return true;
}

void Formula::free_vars(std::set<std::string>& out) const {
  std::set<std::string> inner;
  for (const auto& t : terms) t->free_vars(inner);
  for (const auto& s : subs) s->free_vars(inner);
  for (const auto& b : binders) inner.erase(b.name);
  out.insert(inner.begin(), inner.end());
}

FormulaPtr Formula::substitute(const std::string& var, const LTermPtr& replacement) const {
  // Bound occurrences shadow.
  if (kind == Kind::Forall || kind == Kind::Exists) {
    for (const auto& b : binders) {
      if (b.name == var) return std::make_shared<Formula>(*this);
    }
  }
  auto f = std::make_shared<Formula>(*this);
  for (auto& t : f->terms) t = t->substitute(var, replacement);
  for (auto& s : f->subs) s = s->substitute(var, replacement);
  return f;
}

std::string Formula::to_string() const {
  switch (kind) {
    case Kind::True: return "TRUE";
    case Kind::False: return "FALSE";
    case Kind::Pred: {
      std::string out = pred_name + "(";
      for (std::size_t i = 0; i < terms.size(); ++i) {
        if (i) out += ",";
        out += terms[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Cmp: {
      std::string_view op = cmp_op == CmpOp::Eq   ? "="
                            : cmp_op == CmpOp::Ne ? "/="
                                               : ndlog::to_string(cmp_op);
      return terms[0]->to_string() + std::string(op) + terms[1]->to_string();
    }
    case Kind::Not: {
      std::string out = "NOT ";
      out += subs[0]->to_string();
      return out;
    }
    case Kind::And:
    case Kind::Or: {
      const char* sep = kind == Kind::And ? " AND " : " OR ";
      std::string out = "(";
      for (std::size_t i = 0; i < subs.size(); ++i) {
        if (i) out += sep;
        out += subs[i]->to_string();
      }
      return out + ")";
    }
    case Kind::Implies: return parenthesized(subs[0]->to_string(), " => ", subs[1]->to_string());
    case Kind::Iff: return parenthesized(subs[0]->to_string(), " <=> ", subs[1]->to_string());
    case Kind::Forall:
    case Kind::Exists: {
      std::string out = kind == Kind::Forall ? "FORALL (" : "EXISTS (";
      for (std::size_t i = 0; i < binders.size(); ++i) {
        if (i) out += ", ";
        out += binders[i].to_string();
      }
      out += "): " + subs[0]->to_string();
      return out;
    }
  }
  return "?";
}

std::string NameSupply::fresh(const std::string& base) {
  return base + "!" + std::to_string(++counter_);
}

// ---------------------------------------------------------------------------
// Definitions / theories
// ---------------------------------------------------------------------------

FormulaPtr InductiveDef::body() const {
  std::vector<FormulaPtr> cs = clauses;
  return Formula::disj(std::move(cs));
}

std::string InductiveDef::to_string() const {
  std::string out = pred_name + "(";
  for (std::size_t i = 0; i < params.size(); ++i) {
    if (i) out += ",";
    out += params[i].to_string();
  }
  out += "): INDUCTIVE bool =\n  " + body()->to_string();
  return out;
}

std::string Theorem::to_string() const {
  return name + ": THEOREM\n  " + statement->to_string();
}

const InductiveDef* Theory::find_definition(const std::string& p) const {
  for (const auto& d : definitions) {
    if (d.pred_name == p) return &d;
  }
  return nullptr;
}

std::string Theory::to_string() const {
  std::ostringstream os;
  os << name << ": THEORY\nBEGIN\n";
  for (const auto& d : definitions) os << "\n" << d.to_string() << "\n";
  for (const auto& a : axioms) os << "\n" << a.name << ": AXIOM\n  " << a.statement->to_string() << "\n";
  for (const auto& t : theorems) os << "\n" << t.to_string() << "\n";
  os << "\nEND " << name << "\n";
  return os.str();
}

}  // namespace fvn::logic
