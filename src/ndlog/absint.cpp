#include "ndlog/absint.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "ndlog/analysis.hpp"

namespace fvn::ndlog::absint {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

Interval::Interval() : lo(kInf), hi(-kInf) {}

Interval Interval::empty() { return Interval{}; }

Interval Interval::top() { return range(-kInf, kInf); }

Interval Interval::point(double v) { return range(v, v); }

Interval Interval::range(double lo, double hi) {
  Interval iv;
  iv.lo = lo;
  iv.hi = hi;
  return iv;
}

bool Interval::bounded_above() const noexcept { return !is_empty() && hi < kInf; }

bool Interval::bounded_below() const noexcept { return !is_empty() && lo > -kInf; }

Interval Interval::join(const Interval& other) const {
  if (is_empty()) return other;
  if (other.is_empty()) return *this;
  return range(std::min(lo, other.lo), std::max(hi, other.hi));
}

Interval Interval::meet(const Interval& other) const {
  if (is_empty() || other.is_empty()) return empty();
  Interval iv = range(std::max(lo, other.lo), std::min(hi, other.hi));
  return iv.is_empty() ? empty() : iv;
}

Interval Interval::widen(const Interval& newer) const {
  if (is_empty()) return newer;
  if (newer.is_empty()) return *this;
  return range(newer.lo < lo ? -kInf : lo, newer.hi > hi ? kInf : hi);
}

bool Interval::operator==(const Interval& other) const noexcept {
  if (is_empty() && other.is_empty()) return true;
  return lo == other.lo && hi == other.hi;
}

std::string Interval::to_string() const {
  if (is_empty()) return "[]";
  std::ostringstream os;
  os << "[";
  if (lo == -kInf) {
    os << "-inf";
  } else {
    os << lo;
  }
  os << ", ";
  if (hi == kInf) {
    os << "+inf";
  } else {
    os << hi;
  }
  os << "]";
  return os.str();
}

namespace {

/// a*b with the convention inf*0 = 0 (an endpoint of 0 annihilates).
double safe_mul(double a, double b) {
  if (a == 0.0 || b == 0.0) return 0.0;
  return a * b;
}

}  // namespace

Interval add(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  return Interval::range(a.lo + b.lo, a.hi + b.hi);
}

Interval sub(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  return Interval::range(a.lo - b.hi, a.hi - b.lo);
}

Interval mul(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  const double p1 = safe_mul(a.lo, b.lo);
  const double p2 = safe_mul(a.lo, b.hi);
  const double p3 = safe_mul(a.hi, b.lo);
  const double p4 = safe_mul(a.hi, b.hi);
  return Interval::range(std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4}));
}

Interval div(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  // Precise only when the divisor has a definite sign and excludes zero;
  // otherwise give up (division by an interval straddling 0 is unbounded).
  if (b.lo > 0.0 || b.hi < 0.0) {
    const double p1 = a.lo / b.lo;
    const double p2 = a.lo / b.hi;
    const double p3 = a.hi / b.lo;
    const double p4 = a.hi / b.hi;
    if (!std::isnan(p1) && !std::isnan(p2) && !std::isnan(p3) && !std::isnan(p4)) {
      return Interval::range(std::min({p1, p2, p3, p4}), std::max({p1, p2, p3, p4}));
    }
  }
  return Interval::top();
}

Interval mod(const Interval& a, const Interval& b) {
  if (a.is_empty() || b.is_empty()) return Interval::empty();
  // NDlog mod is integer-only; for a positive divisor the result lies in
  // [0, b.hi - 1] when the dividend is non-negative. Anything else: top.
  if (b.lo > 0.0 && b.bounded_above() && a.lo >= 0.0) {
    return Interval::range(0.0, b.hi - 1.0);
  }
  return Interval::top();
}

// ---------------------------------------------------------------------------
// AbstractValue
// ---------------------------------------------------------------------------

AbstractValue AbstractValue::bottom() { return AbstractValue{}; }

AbstractValue AbstractValue::any() {
  AbstractValue v;
  v.kind = Kind::Any;
  return v;
}

AbstractValue AbstractValue::number(Interval iv) {
  if (iv.is_empty()) return bottom();
  AbstractValue v;
  v.kind = Kind::Num;
  v.num = iv;
  return v;
}

AbstractValue AbstractValue::boolean(bool may_true, bool may_false) {
  if (!may_true && !may_false) return bottom();
  AbstractValue v;
  v.kind = Kind::Bool;
  v.may_true = may_true;
  v.may_false = may_false;
  return v;
}

AbstractValue AbstractValue::of(const Value& v) {
  switch (v.kind()) {
    case ValueKind::Bool:
      return boolean(v.as_bool(), !v.as_bool());
    case ValueKind::Int:
      return number(Interval::point(static_cast<double>(v.as_int())));
    case ValueKind::Double:
      return number(Interval::point(v.as_double()));
    default:
      return any();  // addresses, strings, lists, nil
  }
}

AbstractValue AbstractValue::join(const AbstractValue& other) const {
  if (is_bottom()) return other;
  if (other.is_bottom()) return *this;
  if (is_any() || other.is_any()) return any();
  if (kind != other.kind) return any();
  if (is_num()) return number(num.join(other.num));
  return boolean(may_true || other.may_true, may_false || other.may_false);
}

AbstractValue AbstractValue::meet(const AbstractValue& other) const {
  if (is_bottom() || other.is_bottom()) return bottom();
  if (is_any()) return other;
  if (other.is_any()) return *this;
  if (kind != other.kind) return bottom();
  if (is_num()) return number(num.meet(other.num));
  return boolean(may_true && other.may_true, may_false && other.may_false);
}

AbstractValue AbstractValue::widen(const AbstractValue& newer) const {
  if (is_bottom()) return newer;
  if (newer.is_bottom()) return *this;
  if (is_num() && newer.is_num()) return number(num.widen(newer.num));
  return join(newer);
}

bool AbstractValue::operator==(const AbstractValue& other) const noexcept {
  if (kind != other.kind) return false;
  switch (kind) {
    case Kind::Num:
      return num == other.num;
    case Kind::Bool:
      return may_true == other.may_true && may_false == other.may_false;
    default:
      return true;
  }
}

std::string AbstractValue::to_string() const {
  switch (kind) {
    case Kind::Bottom:
      return "bottom";
    case Kind::Any:
      return "any";
    case Kind::Num:
      return num.to_string();
    case Kind::Bool:
      if (may_true && may_false) return "bool";
      return may_true ? "true" : "false";
  }
  return "?";
}

CmpOp flip(CmpOp op) noexcept {
  switch (op) {
    case CmpOp::Lt:
      return CmpOp::Gt;
    case CmpOp::Le:
      return CmpOp::Ge;
    case CmpOp::Gt:
      return CmpOp::Lt;
    case CmpOp::Ge:
      return CmpOp::Le;
    default:
      return op;  // Eq / Ne are symmetric
  }
}

bool satisfiable(CmpOp op, const AbstractValue& a, const AbstractValue& b) {
  if (a.is_bottom() || b.is_bottom()) return false;
  if (a.is_any() || b.is_any()) return true;
  switch (op) {
    case CmpOp::Eq:
      return !a.meet(b).is_bottom();
    case CmpOp::Ne: {
      // Unsatisfiable only when both sides are the same singleton.
      if (a.is_num() && b.is_num()) {
        return !(a.num.is_point() && b.num.is_point() && a.num.lo == b.num.lo);
      }
      if (a.is_bool() && b.is_bool()) {
        const bool a_def = a.may_true != a.may_false;
        const bool b_def = b.may_true != b.may_false;
        return !(a_def && b_def && a.may_true == b.may_true);
      }
      return true;  // distinct kinds always differ
    }
    case CmpOp::Lt:
    case CmpOp::Le:
    case CmpOp::Gt:
    case CmpOp::Ge:
      // Order comparisons between distinct kinds follow the kind-major value
      // order, which we do not model: stay conservative unless both numeric.
      if (!a.is_num() || !b.is_num()) return true;
      switch (op) {
        case CmpOp::Lt:
          return a.num.lo < b.num.hi;
        case CmpOp::Le:
          return a.num.lo <= b.num.hi;
        case CmpOp::Gt:
          return a.num.hi > b.num.lo;
        default:
          return a.num.hi >= b.num.lo;
      }
  }
  return true;
}

AbstractValue refine(CmpOp op, const AbstractValue& a, const AbstractValue& b) {
  if (op == CmpOp::Eq) return a.meet(b);
  if (!a.is_num() || !b.is_num()) return a;  // only numeric facts refine
  Interval iv = a.num;
  switch (op) {
    case CmpOp::Lt:
    case CmpOp::Le:
      // Closed-bound refinement is conservative for the strict case.
      iv = iv.meet(Interval::range(-kInf, b.num.hi));
      break;
    case CmpOp::Gt:
    case CmpOp::Ge:
      iv = iv.meet(Interval::range(b.num.lo, kInf));
      break;
    default:
      return a;  // Ne carries no interval information
  }
  return AbstractValue::number(iv);
}

// ---------------------------------------------------------------------------
// Term evaluation
// ---------------------------------------------------------------------------

AbstractValue eval_term(const Term& term,
                        const std::map<std::string, AbstractValue>& vars) {
  switch (term.kind) {
    case Term::Kind::Var: {
      auto it = vars.find(term.name);
      return it == vars.end() ? AbstractValue::any() : it->second;
    }
    case Term::Kind::Const:
      return AbstractValue::of(term.constant);
    case Term::Kind::Binary: {
      const AbstractValue lhs = eval_term(*term.args[0], vars);
      const AbstractValue rhs = eval_term(*term.args[1], vars);
      if (lhs.is_bottom() || rhs.is_bottom()) return AbstractValue::bottom();
      if (!lhs.is_num() || !rhs.is_num()) return AbstractValue::any();
      switch (term.op) {
        case BinOp::Add:
          return AbstractValue::number(add(lhs.num, rhs.num));
        case BinOp::Sub:
          return AbstractValue::number(sub(lhs.num, rhs.num));
        case BinOp::Mul:
          return AbstractValue::number(mul(lhs.num, rhs.num));
        case BinOp::Div:
          return AbstractValue::number(div(lhs.num, rhs.num));
        case BinOp::Mod:
          return AbstractValue::number(mod(lhs.num, rhs.num));
      }
      return AbstractValue::any();
    }
    case Term::Kind::Func: {
      std::vector<AbstractValue> args;
      args.reserve(term.args.size());
      for (const auto& a : term.args) args.push_back(eval_term(*a, vars));
      for (const auto& a : args) {
        if (a.is_bottom()) return AbstractValue::bottom();
      }
      const std::string& f = term.name;
      if (f == "f_size") {
        return AbstractValue::number(Interval::range(0.0, kInf));
      }
      if (f == "f_abs") {
        if (args.size() == 1 && args[0].is_num()) {
          const Interval& iv = args[0].num;
          const double m = std::max(std::fabs(iv.lo), std::fabs(iv.hi));
          return AbstractValue::number(
              Interval::range(iv.contains(0.0) ? 0.0 : std::min(std::fabs(iv.lo),
                                                                std::fabs(iv.hi)),
                              m));
        }
        return AbstractValue::number(Interval::range(0.0, kInf));
      }
      if (f == "f_min" || f == "f_max") {
        if (args.size() == 2 && args[0].is_num() && args[1].is_num()) {
          const Interval& a = args[0].num;
          const Interval& b = args[1].num;
          if (f == "f_min") {
            return AbstractValue::number(
                Interval::range(std::min(a.lo, b.lo), std::min(a.hi, b.hi)));
          }
          return AbstractValue::number(
              Interval::range(std::max(a.lo, b.lo), std::max(a.hi, b.hi)));
        }
        return AbstractValue::any();
      }
      if (f == "f_inPath" || f == "f_member") {
        return AbstractValue::boolean(true, true);
      }
      // List constructors/accessors and unknown builtins: no numeric model.
      return AbstractValue::any();
    }
  }
  return AbstractValue::any();
}

// ---------------------------------------------------------------------------
// Rule abstraction
// ---------------------------------------------------------------------------

namespace {

const std::vector<AbstractValue>* pred_abstraction(const PredicateMap& preds,
                                                   const std::string& name) {
  auto it = preds.find(name);
  return it == preds.end() ? nullptr : &it->second;
}

}  // namespace

RuleAbstraction abstract_rule(const Rule& rule, const PredicateMap& preds) {
  RuleAbstraction ra;

  // Pass 1: bind variables from positive body atoms.
  for (const auto& elem : rule.body) {
    const auto* ba = std::get_if<BodyAtom>(&elem);
    if (ba == nullptr || ba->negated) continue;
    const auto* abs = pred_abstraction(preds, ba->atom.predicate);
    for (std::size_t i = 0; i < ba->atom.args.size(); ++i) {
      AbstractValue pos =
          (abs != nullptr && i < abs->size()) ? (*abs)[i] : AbstractValue::any();
      const std::string& v = var_name(ba->atom.args[i]);
      if (!v.empty()) {
        auto [it, inserted] = ra.vars.emplace(v, pos);
        if (!inserted) it->second = it->second.meet(pos);
        if (it->second.is_bottom()) ra.unsat = true;
      } else if (ba->atom.args[i] &&
                 ba->atom.args[i]->kind == Term::Kind::Const) {
        // A constant argument that cannot appear in the predicate's column
        // makes the atom unmatchable.
        if (AbstractValue::of(ba->atom.args[i]->constant).meet(pos).is_bottom()) {
          ra.unsat = true;
        }
      }
    }
  }

  // Pass 2: iterate the comparison chain. `V = expr` binds V on first sight;
  // everything else is tested for satisfiability and used for refinement.
  // A few passes let bindings feed refinements that precede them in source
  // order (`C < 10, C = C1 + C2` and the reverse both converge).
  for (int pass = 0; pass < 3 && !ra.unsat; ++pass) {
    for (const auto& elem : rule.body) {
      const auto* cmp = std::get_if<Comparison>(&elem);
      if (cmp == nullptr) continue;
      const std::string& lv = var_name(cmp->lhs);
      const std::string& rv = var_name(cmp->rhs);
      if (cmp->op == CmpOp::Eq) {
        const bool l_unbound = !lv.empty() && ra.vars.find(lv) == ra.vars.end();
        const bool r_unbound = !rv.empty() && ra.vars.find(rv) == ra.vars.end();
        if (l_unbound && !r_unbound) {
          ra.vars[lv] = eval_term(*cmp->rhs, ra.vars);
          continue;
        }
        if (r_unbound && !l_unbound) {
          ra.vars[rv] = eval_term(*cmp->lhs, ra.vars);
          continue;
        }
        if (l_unbound && r_unbound) continue;  // ND0003 territory
      }
      const AbstractValue a = eval_term(*cmp->lhs, ra.vars);
      const AbstractValue b = eval_term(*cmp->rhs, ra.vars);
      if (!satisfiable(cmp->op, a, b)) {
        ra.unsat = true;
        ra.unsat_is_comparison = true;
        ra.unsat_loc = cmp->loc;
        ra.unsat_detail = cmp->to_string();
        break;
      }
      if (!lv.empty()) ra.vars[lv] = refine(cmp->op, a, b);
      if (!rv.empty()) ra.vars[rv] = refine(flip(cmp->op), b, a);
    }
  }

  // Pass 3: head argument abstractions.
  ra.head.reserve(rule.head.args.size());
  for (const auto& arg : rule.head.args) {
    if (ra.unsat) {
      ra.head.push_back(AbstractValue::bottom());
      continue;
    }
    if (arg.is_agg()) {
      auto it = ra.vars.find(arg.agg_var);
      const AbstractValue in =
          it == ra.vars.end() ? AbstractValue::any() : it->second;
      switch (*arg.agg) {
        case AggKind::Min:
        case AggKind::Max:
          ra.head.push_back(in);  // an aggregate picks one of the inputs
          break;
        case AggKind::Count:
          ra.head.push_back(
              AbstractValue::number(Interval::range(1.0, kInf)));
          break;
        case AggKind::Sum:
          ra.head.push_back(in.is_num()
                                ? AbstractValue::number(Interval::top())
                                : AbstractValue::any());
          break;
      }
      continue;
    }
    ra.head.push_back(eval_term(*arg.term, ra.vars));
  }
  return ra;
}

// ---------------------------------------------------------------------------
// Program fixpoint
// ---------------------------------------------------------------------------

PredicateMap analyze_program(const Program& program, int widen_after) {
  PredicateMap preds;
  const auto arity = arities_of(program);
  for (const auto& [pred, n] : arity) {
    const bool external = program.materialization_of(pred) != nullptr;
    preds[pred].assign(n, external ? AbstractValue::any()
                                   : AbstractValue::bottom());
  }

  // Join counters per (predicate, position) drive widening.
  std::map<std::string, std::vector<int>> grow_count;
  for (const auto& [pred, n] : arity) grow_count[pred].assign(n, 0);

  constexpr int kMaxPasses = 64;
  for (int pass = 0; pass < kMaxPasses; ++pass) {
    bool changed = false;
    for (const auto& rule : program.rules) {
      const RuleAbstraction ra = abstract_rule(rule, preds);
      if (ra.unsat) continue;
      auto& target = preds[rule.head.predicate];
      auto& counts = grow_count[rule.head.predicate];
      for (std::size_t i = 0; i < target.size() && i < ra.head.size(); ++i) {
        AbstractValue next = target[i].join(ra.head[i]);
        if (next == target[i]) continue;
        if (++counts[i] > widen_after) next = target[i].widen(next);
        if (!(next == target[i])) {
          target[i] = next;
          changed = true;
        }
      }
    }
    if (!changed) break;
  }
  return preds;
}

}  // namespace fvn::ndlog::absint
