#include "ndlog/cost.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <sstream>

#include "ndlog/builtins.hpp"
#include "obs/json.hpp"

namespace fvn::ndlog::cost {

// ---------------------------------------------------------------------------
// Bound arithmetic
// ---------------------------------------------------------------------------

Bound Bound::sym(const std::string& name, int power) {
  Bound b;
  b.powers[name] = power;
  return b;
}

Bound Bound::paths() {
  Bound b;
  b.powers["V"] = 1;
  b.factorial = 1;
  return b;
}

int Bound::degree() const noexcept {
  if (unbounded) return 1 << 20;
  int d = factorial * factorial_degree_weight;
  for (const auto& [sym, p] : powers) d += p;
  return d;
}

double Bound::evaluate(const std::map<std::string, double>& env) const {
  constexpr double inf = std::numeric_limits<double>::infinity();
  if (unbounded) return inf;
  if (is_zero()) return 0.0;
  double v = constant;
  auto symbol = [&](const std::string& name) {
    auto it = env.find(name);
    return it == env.end() ? inf : std::max(1.0, it->second);
  };
  for (const auto& [sym, p] : powers) v *= std::pow(symbol(sym), p);
  if (factorial > 0) v *= std::pow(std::tgamma(symbol("V") + 1.0), factorial);
  return v;
}

void Bound::collect_symbols(std::set<std::string>& out) const {
  if (unbounded || is_zero()) return;
  for (const auto& [sym, p] : powers) out.insert(sym);
  if (factorial > 0) out.insert("V");
}

namespace {

std::string format_number(double v) {
  if (v == std::rint(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  std::ostringstream os;
  os << v;
  return os.str();
}

std::vector<std::string> symbol_parts(const Bound& b) {
  std::vector<std::string> parts;
  for (const auto& [sym, p] : b.powers) {
    parts.push_back(p == 1 ? sym : sym + "^" + std::to_string(p));
  }
  if (b.factorial > 0) {
    parts.push_back(b.factorial == 1 ? "V!" : "V!^" + std::to_string(b.factorial));
  }
  return parts;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) out += sep;
    out += parts[i];
  }
  return out;
}

}  // namespace

std::string Bound::to_string() const {
  if (unbounded) return "unbounded";
  if (is_zero()) return "0";
  std::vector<std::string> parts = symbol_parts(*this);
  if (constant != 1.0 || parts.empty()) {
    parts.insert(parts.begin(), format_number(constant));
  }
  return join(parts, "*");
}

std::string Bound::complexity_class() const {
  if (unbounded) return "unbounded";
  if (factorial > 0) return "O(exp)";
  if (powers.empty()) return "O(1)";
  return "O(" + join(symbol_parts(*this), "*") + ")";
}

bool Bound::operator==(const Bound& other) const noexcept {
  return unbounded == other.unbounded && constant == other.constant &&
         powers == other.powers && factorial == other.factorial;
}

Bound times(const Bound& a, const Bound& b) {
  if (a.is_zero() || b.is_zero()) return Bound::zero();
  if (a.unbounded || b.unbounded) return Bound::top();
  Bound r;
  r.constant = a.constant * b.constant;
  r.powers = a.powers;
  for (const auto& [sym, p] : b.powers) r.powers[sym] += p;
  r.factorial = a.factorial + b.factorial;
  return r;
}

Bound plus(const Bound& a, const Bound& b) {
  if (a.is_zero()) return b;
  if (b.is_zero()) return a;
  if (a.unbounded || b.unbounded) return Bound::top();
  Bound r;
  r.constant = a.constant + b.constant;
  r.powers = a.powers;
  for (const auto& [sym, p] : b.powers) {
    int& have = r.powers[sym];
    have = std::max(have, p);
  }
  r.factorial = std::max(a.factorial, b.factorial);
  return r;
}

bool cheaper(const Bound& a, const Bound& b) {
  if (a.unbounded != b.unbounded) return !a.unbounded;
  if (a.factorial != b.factorial) return a.factorial < b.factorial;
  if (a.degree() != b.degree()) return a.degree() < b.degree();
  if (a.powers != b.powers) return a.powers < b.powers;
  return a.constant < b.constant;
}

Bound min_bound(const Bound& a, const Bound& b) { return cheaper(b, a) ? b : a; }

// ---------------------------------------------------------------------------
// Column shapes & domains
// ---------------------------------------------------------------------------

namespace {

/// Coarse per-column value shape: what kind of values can reach a column.
/// `Addr` and `Path` have model-able domains (V node addresses; ≤ V·V!
/// simple paths); everything else falls back to the interval abstraction.
enum class Shape : std::uint8_t { Bottom, Addr, Num, Bool, Str, Path, Top };

Shape shape_join(Shape a, Shape b) {
  if (a == b) return a;
  if (a == Shape::Bottom) return b;
  if (b == Shape::Bottom) return a;
  return Shape::Top;
}

/// Most precise of two sound shapes for one variable (a join variable's
/// values lie in the intersection of its source columns, so either source
/// shape is a sound over-approximation; prefer the informative one).
Shape shape_refine(Shape a, Shape b) {
  if (a == Shape::Bottom || b == Shape::Bottom) return Shape::Bottom;
  if (a == Shape::Top) return b;
  return a;
}

Shape shape_of_value(const Value& v) {
  switch (v.kind()) {
    case ValueKind::Addr: return Shape::Addr;
    case ValueKind::Int:
    case ValueKind::Double: return Shape::Num;
    case ValueKind::Bool: return Shape::Bool;
    case ValueKind::Str: return Shape::Str;
    case ValueKind::List: return Shape::Path;
    case ValueKind::Nil: return Shape::Top;
  }
  return Shape::Top;
}

Shape term_shape(const TermPtr& term, const std::map<std::string, Shape>& vars) {
  if (term == nullptr) return Shape::Top;
  switch (term->kind) {
    case Term::Kind::Var: {
      auto it = vars.find(term->name);
      return it == vars.end() ? Shape::Top : it->second;
    }
    case Term::Kind::Const: return shape_of_value(term->constant);
    case Term::Kind::Binary: return Shape::Num;
    case Term::Kind::Func: {
      const Builtin* fn = find_builtin(term->name);
      if (fn == nullptr) return Shape::Top;
      if (fn->builds_list) return Shape::Path;
      if (fn->membership) return Shape::Bool;
      if (fn->length) return Shape::Num;
      return Shape::Top;
    }
  }
  return Shape::Top;
}

/// Everything the cost pass derives before bounding rules.
struct Context {
  const Program* program = nullptr;
  const SemanticReport* semantics = nullptr;
  std::map<std::string, std::size_t> arity;
  std::set<std::string> derived;  // head of some non-fact rule
  std::map<std::string, std::size_t> fact_count;
  /// Columns consumed (possibly transitively) as a location specifier: the
  /// runtime would fault on a non-address there, so their domain is V.
  std::map<std::string, std::vector<char>> addr_demanded;
  std::map<std::string, std::vector<Shape>> shapes;
  std::map<std::string, Bound> derivations;
};

void collect_signatures(Context& ctx) {
  const Program& program = *ctx.program;
  auto note = [&](const std::string& pred, std::size_t arity) {
    auto [it, inserted] = ctx.arity.emplace(pred, arity);
    if (!inserted) it->second = std::max(it->second, arity);
  };
  for (const auto& rule : program.rules) {
    note(rule.head.predicate, rule.head.args.size());
    if (rule.is_fact()) {
      ++ctx.fact_count[rule.head.predicate];
    } else {
      ctx.derived.insert(rule.head.predicate);
    }
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        note(ba->atom.predicate, ba->atom.args.size());
      }
    }
  }
  for (const auto& [pred, arity] : ctx.arity) {
    ctx.addr_demanded[pred].assign(arity, 0);
    ctx.shapes[pred].assign(arity, Shape::Bottom);
  }
}

/// Backward address-typing: seed every location-specifier column, then
/// propagate through joins — a positive body column whose variable is used
/// anywhere an address is demanded must itself hold addresses.
void infer_addr_demand(Context& ctx) {
  const Program& program = *ctx.program;
  auto demanded = [&](const std::string& pred, std::size_t col) -> char& {
    return ctx.addr_demanded[pred][col];
  };
  // Seeds: the '@' column of every atom occurrence.
  auto seed_atom = [&](const std::string& pred, int loc_index) {
    if (loc_index >= 0) demanded(pred, static_cast<std::size_t>(loc_index)) = 1;
  };
  for (const auto& rule : program.rules) {
    seed_atom(rule.head.predicate, rule.head.loc_index);
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        seed_atom(ba->atom.predicate, ba->atom.loc_index);
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& rule : program.rules) {
      if (rule.is_fact()) continue;
      std::set<std::string> addr_vars;
      auto demand_var = [&](const TermPtr& t) {
        if (t != nullptr && t->kind == Term::Kind::Var) addr_vars.insert(t->name);
      };
      for (std::size_t c = 0; c < rule.head.args.size(); ++c) {
        if (demanded(rule.head.predicate, c) != 0 && !rule.head.args[c].is_agg()) {
          demand_var(rule.head.args[c].term);
        }
      }
      for (const auto& elem : rule.body) {
        const auto* ba = std::get_if<BodyAtom>(&elem);
        if (ba == nullptr) continue;
        for (std::size_t c = 0; c < ba->atom.args.size(); ++c) {
          if (demanded(ba->atom.predicate, c) != 0) demand_var(ba->atom.args[c]);
        }
      }
      // Mark the source columns of demanded variables.
      for (const auto& elem : rule.body) {
        const auto* ba = std::get_if<BodyAtom>(&elem);
        if (ba == nullptr || ba->negated) continue;
        for (std::size_t c = 0; c < ba->atom.args.size(); ++c) {
          const auto& t = ba->atom.args[c];
          if (t != nullptr && t->kind == Term::Kind::Var &&
              addr_vars.count(t->name) != 0 &&
              demanded(ba->atom.predicate, c) == 0) {
            demanded(ba->atom.predicate, c) = 1;
            changed = true;
          }
        }
      }
    }
  }
}

/// Forward value shapes. Base (underived) predicates start at Addr where
/// address-demanded and Top elsewhere (external injection is untyped); ground
/// facts contribute their constant shapes; derived columns join the head
/// term shapes of every deriving rule to fixpoint.
void infer_shapes(Context& ctx) {
  const Program& program = *ctx.program;
  for (auto& [pred, cols] : ctx.shapes) {
    if (ctx.derived.count(pred) != 0) continue;
    for (std::size_t c = 0; c < cols.size(); ++c) {
      cols[c] = ctx.addr_demanded[pred][c] != 0 ? Shape::Addr : Shape::Top;
    }
  }
  for (const auto& rule : program.rules) {
    if (!rule.is_fact()) continue;
    auto& cols = ctx.shapes[rule.head.predicate];
    for (std::size_t c = 0; c < rule.head.args.size() && c < cols.size(); ++c) {
      const auto& arg = rule.head.args[c];
      if (arg.is_agg() || arg.term == nullptr) continue;
      if (ctx.derived.count(rule.head.predicate) != 0) {
        cols[c] = shape_join(cols[c], term_shape(arg.term, {}));
      }
    }
  }
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& rule : program.rules) {
      if (rule.is_fact()) continue;
      std::map<std::string, Shape> vars;
      for (const auto& elem : rule.body) {
        const auto* ba = std::get_if<BodyAtom>(&elem);
        if (ba == nullptr || ba->negated) continue;
        const auto& cols = ctx.shapes[ba->atom.predicate];
        const auto& dem = ctx.addr_demanded[ba->atom.predicate];
        for (std::size_t c = 0; c < ba->atom.args.size() && c < cols.size(); ++c) {
          const auto& t = ba->atom.args[c];
          if (t == nullptr || t->kind != Term::Kind::Var) continue;
          const Shape src = dem[c] != 0 ? Shape::Addr : cols[c];
          auto [it, inserted] = vars.emplace(t->name, src);
          if (!inserted) it->second = shape_refine(it->second, src);
        }
      }
      // Binding comparisons (`C = C1 + C2`) shape additional variables; two
      // passes cover one level of chaining, which is all the dialect uses.
      for (int pass = 0; pass < 2; ++pass) {
        for (const auto& elem : rule.body) {
          const auto* cmp = std::get_if<Comparison>(&elem);
          if (cmp == nullptr || cmp->op != CmpOp::Eq) continue;
          if (cmp->lhs != nullptr && cmp->lhs->kind == Term::Kind::Var &&
              vars.count(cmp->lhs->name) == 0) {
            vars[cmp->lhs->name] = term_shape(cmp->rhs, vars);
          } else if (cmp->rhs != nullptr && cmp->rhs->kind == Term::Kind::Var &&
                     vars.count(cmp->rhs->name) == 0) {
            vars[cmp->rhs->name] = term_shape(cmp->lhs, vars);
          }
        }
      }
      auto& cols = ctx.shapes[rule.head.predicate];
      for (std::size_t c = 0; c < rule.head.args.size() && c < cols.size(); ++c) {
        const auto& arg = rule.head.args[c];
        Shape s = Shape::Top;
        if (arg.is_agg()) {
          if (*arg.agg == AggKind::Count || *arg.agg == AggKind::Sum) {
            s = Shape::Num;
          } else {
            auto it = vars.find(arg.agg_var);
            s = it == vars.end() ? Shape::Top : it->second;
          }
        } else {
          s = term_shape(arg.term, vars);
        }
        const Shape joined = shape_join(cols[c], s);
        if (joined != cols[c]) {
          cols[c] = joined;
          changed = true;
        }
      }
    }
  }
}

/// Domain bound of one column: how many distinct values can appear there.
Bound column_domain(const Context& ctx, const std::string& pred, std::size_t col) {
  const auto ait = ctx.semantics->abstraction.find(pred);
  if (ait != ctx.semantics->abstraction.end() && col < ait->second.size()) {
    const absint::AbstractValue& av = ait->second[col];
    if (av.is_bottom()) return Bound::zero();
    if (av.is_bool()) return Bound::count(2);
    if (av.is_num() && av.num.bounded_below() && av.num.bounded_above()) {
      // Integer-valued metrics (hop counts, costs) — see DESIGN.md §13 for
      // the integrality assumption.
      const double n = std::floor(av.num.hi) - std::ceil(av.num.lo) + 1.0;
      return Bound::count(std::max(0.0, n));
    }
  }
  const auto dit = ctx.addr_demanded.find(pred);
  if (dit != ctx.addr_demanded.end() && col < dit->second.size() &&
      dit->second[col] != 0) {
    return Bound::sym("V");
  }
  const auto sit = ctx.shapes.find(pred);
  const Shape s = (sit != ctx.shapes.end() && col < sit->second.size())
                      ? sit->second[col]
                      : Shape::Top;
  switch (s) {
    case Shape::Addr: return Bound::sym("V");
    case Shape::Path: return Bound::paths();
    case Shape::Bool: return Bound::count(2);
    case Shape::Bottom: return Bound::zero();
    default: return Bound::top();
  }
}

/// Close `have` under the surviving FDs (chase with augmentation).
std::set<int> fd_closure(const std::map<std::string, std::vector<Fd>>& fds,
                         const std::string& pred, std::set<int> have,
                         std::size_t arity) {
  bool changed = true;
  while (changed) {
    changed = false;
    for (std::size_t c = 0; c < arity; ++c) {
      const int col = static_cast<int>(c);
      if (have.count(col) != 0) continue;
      if (fd_determines(fds, pred, have, col)) {
        have.insert(col);
        changed = true;
      }
    }
  }
  return have;
}

/// Greedy key cover: drop columns that the remaining set still determines,
/// so table-size products only range over an (approximate) candidate key.
std::set<int> reduce_columns(const Context& ctx, const std::string& pred,
                             std::size_t arity) {
  std::set<int> keep;
  for (std::size_t c = 0; c < arity; ++c) keep.insert(static_cast<int>(c));
  for (std::size_t c = arity; c-- > 0;) {
    std::set<int> trial = keep;
    trial.erase(static_cast<int>(c));
    if (fd_closure(ctx.semantics->fds, pred, trial, arity).size() == arity) {
      keep = std::move(trial);
    }
  }
  return keep;
}

Bound derivations_of(const Context& ctx, const std::string& pred) {
  auto it = ctx.derivations.find(pred);
  return it == ctx.derivations.end() ? Bound::top() : it->second;
}

/// Upper bound on distinct body solutions when the positive atoms are
/// joined in `order` (body-element indices). Per probe, the fan-out is the
/// cheaper of the predicate's derivation bound and the product of the
/// domains of columns not FD-determined by the already-bound ones.
Bound join_order_bound(const Context& ctx, const Rule& rule,
                       const std::vector<std::size_t>& order) {
  std::set<std::string> bound_vars;
  Bound total = Bound::one();
  for (const std::size_t idx : order) {
    const Atom& atom = std::get<BodyAtom>(rule.body[idx]).atom;
    const std::size_t arity = atom.args.size();
    std::set<int> bound_cols;
    for (std::size_t c = 0; c < arity; ++c) {
      const auto& t = atom.args[c];
      if (t == nullptr) continue;
      if (t->kind == Term::Kind::Const ||
          (t->kind == Term::Kind::Var && bound_vars.count(t->name) != 0)) {
        bound_cols.insert(static_cast<int>(c));
      }
    }
    const std::set<int> closed =
        fd_closure(ctx.semantics->fds, atom.predicate, bound_cols, arity);
    Bound fanout = Bound::one();
    for (std::size_t c = 0; c < arity; ++c) {
      if (closed.count(static_cast<int>(c)) != 0) continue;
      fanout = times(fanout, column_domain(ctx, atom.predicate, c));
    }
    total = times(total, min_bound(derivations_of(ctx, atom.predicate), fanout));
    std::vector<std::string> vars;
    atom.collect_vars(vars);
    bound_vars.insert(vars.begin(), vars.end());
  }
  return total;
}

std::vector<std::size_t> positive_atom_indices(const Rule& rule) {
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < rule.body.size(); ++i) {
    const auto* ba = std::get_if<BodyAtom>(&rule.body[i]);
    if (ba != nullptr && !ba->negated) out.push_back(i);
  }
  return out;
}

/// Per-predicate derivation bounds, computed SCC by SCC in dependency order
/// so non-recursive predicates can also be bounded by the sum of their
/// rules' join sizes (whose body predicates are already bounded).
void compute_derivations(Context& ctx) {
  const Program& program = *ctx.program;
  auto bound_one = [&](const std::string& pred) {
    const std::size_t arity = ctx.arity.count(pred) != 0 ? ctx.arity.at(pred) : 0;
    const std::size_t facts =
        ctx.fact_count.count(pred) != 0 ? ctx.fact_count.at(pred) : 0;
    if (ctx.derived.count(pred) == 0) {
      // Base table: populated by ground facts and external injection.
      if (program.materialization_of(pred) != nullptr || facts == 0) {
        return Bound::sym("|" + pred + "|");
      }
      return Bound::count(static_cast<double>(facts));
    }
    // Candidate 1: product of column domains over a greedy key cover.
    Bound best = Bound::top();
    const std::set<int> cover = reduce_columns(ctx, pred, arity);
    Bound product = Bound::one();
    for (const int c : cover) {
      product = times(product, column_domain(ctx, pred, static_cast<std::size_t>(c)));
    }
    best = min_bound(best, product);
    // Candidate 2 (non-recursive only): sum of per-rule join bounds.
    if (ctx.semantics->recursive_predicates.count(pred) == 0) {
      Bound sum = Bound::count(static_cast<double>(facts));
      for (const auto& rule : program.rules) {
        if (rule.is_fact() || rule.head.predicate != pred) continue;
        sum = plus(sum, join_order_bound(ctx, rule, positive_atom_indices(rule)));
      }
      best = min_bound(best, sum);
    }
    return best;
  };
  for (const auto& scc : ctx.semantics->sccs) {
    for (const auto& pred : scc) ctx.derivations[pred] = bound_one(pred);
  }
  // Predicates outside the dependency graph (e.g. fact-only, never read).
  for (const auto& [pred, arity] : ctx.arity) {
    if (ctx.derivations.count(pred) == 0) ctx.derivations[pred] = bound_one(pred);
  }
}

/// Location-specifier names (variable name, or rendered constant) mentioned
/// by the head and positive body atoms. Two or more ⇒ the rule ships.
bool rule_ships(const Rule& rule) {
  std::set<std::string> sites;
  auto note = [&](const std::vector<TermPtr>& args, int loc_index) {
    if (loc_index < 0 || static_cast<std::size_t>(loc_index) >= args.size()) return;
    const auto& t = args[static_cast<std::size_t>(loc_index)];
    if (t != nullptr) sites.insert(t->to_string());
  };
  if (rule.head.loc_index >= 0 &&
      static_cast<std::size_t>(rule.head.loc_index) < rule.head.args.size()) {
    const auto& arg = rule.head.args[static_cast<std::size_t>(rule.head.loc_index)];
    if (!arg.is_agg() && arg.term != nullptr) sites.insert(arg.term->to_string());
  }
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      if (!ba->negated) note(ba->atom.args, ba->atom.loc_index);
    }
  }
  return sites.size() >= 2;
}

/// Static wire size of one head tuple: frame overhead plus one scalar (or,
/// for path-shaped columns, up to V scalars) per column.
Bound tuple_bytes(const Context& ctx, const std::string& pred) {
  Bound total = Bound::count(64.0);
  const auto sit = ctx.shapes.find(pred);
  const std::size_t arity = ctx.arity.count(pred) != 0 ? ctx.arity.at(pred) : 0;
  for (std::size_t c = 0; c < arity; ++c) {
    const Shape s = (sit != ctx.shapes.end() && c < sit->second.size())
                        ? sit->second[c]
                        : Shape::Top;
    total = plus(total, s == Shape::Path ? times(Bound::sym("V"), Bound::sym("A"))
                                         : Bound::sym("A"));
  }
  return total;
}

/// Cheapest join order for the rule's positive atoms: exhaustive for small
/// bodies, greedy (cheapest next probe) beyond `max_exhaustive_atoms`.
std::vector<std::size_t> best_join_order(const Context& ctx, const Rule& rule,
                                         const std::vector<std::size_t>& atoms,
                                         const CostOptions& options) {
  if (atoms.size() < 2) return atoms;
  if (atoms.size() <= static_cast<std::size_t>(options.max_exhaustive_atoms)) {
    std::vector<std::size_t> perm = atoms;
    std::sort(perm.begin(), perm.end());
    std::vector<std::size_t> best = atoms;
    Bound best_bound = join_order_bound(ctx, rule, atoms);
    do {
      const Bound b = join_order_bound(ctx, rule, perm);
      if (cheaper(b, best_bound)) {
        best_bound = b;
        best = perm;
      }
    } while (std::next_permutation(perm.begin(), perm.end()));
    return best;
  }
  std::vector<std::size_t> remaining = atoms;
  std::vector<std::size_t> chosen;
  while (!remaining.empty()) {
    std::size_t pick = 0;
    Bound pick_bound = Bound::top();
    bool first = true;
    for (std::size_t i = 0; i < remaining.size(); ++i) {
      std::vector<std::size_t> trial = chosen;
      trial.push_back(remaining[i]);
      const Bound b = join_order_bound(ctx, rule, trial);
      if (first || cheaper(b, pick_bound)) {
        pick = i;
        pick_bound = b;
        first = false;
      }
    }
    chosen.push_back(remaining[pick]);
    remaining.erase(remaining.begin() + static_cast<std::ptrdiff_t>(pick));
  }
  return chosen;
}

/// Reordering the body cannot change the final database iff the head is not
/// a materialized predicate whose P2 keys drop a column the keys do not
/// functionally determine (ND0017's last-writer-wins hazard).
bool reorder_is_safe(const Context& ctx, const Rule& rule) {
  const Materialize* mat = ctx.program->materialization_of(rule.head.predicate);
  if (mat == nullptr) return true;
  const std::size_t arity = rule.head.args.size();
  if (mat->key_fields.empty()) return true;  // whole-tuple keyed by default
  std::set<int> keys;
  for (const std::size_t k : mat->key_fields) {
    if (k >= 1) keys.insert(static_cast<int>(k - 1));
  }
  if (keys.size() == arity) return true;
  return fd_closure(ctx.semantics->fds, rule.head.predicate, keys, arity).size() ==
         arity;
}

/// Asymptotic signature differs (not just the constant factor).
bool rank_differs(const Bound& a, const Bound& b) {
  return a.unbounded != b.unbounded || a.factorial != b.factorial ||
         a.powers != b.powers;
}

std::string order_hint(const Rule& rule, const std::vector<std::size_t>& order) {
  std::vector<std::string> names;
  for (const std::size_t idx : order) {
    names.push_back(std::get<BodyAtom>(rule.body[idx]).atom.predicate);
  }
  return join(names, ", ");
}

}  // namespace

// ---------------------------------------------------------------------------
// Report plumbing
// ---------------------------------------------------------------------------

const PredicateCost* CostReport::predicate(const std::string& name) const {
  for (const auto& p : predicates) {
    if (p.predicate == name) return &p;
  }
  return nullptr;
}

const RuleCost* CostReport::rule_at(std::size_t rule_index) const {
  for (const auto& r : rules) {
    if (r.rule_index == rule_index) return &r;
  }
  return nullptr;
}

CostReport analyze(const Program& program, const SemanticReport& semantics,
                   DiagnosticSink& sink, const CostOptions& options) {
  Context ctx;
  ctx.program = &program;
  ctx.semantics = &semantics;
  collect_signatures(ctx);
  infer_addr_demand(ctx);
  infer_shapes(ctx);
  compute_derivations(ctx);

  CostReport report;
  for (const auto& [pred, bound] : ctx.derivations) {
    PredicateCost pc;
    pc.predicate = pred;
    pc.base = ctx.derived.count(pred) == 0;
    pc.derivations = bound;
    report.predicates.push_back(std::move(pc));
  }

  // Fixpoint round bound: every round derives at least one new tuple, so the
  // round count is bounded by one plus the total derivation bound. Feeds the
  // recompute multiplier for aggregate rules.
  Bound rounds = Bound::count(1.0);
  for (const auto& [pred, bound] : ctx.derivations) rounds = plus(rounds, bound);

  report.total_messages = Bound::zero();
  report.total_bytes = Bound::zero();

  for (std::size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& rule = program.rules[ri];
    if (rule.is_fact()) continue;
    RuleCost rc;
    rc.rule_index = ri;
    rc.rule = rule.display_name();
    rc.head = rule.head.predicate;
    rc.aggregate = rule.head.has_aggregate();
    rc.ships = rule_ships(rule);
    rc.order = positive_atom_indices(rule);
    rc.solutions = join_order_bound(ctx, rule, rc.order);
    const std::size_t k = rc.order.size();
    if (rc.aggregate) {
      // The simulator's interpreter recomputes aggregates on every delta
      // round; the evaluator's single pass is strictly cheaper.
      rc.firings = times(rounds, rc.solutions);
    } else if (options.firing_slack) {
      // Semi-naive slack: round-0 full join, one delta pass per positive
      // atom position, plus same-round re-probes of freshly inserted tuples.
      rc.firings = times(Bound::count(static_cast<double>(2 * k + 2)), rc.solutions);
    } else {
      rc.firings = rc.solutions;
    }
    rc.messages = rc.ships ? rc.firings : Bound::zero();
    rc.bytes = rc.ships ? times(rc.messages, tuple_bytes(ctx, rule.head.predicate))
                        : Bound::zero();
    rc.message_class = rc.ships ? rc.messages.complexity_class() : "-";
    rc.reorder_safe = reorder_is_safe(ctx, rule);
    rc.best_order = rc.aggregate ? rc.order
                                 : best_join_order(ctx, rule, rc.order, options);
    rc.best_solutions = join_order_bound(ctx, rule, rc.best_order);
    if (!cheaper(rc.best_solutions, rc.solutions)) {
      rc.best_order = rc.order;
      rc.best_solutions = rc.solutions;
    }

    // ND0019: the written order is quadratic or worse while a provably
    // cheaper ordering of the same atoms exists.
    if (!rc.aggregate && k >= 2 && rc.solutions.degree() >= 2 &&
        cheaper(rc.best_solutions, rc.solutions) &&
        rank_differs(rc.best_solutions, rc.solutions)) {
      sink.warning("ND0019",
                   "rule " + rc.rule + " joins in an order bounded by " +
                       rc.solutions.to_string() + " solutions; ordering the body as (" +
                       order_hint(rule, rc.best_order) + ") is provably bounded by " +
                       rc.best_solutions.to_string(),
                   rule.span())
          .in_rule(static_cast<int>(ri), rc.head)
          .hint = "reorder the body atoms, or run the planner with --cost-order";
    }
    // ND0020: unbounded message amplification on an async channel.
    if (rc.ships && rc.messages.unbounded) {
      sink.warning("ND0020",
                   "rule " + rc.rule + " ships " + rc.head +
                       " tuples across nodes with no static bound on the message "
                       "count",
                   rule.span())
          .in_rule(static_cast<int>(ri), rc.head)
          .hint =
          "bound the recursion (cycle guard or decreasing metric) or key the "
          "head relation so its derivations are finite";
    }
    // ND0021: recompute-heavy aggregate although incremental maintenance is
    // statically safe (mirrors the planner's incremental preconditions).
    if (rc.aggregate) {
      bool negated = false;
      std::set<std::string> seen;
      bool self_join = false;
      for (const auto& elem : rule.body) {
        if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
          if (ba->negated) negated = true;
          if (!seen.insert(ba->atom.predicate).second) self_join = true;
        }
      }
      const bool incremental_safe = !negated && !self_join && k >= 1;
      if (incremental_safe && rc.solutions.degree() >= 1) {
        sink.note("ND0021",
                  "aggregate rule " + rc.rule + " is recomputed from scratch on "
                      "every input change (up to " + rc.solutions.to_string() +
                      " solutions per recompute); incremental maintenance is "
                      "statically safe for it",
                  rule.span())
            .in_rule(static_cast<int>(ri), rc.head)
            .hint = "the dataflow planner maintains this aggregate incrementally "
                    "by default";
      }
    }

    report.total_messages = plus(report.total_messages, rc.messages);
    report.total_bytes = plus(report.total_bytes, rc.bytes);
    report.rules.push_back(std::move(rc));
  }
  return report;
}

CostReport analyze(const Program& program, DiagnosticSink& sink,
                   const CostOptions& options) {
  DiagnosticSink scratch;
  const SemanticReport semantics = analyze_semantics(program, scratch);
  return analyze(program, semantics, sink, options);
}

// ---------------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------------

namespace {

std::string json_index_list(const std::vector<std::size_t>& xs) {
  std::string out = "[";
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (i != 0) out += ",";
    out += std::to_string(xs[i]);
  }
  return out + "]";
}

}  // namespace

std::string to_json(const CostReport& report) {
  std::ostringstream os;
  os << "{\"symbols\":{"
     << "\"V\":\"distinct node addresses\","
     << "\"V!\":\"factorial(V): simple-path enumeration\","
     << "\"A\":\"max scalar wire bytes\","
     << "\"|pred|\":\"externally injected tuples of pred\"}";
  os << ",\"predicates\":[";
  for (std::size_t i = 0; i < report.predicates.size(); ++i) {
    const auto& p = report.predicates[i];
    if (i != 0) os << ",";
    os << "{\"predicate\":\"" << obs::json_escape(p.predicate) << "\""
       << ",\"base\":" << (p.base ? "true" : "false")
       << ",\"derivations\":\"" << obs::json_escape(p.derivations.to_string()) << "\""
       << ",\"class\":\"" << obs::json_escape(p.derivations.complexity_class())
       << "\"}";
  }
  os << "],\"rules\":[";
  for (std::size_t i = 0; i < report.rules.size(); ++i) {
    const auto& r = report.rules[i];
    if (i != 0) os << ",";
    os << "{\"index\":" << r.rule_index << ",\"rule\":\"" << obs::json_escape(r.rule)
       << "\",\"head\":\"" << obs::json_escape(r.head) << "\""
       << ",\"ships\":" << (r.ships ? "true" : "false")
       << ",\"aggregate\":" << (r.aggregate ? "true" : "false")
       << ",\"order\":" << json_index_list(r.order)
       << ",\"solutions\":\"" << obs::json_escape(r.solutions.to_string()) << "\""
       << ",\"firings\":\"" << obs::json_escape(r.firings.to_string()) << "\""
       << ",\"messages\":\"" << obs::json_escape(r.messages.to_string()) << "\""
       << ",\"bytes\":\"" << obs::json_escape(r.bytes.to_string()) << "\""
       << ",\"class\":\"" << obs::json_escape(r.message_class) << "\""
       << ",\"best_order\":" << json_index_list(r.best_order)
       << ",\"best_solutions\":\"" << obs::json_escape(r.best_solutions.to_string())
       << "\",\"reorder_safe\":" << (r.reorder_safe ? "true" : "false") << "}";
  }
  os << "],\"total_messages\":\"" << obs::json_escape(report.total_messages.to_string())
     << "\",\"total_bytes\":\"" << obs::json_escape(report.total_bytes.to_string())
     << "\"}";
  return os.str();
}

std::string to_human(const CostReport& report) {
  std::ostringstream os;
  os << "cost report\n  predicates (derivation bounds):\n";
  for (const auto& p : report.predicates) {
    os << "    " << p.predicate << ": " << p.derivations.to_string() << " "
       << p.derivations.complexity_class() << (p.base ? " (base)" : "") << "\n";
  }
  os << "  rules:\n";
  for (const auto& r : report.rules) {
    os << "    " << r.rule << " -> " << r.head << ": solutions="
       << r.solutions.to_string() << " firings=" << r.firings.to_string();
    if (r.aggregate) os << " (aggregate)";
    if (r.ships) {
      os << " ships " << r.message_class << " messages=" << r.messages.to_string()
         << " bytes=" << r.bytes.to_string();
    }
    if (r.best_order != r.order) {
      os << " [cheaper order: " << r.best_solutions.to_string() << "]";
    }
    os << "\n";
  }
  os << "  totals: messages=" << report.total_messages.to_string()
     << " bytes=" << report.total_bytes.to_string() << "\n";
  return os.str();
}

std::string to_dot(const Program& program, const CostReport& report) {
  std::ostringstream os;
  os << "digraph cost {\n  rankdir=LR;\n  node [shape=box,fontname=\"monospace\"];\n";
  for (const auto& p : report.predicates) {
    os << "  \"" << p.predicate << "\" [label=\"" << p.predicate << "\\n"
       << p.derivations.to_string() << "\"";
    if (p.derivations.unbounded) os << ",color=red";
    else if (p.base) os << ",style=filled,fillcolor=lightgrey";
    os << "];\n";
  }
  std::set<std::string> edges;
  for (const auto& r : report.rules) {
    const Rule& rule = program.rules[r.rule_index];
    for (const auto& elem : rule.body) {
      const auto* ba = std::get_if<BodyAtom>(&elem);
      if (ba == nullptr) continue;
      std::ostringstream edge;
      edge << "  \"" << ba->atom.predicate << "\" -> \"" << r.head
           << "\" [label=\"" << r.rule << ": " << r.firings.complexity_class()
           << "\"";
      if (r.ships) edge << ",style=dashed";
      if (ba->negated) edge << ",arrowhead=odot";
      edge << "];\n";
      edges.insert(edge.str());
    }
  }
  for (const auto& e : edges) os << e;
  os << "}\n";
  return os.str();
}

std::vector<std::vector<std::size_t>> plan_orders(const Program& program) {
  DiagnosticSink scratch;
  const CostReport report = analyze(program, scratch);
  std::vector<std::vector<std::size_t>> orders;
  orders.reserve(program.rules.size());
  for (std::size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& rule = program.rules[ri];
    std::vector<std::size_t> identity(rule.body.size());
    for (std::size_t i = 0; i < identity.size(); ++i) identity[i] = i;
    const RuleCost* rc = report.rule_at(ri);
    if (rc == nullptr || rc->aggregate || !rc->reorder_safe ||
        rc->best_order == rc->order) {
      orders.push_back(std::move(identity));
      continue;
    }
    std::vector<std::size_t> perm = rc->best_order;
    for (std::size_t i = 0; i < rule.body.size(); ++i) {
      if (std::find(rc->order.begin(), rc->order.end(), i) == rc->order.end()) {
        perm.push_back(i);
      }
    }
    orders.push_back(std::move(perm));
  }
  return orders;
}

}  // namespace fvn::ndlog::cost
