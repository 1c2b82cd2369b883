#include "ndlog/semantic.hpp"

#include <algorithm>
#include <sstream>

#include "ndlog/analysis.hpp"
#include "ndlog/builtins.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"

namespace fvn::ndlog {

namespace {

std::string join_names(const std::set<std::string>& names) {
  std::string out;
  for (const auto& n : names) {
    if (!out.empty()) out += ", ";
    out += n;
  }
  return out;
}

// -------------------------------------------------------------------------
// Divergence prediction (ND0015)
// -------------------------------------------------------------------------

bool is_const_bool(const TermPtr& t, bool value) {
  return t && t->kind == Term::Kind::Const && t->constant.is_bool() &&
         t->constant.as_bool() == value;
}

/// The builtin `t` calls; nullptr when `t` is not a call of one.
const Builtin* called_builtin(const Term* t) {
  return t != nullptr && t->kind == Term::Kind::Func ? find_builtin(t->name) : nullptr;
}

/// A membership test (`f_inPath(...)`) `= false` (either orientation, also
/// `!= true`): the idiom that makes path recursion terminate on cyclic
/// topologies.
bool is_cycle_guard(const Comparison& cmp) {
  const auto guard = [](const TermPtr& call, const TermPtr& cst, CmpOp op) {
    const Builtin* fn = called_builtin(call.get());
    if (fn == nullptr || !fn->membership) return false;
    return (op == CmpOp::Eq && is_const_bool(cst, false)) ||
           (op == CmpOp::Ne && is_const_bool(cst, true));
  };
  return guard(cmp.lhs, cmp.rhs, cmp.op) || guard(cmp.rhs, cmp.lhs, cmp.op);
}

/// Per-rule context for growth detection: which variables originate from
/// in-component body atoms, resolved through `V = expr` binding chains.
class GrowthScan {
 public:
  GrowthScan(const Rule& rule, const std::set<std::string>& scc) {
    for (const auto& elem : rule.body) {
      const auto* ba = std::get_if<BodyAtom>(&elem);
      if (ba == nullptr || ba->negated) continue;
      const bool in_scc = scc.count(ba->atom.predicate) != 0;
      for (const auto& arg : ba->atom.args) {
        const std::string& v = var_name(arg);
        if (v.empty()) continue;
        atom_vars_.insert(v);
        if (in_scc) scc_vars_.insert(v);
      }
    }
    for (const auto& elem : rule.body) {
      const auto* cmp = std::get_if<Comparison>(&elem);
      if (cmp == nullptr || cmp->op != CmpOp::Eq) continue;
      const std::string& lv = var_name(cmp->lhs);
      const std::string& rv = var_name(cmp->rhs);
      if (!lv.empty() && atom_vars_.count(lv) == 0) {
        bindings_.emplace(lv, cmp->rhs.get());
      } else if (!rv.empty() && atom_vars_.count(rv) == 0) {
        bindings_.emplace(rv, cmp->lhs.get());
      }
    }
  }

  /// Does evaluating `term` involve a value carried around the cycle?
  bool has_scc_origin(const Term& term, std::set<std::string>& visiting) const {
    if (term.kind == Term::Kind::Var) {
      if (scc_vars_.count(term.name) != 0) return true;
      if (atom_vars_.count(term.name) != 0) return false;
      auto it = bindings_.find(term.name);
      if (it == bindings_.end() || visiting.count(term.name) != 0) return false;
      visiting.insert(term.name);
      return has_scc_origin(*it->second, visiting);
    }
    for (const auto& a : term.args) {
      if (a && has_scc_origin(*a, visiting)) return true;
    }
    return false;
  }

  /// Does `term` *grow* a cycle-carried value (arithmetic accumulation or
  /// path concatenation)?
  bool grows(const Term& term, std::set<std::string>& visiting) const {
    std::set<std::string> origin_visiting;
    switch (term.kind) {
      case Term::Kind::Binary:
        if (term.op == BinOp::Add || term.op == BinOp::Mul) {
          return has_scc_origin(term, origin_visiting);
        }
        return false;
      case Term::Kind::Func: {
        const Builtin* fn = called_builtin(&term);
        return fn != nullptr && fn->grows_list && has_scc_origin(term, origin_visiting);
      }
      case Term::Kind::Var: {
        if (atom_vars_.count(term.name) != 0) return false;
        auto it = bindings_.find(term.name);
        if (it == bindings_.end() || visiting.count(term.name) != 0) return false;
        visiting.insert(term.name);
        return grows(*it->second, visiting);
      }
      default:
        return false;
    }
  }

 private:
  std::set<std::string> atom_vars_;  // bound by any positive body atom
  std::set<std::string> scc_vars_;   // bound by an in-component body atom
  std::map<std::string, const Term*> bindings_;  // V = expr chains
};

/// Is the head variable `v` bounded above by some comparison in the rule
/// (evaluated under the rule's refined variable abstraction)? Covers the
/// `C < 1000` / `D < 100` termination idiom.
bool bounded_above_by_comparison(const Rule& rule, const std::string& v,
                                 const std::map<std::string, absint::AbstractValue>& vars) {
  for (const auto& elem : rule.body) {
    const auto* cmp = std::get_if<Comparison>(&elem);
    if (cmp == nullptr) continue;
    const std::string& lv = var_name(cmp->lhs);
    const std::string& rv = var_name(cmp->rhs);
    if (lv == v && (cmp->op == CmpOp::Lt || cmp->op == CmpOp::Le)) {
      const auto b = absint::eval_term(*cmp->rhs, vars);
      if (b.is_num() && b.num.bounded_above()) return true;
    }
    if (rv == v && (cmp->op == CmpOp::Gt || cmp->op == CmpOp::Ge)) {
      const auto b = absint::eval_term(*cmp->lhs, vars);
      if (b.is_num() && b.num.bounded_above()) return true;
    }
  }
  return false;
}

// -------------------------------------------------------------------------
// Functional-dependency inference (ND0017)
// -------------------------------------------------------------------------

/// All vars of `term` are in `determined` (constants trivially qualify).
bool fully_determined(const Term& term, const std::set<std::string>& determined) {
  if (term.kind == Term::Kind::Var) return determined.count(term.name) != 0;
  for (const auto& a : term.args) {
    if (a && !fully_determined(*a, determined)) return false;
  }
  return true;
}

/// Mark the variables of `term` determined where the term's value pins them
/// down: a bare variable, a list builder's arguments (the list determines
/// each), or the non-constant side of an add/sub with a constant.
void invert_into(const Term& term, std::set<std::string>& determined) {
  switch (term.kind) {
    case Term::Kind::Var:
      determined.insert(term.name);
      return;
    case Term::Kind::Func:
      if (const Builtin* fn = called_builtin(&term); fn != nullptr && fn->builds_list) {
        for (const auto& a : term.args) {
          if (a) invert_into(*a, determined);
        }
      }
      return;
    case Term::Kind::Binary:
      if (term.op == BinOp::Add || term.op == BinOp::Sub) {
        const bool l_const = term.args[0]->kind == Term::Kind::Const;
        const bool r_const = term.args[1]->kind == Term::Kind::Const;
        if (l_const && !r_const) invert_into(*term.args[1], determined);
        if (r_const && !l_const) invert_into(*term.args[0], determined);
      }
      return;
    default:
      return;
  }
}

using FdMap = std::map<std::string, std::vector<Fd>>;

/// Resolve a head term to the constructor that produces it: a constant, a
/// function application (directly or through a `Var = f(...)`/`Var = const`
/// body equality), or nullptr when the value is an opaque variable.
const Term* resolve_constructor(const Rule& rule, const TermPtr& t) {
  if (!t) return nullptr;
  if (t->kind == Term::Kind::Const || t->kind == Term::Kind::Func) return t.get();
  if (t->kind != Term::Kind::Var) return nullptr;
  for (const auto& elem : rule.body) {
    const auto* cmp = std::get_if<Comparison>(&elem);
    if (cmp == nullptr || cmp->op != CmpOp::Eq) continue;
    const Term* lhs = cmp->lhs.get();
    const Term* rhs = cmp->rhs.get();
    for (int flip = 0; flip < 2; ++flip) {
      if (lhs != nullptr && rhs != nullptr && lhs->kind == Term::Kind::Var &&
          lhs->name == t->name &&
          (rhs->kind == Term::Kind::Const || rhs->kind == Term::Kind::Func)) {
        return rhs;
      }
      std::swap(lhs, rhs);
    }
  }
  return nullptr;
}

/// True when `rule` merely copies an existing tuple of its own head predicate
/// through the FD: the dependent head term is the very variable sitting at
/// the dependent position of a positive same-predicate body atom, and every
/// determinant position carries the identical variable (or equal constant) in
/// head and body. Such a rule can never introduce a fresh dependent value for
/// a determinant, so it is consistent with any other defining rule.
bool fd_copy_rule(const Rule& rule, const Fd& fd) {
  if (static_cast<std::size_t>(fd.dependent) >= rule.head.args.size()) return false;
  const auto& dep = rule.head.args[static_cast<std::size_t>(fd.dependent)];
  if (dep.is_agg() || !dep.term || dep.term->kind != Term::Kind::Var) return false;
  for (const auto& elem : rule.body) {
    const auto* ba = std::get_if<BodyAtom>(&elem);
    if (ba == nullptr || ba->negated || ba->atom.predicate != rule.head.predicate) {
      continue;
    }
    if (static_cast<std::size_t>(fd.dependent) >= ba->atom.args.size()) continue;
    const auto& bdep = ba->atom.args[static_cast<std::size_t>(fd.dependent)];
    if (!bdep || bdep->kind != Term::Kind::Var || bdep->name != dep.term->name) {
      continue;
    }
    bool dets_match = true;
    for (const int p : fd.determinant) {
      if (static_cast<std::size_t>(p) >= rule.head.args.size() ||
          static_cast<std::size_t>(p) >= ba->atom.args.size()) {
        dets_match = false;
        break;
      }
      const auto& h = rule.head.args[static_cast<std::size_t>(p)];
      const auto& b = ba->atom.args[static_cast<std::size_t>(p)];
      if (h.is_agg() || !h.term || !b) { dets_match = false; break; }
      const bool same_var = h.term->kind == Term::Kind::Var &&
                            b->kind == Term::Kind::Var &&
                            h.term->name == b->name;
      const bool same_const = h.term->kind == Term::Kind::Const &&
                              b->kind == Term::Kind::Const &&
                              h.term->constant == b->constant;
      if (!same_var && !same_const) { dets_match = false; break; }
    }
    if (dets_match) return true;
  }
  return false;
}

/// True when head constructors `a` and `b` never build one value: distinct
/// constants, or a list builder against a constant that is no list or
/// against another list builder. Any other call (f_abs(X), f_head(P), ...)
/// may equal any value. Two list builders can build one list (f_init(S,D)
/// and f_list(S,D)); they count as distinct so that path-vector's
/// f_init/f_concatPath keys stay separate (ROADMAP item 2).
bool distinct_constructors(const Term& a, const Term& b) {
  if (a.kind == Term::Kind::Const && b.kind == Term::Kind::Const) {
    return !(a.constant == b.constant);
  }
  const Builtin* fa = called_builtin(&a);
  const Builtin* fb = called_builtin(&b);
  const bool list_a = fa != nullptr && fa->builds_list;
  const bool list_b = fb != nullptr && fb->builds_list;
  if (list_a && list_b) return fa != fb;
  if (list_a && b.kind == Term::Kind::Const) return !b.constant.is_list();
  if (list_b && a.kind == Term::Kind::Const) return !a.constant.is_list();
  return false;
}

/// True when two defining rules can never derive tuples that agree on the
/// FD's determinant: some determinant position is built by distinct
/// constructors (distinct_constructors). Aggregate dependents of the same
/// kind are also fine: the final-state aggregate stores one merged value per
/// group no matter which rules contributed.
bool fd_pair_separated(const Rule& a, const Rule& b, const Fd& fd) {
  const auto& da = a.head.args[static_cast<std::size_t>(fd.dependent)];
  const auto& db = b.head.args[static_cast<std::size_t>(fd.dependent)];
  if (da.is_agg() && db.is_agg() && da.agg == db.agg) return true;
  for (const int p : fd.determinant) {
    if (static_cast<std::size_t>(p) >= a.head.args.size() ||
        static_cast<std::size_t>(p) >= b.head.args.size()) {
      continue;
    }
    const auto& ha = a.head.args[static_cast<std::size_t>(p)];
    const auto& hb = b.head.args[static_cast<std::size_t>(p)];
    if (ha.is_agg() || hb.is_agg()) continue;
    const Term* ca = resolve_constructor(a, ha.term);
    const Term* cb = resolve_constructor(b, hb.term);
    if (ca != nullptr && cb != nullptr && distinct_constructors(*ca, *cb)) return true;
  }
  return false;
}

/// Chase-style justification: starting from the head positions of
/// `fd.determinant`, close the set of determined variables under equality
/// bindings and the body atoms' surviving FDs; the FD holds for this rule if
/// the dependent head position ends up determined.
bool fd_justified(const Rule& rule, const Fd& fd, const FdMap& fds) {
  std::set<std::string> determined;
  for (const int pos : fd.determinant) {
    if (pos < 0 || static_cast<std::size_t>(pos) >= rule.head.args.size()) continue;
    const auto& arg = rule.head.args[static_cast<std::size_t>(pos)];
    if (!arg.is_agg() && arg.term) invert_into(*arg.term, determined);
  }

  bool grew = true;
  while (grew) {
    grew = false;
    const std::size_t before = determined.size();
    for (const auto& elem : rule.body) {
      if (const auto* cmp = std::get_if<Comparison>(&elem)) {
        if (cmp->op != CmpOp::Eq) continue;
        if (fully_determined(*cmp->lhs, determined)) invert_into(*cmp->rhs, determined);
        if (fully_determined(*cmp->rhs, determined)) invert_into(*cmp->lhs, determined);
        continue;
      }
      const auto& ba = std::get<BodyAtom>(elem);
      if (ba.negated) continue;
      auto it = fds.find(ba.atom.predicate);
      if (it == fds.end()) continue;
      for (const Fd& bfd : it->second) {
        bool dets_known = true;
        for (const int p : bfd.determinant) {
          if (static_cast<std::size_t>(p) >= ba.atom.args.size() ||
              !fully_determined(*ba.atom.args[static_cast<std::size_t>(p)],
                                determined)) {
            dets_known = false;
            break;
          }
        }
        if (!dets_known) continue;
        if (static_cast<std::size_t>(bfd.dependent) < ba.atom.args.size()) {
          invert_into(*ba.atom.args[static_cast<std::size_t>(bfd.dependent)],
                      determined);
        }
      }
    }
    grew = determined.size() > before;
  }

  const auto& dep = rule.head.args[static_cast<std::size_t>(fd.dependent)];
  if (dep.is_agg()) {
    // An aggregate value is a function of its group (the plain head args)
    // and the final input set; as a final-state FD the group suffices.
    for (const auto& arg : rule.head.args) {
      if (!arg.is_agg() && arg.term && !fully_determined(*arg.term, determined)) {
        return false;
      }
    }
    return true;
  }
  return dep.term && fully_determined(*dep.term, determined);
}

}  // namespace

std::set<std::string> async_predicates(const Program& program) {
  std::set<std::string> async;
  for (const auto& rule : program.rules) {
    if (rule.is_fact()) continue;
    const auto body_locs = body_location_vars(rule);
    bool direct = body_locs.size() >= 2;
    if (!direct && rule.head.loc_index >= 0 &&
        static_cast<std::size_t>(rule.head.loc_index) < rule.head.args.size()) {
      const auto& loc_arg = rule.head.args[static_cast<std::size_t>(rule.head.loc_index)];
      const std::string& head_loc = var_name(loc_arg.term);
      if (!head_loc.empty() && body_locs.size() == 1 &&
          body_locs.count(head_loc) == 0) {
        direct = true;  // head is shipped to a different node
      }
    }
    if (direct) async.insert(rule.head.predicate);
  }
  // Anything depending on an async predicate inherits its timing.
  const auto edges = dependency_edges(program);
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& e : edges) {
      if (async.count(e.body) != 0 && async.insert(e.head).second) changed = true;
    }
  }
  return async;
}

FdMap infer_fds(const Program& program, int fd_max_arity) {
  const auto arity = arities_of(program);
  const auto derived = derived_predicates(program);

  FdMap fds;
  for (const auto& [pred, n] : arity) {
    const Materialize* mat = program.materialization_of(pred);
    if (derived.count(pred) == 0) {
      // Base predicate: P2 key overwrite makes the table key-functional, and
      // the injected fact set is the same on every run.
      if (mat == nullptr || mat->key_fields.empty()) continue;
      std::vector<int> keys;
      for (const std::size_t k : mat->key_fields) {
        if (k >= 1 && k <= n) keys.push_back(static_cast<int>(k - 1));
      }
      std::sort(keys.begin(), keys.end());
      for (std::size_t d = 0; d < n; ++d) {
        if (std::find(keys.begin(), keys.end(), static_cast<int>(d)) == keys.end()) {
          fds[pred].push_back(Fd{keys, static_cast<int>(d)});
        }
      }
      continue;
    }
    // Derived predicate: optimistic start, greatest fixpoint below.
    auto& out = fds[pred];
    if (n <= static_cast<std::size_t>(fd_max_arity)) {
      const std::size_t masks = std::size_t{1} << n;
      for (std::size_t mask = 0; mask < masks; ++mask) {
        for (std::size_t d = 0; d < n; ++d) {
          if ((mask >> d) & 1U) continue;
          std::vector<int> det;
          for (std::size_t i = 0; i < n; ++i) {
            if ((mask >> i) & 1U) det.push_back(static_cast<int>(i));
          }
          out.push_back(Fd{std::move(det), static_cast<int>(d)});
        }
      }
    } else if (mat != nullptr && !mat->key_fields.empty()) {
      std::vector<int> keys;
      for (const std::size_t k : mat->key_fields) {
        if (k >= 1 && k <= n) keys.push_back(static_cast<int>(k - 1));
      }
      std::sort(keys.begin(), keys.end());
      for (std::size_t d = 0; d < n; ++d) {
        if (std::find(keys.begin(), keys.end(), static_cast<int>(d)) == keys.end()) {
          out.push_back(Fd{keys, static_cast<int>(d)});
        }
      }
    }
  }

  // Pre-pass: two ground facts agreeing on a determinant but differing at
  // the dependent refute the FD outright.
  for (const auto& pred : derived) {
    std::vector<const Rule*> facts;
    for (const auto& rule : program.rules) {
      if (rule.is_fact() && rule.head.predicate == pred) facts.push_back(&rule);
    }
    if (facts.size() < 2) continue;
    auto& out = fds[pred];
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Fd& fd) {
                               for (std::size_t i = 0; i < facts.size(); ++i) {
                                 for (std::size_t j = i + 1; j < facts.size(); ++j) {
                                   const auto& a = facts[i]->head.args;
                                   const auto& b = facts[j]->head.args;
                                   bool agree = true;
                                   for (const int p : fd.determinant) {
                                     const auto& ta = a[static_cast<std::size_t>(p)].term;
                                     const auto& tb = b[static_cast<std::size_t>(p)].term;
                                     if (!ta || !tb ||
                                         ta->kind != Term::Kind::Const ||
                                         tb->kind != Term::Kind::Const ||
                                         !(ta->constant == tb->constant)) {
                                       agree = false;
                                       break;
                                     }
                                   }
                                   if (!agree) continue;
                                   const auto& da = a[static_cast<std::size_t>(fd.dependent)].term;
                                   const auto& db = b[static_cast<std::size_t>(fd.dependent)].term;
                                   if (!da || !db || da->kind != Term::Kind::Const ||
                                       db->kind != Term::Kind::Const ||
                                       !(da->constant == db->constant)) {
                                     return true;  // violated by this fact pair
                                   }
                                 }
                               }
                               return false;
                             }),
              out.end());
  }

  // Pre-pass: per-rule chase justification (below) is coinductive — each
  // rule is checked in isolation under the hypothesis that the FD already
  // holds for its body atoms. That is sound for a single defining rule (by
  // induction on derivation depth) but unsound across rules: spanning_tree's
  // st4 (`D=0`) and st5 (`D=D2+1`) each justify `distCand: {0} -> 1` alone
  // while jointly deriving many distances per node. Require every pair of
  // defining rules to be consistent: one of them is a verbatim copy rule for
  // the FD, or their determinants are constructor-disjoint so the pair can
  // never agree on a determinant in the first place. (Ground facts for
  // derived predicates are handled pairwise above; a fact/rule overlap is
  // still assumed not to collide, matching the chase's optimism.)
  for (const auto& pred : derived) {
    std::vector<const Rule*> defs;
    for (const auto& rule : program.rules) {
      if (rule.head.predicate == pred && !rule.is_fact()) defs.push_back(&rule);
    }
    if (defs.size() < 2) continue;
    auto& out = fds[pred];
    out.erase(std::remove_if(out.begin(), out.end(),
                             [&](const Fd& fd) {
                               for (std::size_t i = 0; i < defs.size(); ++i) {
                                 for (std::size_t j = i + 1; j < defs.size(); ++j) {
                                   if (fd_copy_rule(*defs[i], fd) ||
                                       fd_copy_rule(*defs[j], fd)) {
                                     continue;
                                   }
                                   if (!fd_pair_separated(*defs[i], *defs[j], fd)) {
                                     return true;
                                   }
                                 }
                               }
                               return false;
                             }),
              out.end());
  }

  // Greatest fixpoint: drop every FD some defining rule cannot justify.
  bool changed = true;
  while (changed) {
    changed = false;
    for (const auto& pred : derived) {
      auto& out = fds[pred];
      out.erase(std::remove_if(out.begin(), out.end(),
                               [&](const Fd& fd) {
                                 for (const auto& rule : program.rules) {
                                   if (rule.head.predicate != pred || rule.is_fact()) {
                                     continue;
                                   }
                                   if (!fd_justified(rule, fd, fds)) {
                                     changed = true;
                                     return true;
                                   }
                                 }
                                 return false;
                               }),
                out.end());
    }
  }
  return fds;
}

bool fd_determines(const FdMap& fds, const std::string& predicate,
                   const std::set<int>& determinant, int dependent) {
  auto it = fds.find(predicate);
  if (it == fds.end()) return false;
  for (const Fd& fd : it->second) {
    if (fd.dependent != dependent) continue;
    bool subset = true;
    for (const int p : fd.determinant) {
      if (determinant.count(p) == 0) {
        subset = false;
        break;
      }
    }
    if (subset) return true;
  }
  return false;
}

SemanticReport analyze_semantics(const Program& program, DiagnosticSink& sink,
                                 const SemanticOptions& options) {
  SemanticReport report;
  obs::Registry* metrics = options.metrics;
  auto timer = [&](const char* name) {
    return obs::Timer::Scope(metrics != nullptr ? &metrics->timer(name) : nullptr);
  };

  // --- Interval abstraction + dead rules (ND0014) -------------------------
  {
    auto scope = timer("analyze/pass/absint");
    report.abstraction = absint::analyze_program(program);
    for (std::size_t i = 0; i < program.rules.size(); ++i) {
      const Rule& rule = program.rules[i];
      if (rule.is_fact()) continue;
      const auto ra = absint::abstract_rule(rule, report.abstraction);
      if (!ra.unsat || !ra.unsat_is_comparison) continue;
      report.dead_rules.push_back(i);
      auto& d = sink.warning(
          "ND0014",
          "rule '" + rule.display_name() + "' can never fire: '" +
              ra.unsat_detail + "' is always false under interval analysis",
          ra.unsat_loc.valid() ? SourceSpan::at(ra.unsat_loc) : rule.span())
                    .in_rule(static_cast<int>(i), rule.head.predicate);
      d.hint = "delete the rule or fix the comparison";
    }
  }

  // --- Structure: strata + SCCs ------------------------------------------
  {
    DiagnosticSink scratch;
    if (auto strat = stratify(program, scratch)) {
      report.stratum_count = strat->stratum_count;
      report.stratum_of = strat->stratum_of;
    }
  }
  const DependencySccs sccs = dependency_sccs(program);
  report.sccs = sccs.components;
  report.recursive_predicates = sccs.recursive;

  // --- Divergence prediction (ND0015) ------------------------------------
  {
    auto scope = timer("analyze/pass/divergence");
    for (const auto& comp : sccs.components) {
      const std::set<std::string> members(comp.begin(), comp.end());
      if (sccs.recursive.count(comp.front()) == 0) continue;

      bool guarded = false;
      for (const auto& rule : program.rules) {
        if (members.count(rule.head.predicate) == 0) continue;
        for (const auto& elem : rule.body) {
          if (const auto* cmp = std::get_if<Comparison>(&elem)) {
            if (is_cycle_guard(*cmp)) guarded = true;
          }
        }
      }

      for (std::size_t i = 0; i < program.rules.size(); ++i) {
        const Rule& rule = program.rules[i];
        if (rule.is_fact() || members.count(rule.head.predicate) == 0) continue;
        bool recursive_rule = false;
        for (const auto& elem : rule.body) {
          const auto* ba = std::get_if<BodyAtom>(&elem);
          if (ba != nullptr && !ba->negated &&
              members.count(ba->atom.predicate) != 0) {
            recursive_rule = true;
          }
        }
        if (!recursive_rule) continue;

        const GrowthScan scan(rule, members);
        const auto ra = absint::abstract_rule(rule, report.abstraction);
        for (std::size_t h = 0; h < rule.head.args.size(); ++h) {
          const auto& arg = rule.head.args[h];
          if (arg.is_agg() || !arg.term) continue;
          std::set<std::string> visiting;
          if (!scan.grows(*arg.term, visiting)) continue;

          bool bounded = guarded;
          if (!bounded && h < ra.head.size() && ra.head[h].is_num() &&
              ra.head[h].num.bounded_above()) {
            bounded = true;
          }
          const std::string& hv = var_name(arg.term);
          if (!bounded && !hv.empty()) {
            bounded = bounded_above_by_comparison(rule, hv, ra.vars);
          }
          if (bounded) continue;

          auto& d = sink.warning(
              "ND0015",
              "rule '" + rule.display_name() + "' grows argument " +
                  std::to_string(h + 1) + " of '" + rule.head.predicate +
                  "' around recursive cycle {" + join_names(members) +
                  "} without a bound or cycle guard: evaluation can diverge "
                  "(DivergenceError at runtime)",
              rule.span())
                        .in_rule(static_cast<int>(i), rule.head.predicate);
          d.hint =
              "add an upper-bound comparison (e.g. C < 1000) or a cycle guard "
              "(f_inPath(P, S) = false)";
          for (const auto& m : members) report.divergent_predicates.insert(m);
          break;  // one diagnostic per rule
        }
      }
    }
  }

  // --- Asynchrony + CALM classification (ND0016/ND0017/ND0018) ------------
  report.async_predicates = async_predicates(program);
  {
    auto scope = timer("analyze/pass/fd");
    report.fds = infer_fds(program, options.fd_max_arity);
  }
  {
    auto scope = timer("analyze/pass/calm");
    const auto derived = derived_predicates(program);
    const auto arity = arities_of(program);

    // ND0016: negation over asynchronously derived input.
    for (const auto& rule : program.rules) {
      for (const auto& elem : rule.body) {
        const auto* ba = std::get_if<BodyAtom>(&elem);
        if (ba == nullptr || !ba->negated) continue;
        if (report.async_predicates.count(ba->atom.predicate) == 0) continue;
        auto& d = sink.warning(
            "ND0016",
            "rule '" + rule.display_name() + "' negates '" + ba->atom.predicate +
                "', which is derived asynchronously across nodes: whether the "
                "negation holds depends on message arrival order",
            ba->atom.span())
                      .in_rule(static_cast<int>(&rule - program.rules.data()),
                               rule.head.predicate);
        d.hint = "derive the negated predicate locally or accept an "
                 "order-dependent fixpoint";
        report.order_sensitive_predicates.insert(rule.head.predicate);
      }
    }

    // ND0017: materialized key projection dropping non-functional columns.
    for (const auto& mat : program.materializations) {
      if (derived.count(mat.predicate) == 0 || mat.key_fields.empty()) continue;
      if (report.async_predicates.count(mat.predicate) == 0) continue;
      auto it = arity.find(mat.predicate);
      if (it == arity.end()) continue;
      const std::size_t n = it->second;
      std::set<int> keys;
      for (const std::size_t k : mat.key_fields) {
        if (k >= 1 && k <= n) keys.insert(static_cast<int>(k - 1));
      }
      if (keys.size() >= n) continue;  // whole-tuple key: no projection
      std::string dropped;
      for (std::size_t d = 0; d < n; ++d) {
        if (keys.count(static_cast<int>(d)) != 0) continue;
        if (fd_determines(report.fds, mat.predicate, keys, static_cast<int>(d))) {
          continue;
        }
        if (!dropped.empty()) dropped += ", ";
        dropped += std::to_string(d + 1);
      }
      if (dropped.empty()) continue;
      auto& d = sink.warning(
          "ND0017",
          "materialized predicate '" + mat.predicate + "' is keyed on a " +
              "projection that drops column(s) " + dropped +
              " not functionally determined by the keys: concurrent updates "
              "race and the stored value depends on message arrival order",
          SourceSpan::at(mat.loc))
                    .in_rule(-1, mat.predicate);
      d.hint = "add the racing column to keys(...) or make it functionally "
               "dependent on the keys (e.g. via an aggregate)";
      report.order_sensitive_predicates.insert(mat.predicate);
    }

    // ND0018: aggregates recomputed over asynchronous input (CALM note).
    for (const auto& rule : program.rules) {
      if (!rule.head.has_aggregate()) continue;
      for (const auto& elem : rule.body) {
        const auto* ba = std::get_if<BodyAtom>(&elem);
        if (ba == nullptr || ba->negated) continue;
        if (report.async_predicates.count(ba->atom.predicate) == 0) continue;
        sink.note("ND0018",
                  "rule '" + rule.display_name() + "' aggregates over '" +
                      ba->atom.predicate +
                      "', which arrives asynchronously: the aggregate is "
                      "recomputed non-monotonically (CALM) and converges only "
                      "with its input",
                  rule.span())
            .in_rule(static_cast<int>(&rule - program.rules.data()),
                     rule.head.predicate);
        break;  // one note per rule
      }
    }

    // CALM verdict: a program with no negation, no aggregation and no racing
    // key projection is monotone, hence confluent under any ordering.
    bool has_nonmonotone = !report.order_sensitive_predicates.empty();
    for (const auto& e : dependency_edges(program)) {
      if (e.negated || e.through_aggregate) has_nonmonotone = true;
    }
    report.monotone = !has_nonmonotone;
  }

  if (metrics != nullptr) {
    metrics->counter("analyze/rules").add(program.rules.size());
    metrics->counter("analyze/predicates").add(predicates_of(program).size());
    metrics->counter("analyze/sccs").add(report.sccs.size());
    metrics->counter("analyze/sccs/recursive").add(report.recursive_predicates.size());
    metrics->counter("analyze/async_predicates").add(report.async_predicates.size());
    metrics->counter("analyze/dead_rules").add(report.dead_rules.size());
    metrics->counter("analyze/divergent_predicates").add(report.divergent_predicates.size());
    metrics->counter("analyze/order_flags").add(report.order_sensitive_predicates.size());
    std::size_t survived = 0;
    for (const auto& [pred, list] : report.fds) survived += list.size();
    metrics->counter("analyze/fd/survived").add(survived);
  }
  return report;
}

std::string semantic_dot(const Program& program, const SemanticReport& report) {
  std::ostringstream os;
  os << "digraph dependencies {\n";
  os << "  rankdir=BT;\n";
  os << "  node [shape=box, fontname=\"Helvetica\"];\n";
  for (const auto& pred : predicates_of(program)) {
    os << "  \"" << pred << "\" [label=\"" << pred;
    auto st = report.stratum_of.find(pred);
    if (st != report.stratum_of.end()) os << "\\nstratum " << st->second;
    os << "\"";
    std::string fill;
    if (report.divergent_predicates.count(pred) != 0) {
      fill = "salmon";
    } else if (report.recursive_predicates.count(pred) != 0) {
      fill = "lightblue";
    }
    std::string style = fill.empty() ? "" : "filled";
    if (report.async_predicates.count(pred) != 0) {
      style += style.empty() ? "dashed" : ",dashed";
    }
    if (!style.empty()) os << ", style=\"" << style << "\"";
    if (!fill.empty()) os << ", fillcolor=\"" << fill << "\"";
    os << "];\n";
  }
  // Dedup edges across rules; keep attributes deterministic.
  std::set<std::tuple<std::string, std::string, bool, bool>> seen;
  for (const auto& e : dependency_edges(program)) {
    seen.insert({e.body, e.head, e.negated, e.through_aggregate});
  }
  for (const auto& [body, head, negated, agg] : seen) {
    os << "  \"" << body << "\" -> \"" << head << "\"";
    std::vector<std::string> attrs;
    if (negated) attrs.push_back("style=dashed, label=\"!\"");
    if (agg) attrs.push_back("label=\"agg\"");
    bool same_scc = false;
    for (const auto& comp : report.sccs) {
      if (comp.size() > 1 &&
          std::find(comp.begin(), comp.end(), head) != comp.end() &&
          std::find(comp.begin(), comp.end(), body) != comp.end()) {
        same_scc = true;
      }
    }
    if (head == body) same_scc = true;
    if (same_scc) attrs.push_back("penwidth=2");
    if (!attrs.empty()) {
      os << " [";
      for (std::size_t i = 0; i < attrs.size(); ++i) {
        os << (i != 0 ? ", " : "") << attrs[i];
      }
      os << "]";
    }
    os << ";\n";
  }
  os << "}\n";
  return os.str();
}

namespace {

void append_string_array(std::ostringstream& os, const char* key,
                         const std::set<std::string>& values) {
  os << "\"" << key << "\":[";
  bool first = true;
  for (const auto& v : values) {
    os << (first ? "" : ",") << "\"" << obs::json_escape(v) << "\"";
    first = false;
  }
  os << "]";
}

}  // namespace

std::string semantic_json(const SemanticReport& report) {
  std::ostringstream os;
  std::set<std::string> all_preds;
  for (const auto& comp : report.sccs) {
    for (const auto& p : comp) all_preds.insert(p);
  }
  os << "{\"predicates\":" << all_preds.size();
  os << ",\"strata\":" << report.stratum_count;
  os << ",\"sccs\":[";
  for (std::size_t i = 0; i < report.sccs.size(); ++i) {
    os << (i != 0 ? "," : "") << "[";
    for (std::size_t j = 0; j < report.sccs[i].size(); ++j) {
      os << (j != 0 ? "," : "") << "\"" << obs::json_escape(report.sccs[i][j]) << "\"";
    }
    os << "]";
  }
  os << "],";
  append_string_array(os, "recursive", report.recursive_predicates);
  os << ",";
  append_string_array(os, "async", report.async_predicates);
  os << ",";
  append_string_array(os, "divergent", report.divergent_predicates);
  os << ",\"dead_rules\":[";
  for (std::size_t i = 0; i < report.dead_rules.size(); ++i) {
    os << (i != 0 ? "," : "") << report.dead_rules[i];
  }
  os << "],";
  append_string_array(os, "order_sensitive", report.order_sensitive_predicates);
  os << ",\"monotone\":" << (report.monotone ? "true" : "false") << "}";
  return os.str();
}

}  // namespace fvn::ndlog
