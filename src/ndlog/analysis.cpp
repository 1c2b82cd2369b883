#include "ndlog/analysis.hpp"

#include <algorithm>
#include <functional>

#include "ndlog/builtins.hpp"

namespace fvn::ndlog {

std::set<std::string> predicates_of(const Program& program) {
  std::set<std::string> out;
  for (const auto& rule : program.rules) {
    out.insert(rule.head.predicate);
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) out.insert(ba->atom.predicate);
    }
  }
  for (const auto& m : program.materializations) out.insert(m.predicate);
  return out;
}

std::set<std::string> derived_predicates(const Program& program) {
  std::set<std::string> out;
  for (const auto& rule : program.rules) {
    if (!rule.is_fact()) out.insert(rule.head.predicate);
  }
  return out;
}

std::set<std::string> base_predicates(const Program& program) {
  std::set<std::string> all = predicates_of(program);
  for (const auto& d : derived_predicates(program)) all.erase(d);
  return all;
}

std::vector<DependencyEdge> dependency_edges(const Program& program) {
  std::vector<DependencyEdge> out;
  for (std::size_t r = 0; r < program.rules.size(); ++r) {
    const auto& rule = program.rules[r];
    const bool agg = rule.head.has_aggregate();
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        out.push_back(DependencyEdge{rule.head.predicate, ba->atom.predicate,
                                     ba->negated, agg, r});
      }
    }
  }
  return out;
}

DependencySccs dependency_sccs(const Program& program) {
  // Predicates by name, and each head's bodies in name order, so components
  // come out in one deterministic order whatever order the rules are in.
  const auto names = predicates_of(program);
  const std::vector<std::string> preds(names.begin(), names.end());
  const auto id = [&preds](const std::string& pred) {
    return static_cast<int>(std::lower_bound(preds.begin(), preds.end(), pred) -
                            preds.begin());
  };
  const int n = static_cast<int>(preds.size());
  std::vector<std::vector<int>> adj(n);
  std::vector<bool> self_loop(n, false);
  for (const auto& e : dependency_edges(program)) {
    const int head = id(e.head);
    const int body = id(e.body);
    adj[head].push_back(body);
    if (head == body) self_loop[head] = true;
  }
  for (auto& bodies : adj) {
    std::sort(bodies.begin(), bodies.end());
    bodies.erase(std::unique(bodies.begin(), bodies.end()), bodies.end());
  }

  // Tarjan: a component is emitted once everything it depends on has been.
  DependencySccs result;
  std::vector<int> index(n, -1), low(n, 0), stack;
  std::vector<bool> on_stack(n, false);
  int next_index = 0;
  std::function<void(int)> strongconnect = [&](int v) {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (const int w : adj[v]) {
      if (index[w] == -1) {
        strongconnect(w);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] != index[v]) return;
    std::vector<int> members;
    int w = -1;
    do {
      w = stack.back();
      stack.pop_back();
      on_stack[w] = false;
      members.push_back(w);
    } while (w != v);
    std::sort(members.begin(), members.end());
    const int c = static_cast<int>(result.components.size());
    const bool recursive = members.size() > 1 || self_loop[v];
    auto& component = result.components.emplace_back();
    for (const int m : members) {
      component.push_back(preds[m]);
      result.component_of[preds[m]] = c;
      if (recursive) result.recursive.insert(preds[m]);
    }
  };
  for (int v = 0; v < n; ++v) {
    if (index[v] == -1) strongconnect(v);
  }
  return result;
}

std::map<std::string, std::size_t> arities_of(const Program& program) {
  std::map<std::string, std::size_t> arity;
  for (const auto& rule : program.rules) {
    arity.emplace(rule.head.predicate, rule.head.args.size());
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        arity.emplace(ba->atom.predicate, ba->atom.args.size());
      }
    }
  }
  return arity;
}

const std::string& var_name(const TermPtr& term) {
  static const std::string kEmpty;
  if (term && term->kind == Term::Kind::Var) return term->name;
  return kEmpty;
}

std::string location_var_of(const Atom& atom) {
  if (atom.loc_index < 0 ||
      static_cast<std::size_t>(atom.loc_index) >= atom.args.size()) {
    return {};
  }
  const auto& t = atom.args[static_cast<std::size_t>(atom.loc_index)];
  return t->kind == Term::Kind::Var ? t->name : std::string{};
}

std::set<std::string> body_location_vars(const Rule& rule) {
  std::set<std::string> locs;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      std::string v = location_var_of(ba->atom);
      if (!v.empty()) locs.insert(std::move(v));
    }
  }
  return locs;
}

LocalizationCheck check_localizable(const Rule& rule) {
  LocalizationCheck out;
  const auto locs = body_location_vars(rule);
  if (rule.is_fact() || locs.size() <= 1) {
    out.status = LocalizationCheck::Status::Local;
    return out;
  }
  if (locs.size() != 2) {
    out.status = LocalizationCheck::Status::TooManyLocations;
    out.detail = "rule " + rule.display_name() + ": cannot localize a body spanning " +
                 std::to_string(locs.size()) + " locations";
    return out;
  }
  // Orientation choice: the join happens at the site for which every atom on
  // the *other* side positively carries the join-site location variable (the
  // link-restriction of §2.2); when both orientations work, ship the fewer
  // atoms. Returns nullopt when the orientation is infeasible.
  auto it = locs.begin();
  const std::string a = *it++;
  const std::string b = *it;
  auto feasible = [&](const std::string& join,
                      const std::string& ship) -> std::optional<std::size_t> {
    std::size_t shipped = 0;
    for (const auto& elem : rule.body) {
      const auto* ba = std::get_if<BodyAtom>(&elem);
      if (ba == nullptr || location_var_of(ba->atom) != ship) continue;
      ++shipped;
      bool carries = false;
      for (const auto& t : ba->atom.args) {
        if (t->kind == Term::Kind::Var && t->name == join) carries = true;
      }
      if (!carries || ba->negated) return std::nullopt;
    }
    return shipped;
  };
  const auto ship_b = feasible(a, b);  // join at a, ship b's atoms
  const auto ship_a = feasible(b, a);  // join at b, ship a's atoms
  if (ship_b && (!ship_a || *ship_b <= *ship_a)) {
    out.status = LocalizationCheck::Status::Rewritable;
    out.join_site = a;
    out.ship_site = b;
  } else if (ship_a) {
    out.status = LocalizationCheck::Status::Rewritable;
    out.join_site = b;
    out.ship_site = a;
  } else {
    out.status = LocalizationCheck::Status::NotLinkRestricted;
    out.detail = "rule " + rule.display_name() + ": not link-restricted in either orientation";
  }
  return out;
}

namespace {

/// "rule r2" / "rule path" — how messages name a rule.
std::string rule_label(const Rule& rule) { return "rule " + rule.display_name(); }

}  // namespace

void check_arities(const Program& program, DiagnosticSink& sink) {
  struct FirstUse {
    std::size_t arity;
    std::string where;
    SourceSpan span;
  };
  std::map<std::string, FirstUse> seen;
  auto note = [&](const std::string& pred, std::size_t n, const std::string& where,
                  SourceSpan span, int rule_index) {
    auto [it, inserted] = seen.emplace(pred, FirstUse{n, where, span});
    if (!inserted && it->second.arity != n) {
      auto& d = sink.error("ND0002",
                           "predicate '" + pred + "' used with arity " + std::to_string(n) +
                               " in " + where + " but with arity " +
                               std::to_string(it->second.arity) + " in " + it->second.where,
                           span)
                    .in_rule(rule_index, pred);
      d.hint = "use " + std::to_string(it->second.arity) + " argument(s) for '" +
               pred + "' everywhere";
      if (it->second.span.valid()) {
        sink.note("ND0002", "first use of '" + pred + "' is here", it->second.span)
            .in_rule(-1, pred);
      }
    }
  };
  for (std::size_t ri = 0; ri < program.rules.size(); ++ri) {
    const Rule& rule = program.rules[ri];
    note(rule.head.predicate, rule.head.args.size(), rule_label(rule), rule.head.span(),
         static_cast<int>(ri));
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        note(ba->atom.predicate, ba->atom.args.size(), rule_label(rule), ba->atom.span(),
             static_cast<int>(ri));
      }
    }
  }
}

namespace {

std::string builtin_names_hint() {
  std::string names;
  for (const Builtin& fn : builtin_table()) {
    if (!names.empty()) names += ", ";
    names += fn.name;
  }
  return "the builtins are " + names;
}

bool term_vars_bound(const Term& term, const std::set<std::string>& bound) {
  std::vector<std::string> vars;
  term.collect_vars(vars);
  return std::all_of(vars.begin(), vars.end(),
                     [&](const std::string& v) { return bound.count(v) != 0; });
}

}  // namespace

void check_safety(const Program& program, DiagnosticSink& sink) {
  for (std::size_t rule_i = 0; rule_i < program.rules.size(); ++rule_i) {
    const auto& rule = program.rules[rule_i];
    const int ri = static_cast<int>(rule_i);
    // Calls of unknown functions, or with a wrong argument count, anywhere in
    // the rule (ND0004), reported once per function name per rule.
    std::set<std::string> reported;
    std::function<void(const Term&, SourceSpan)> check_fns = [&](const Term& t,
                                                                 SourceSpan span) {
      const Builtin* fn = t.kind == Term::Kind::Func ? find_builtin(t.name) : nullptr;
      if (t.kind == Term::Kind::Func && (fn == nullptr || !fn->accepts(t.args.size())) &&
          reported.insert(t.name).second) {
        const std::string problem =
            fn == nullptr ? "unknown function '" + t.name + "'"
                          : t.name + " takes " + std::to_string(fn->arity) +
                                " arguments, got " + std::to_string(t.args.size());
        sink.error("ND0004", rule_label(rule) + ": " + problem, span)
            .in_rule(ri, rule.head.predicate)
            .hint = fn == nullptr ? builtin_names_hint() : "";
      }
      for (const auto& a : t.args) check_fns(*a, span);
    };
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        for (const auto& a : ba->atom.args) check_fns(*a, ba->atom.span());
      } else if (const auto* cmp = std::get_if<Comparison>(&elem)) {
        check_fns(*cmp->lhs, SourceSpan::at(cmp->loc));
        check_fns(*cmp->rhs, SourceSpan::at(cmp->loc));
      }
    }
    for (const auto& arg : rule.head.args) {
      if (!arg.is_agg()) check_fns(*arg.term, rule.head.span());
    }

    std::set<std::string> bound;
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        if (ba->negated) continue;
        std::vector<std::string> vars;
        ba->atom.collect_vars(vars);
        bound.insert(vars.begin(), vars.end());
      }
    }
    // Propagate bindings through `=` comparisons until a fixed point: a
    // variable on one side becomes bound once the other side is bound.
    bool changed = true;
    while (changed) {
      changed = false;
      for (const auto& elem : rule.body) {
        const auto* cmp = std::get_if<Comparison>(&elem);
        if (!cmp || cmp->op != CmpOp::Eq) continue;
        auto try_bind = [&](const TermPtr& target, const TermPtr& source) {
          if (target->kind == Term::Kind::Var && !bound.count(target->name) &&
              term_vars_bound(*source, bound)) {
            bound.insert(target->name);
            changed = true;
          }
        };
        try_bind(cmp->lhs, cmp->rhs);
        try_bind(cmp->rhs, cmp->lhs);
      }
    }
    auto require_bound = [&](const std::vector<std::string>& vars, const std::string& what,
                             SourceSpan span) {
      for (const auto& v : vars) {
        if (!bound.count(v)) {
          sink.error("ND0003",
                     rule_label(rule) + ": variable '" + v + "' in " + what +
                         " is not bound",
                     span)
              .in_rule(ri, rule.head.predicate)
              .hint = "bind '" + v + "' in a positive body atom or an `=` assignment";
        }
      }
    };
    // Head variables.
    for (const auto& arg : rule.head.args) {
      if (arg.is_agg()) {
        if (!rule.is_fact()) require_bound({arg.agg_var}, "head aggregate", rule.head.span());
        continue;
      }
      std::vector<std::string> vars;
      arg.term->collect_vars(vars);
      require_bound(vars, "head", rule.head.span());
    }
    // Negated atoms and non-Eq comparisons.
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        if (!ba->negated) continue;
        std::vector<std::string> vars;
        ba->atom.collect_vars(vars);
        require_bound(vars, "negated atom " + ba->atom.predicate, ba->atom.span());
      } else if (const auto* cmp = std::get_if<Comparison>(&elem)) {
        if (cmp->op == CmpOp::Eq) continue;  // Eq may bind
        std::vector<std::string> vars;
        cmp->lhs->collect_vars(vars);
        cmp->rhs->collect_vars(vars);
        require_bound(vars, "comparison", SourceSpan::at(cmp->loc));
      }
    }
  }
}

std::optional<Stratification> stratify(const Program& program, DiagnosticSink& sink) {
  const auto edges = dependency_edges(program);
  const DependencySccs sccs = dependency_sccs(program);
  const auto comp = [&sccs](const std::string& pred) { return sccs.component_of.at(pred); };
  const int comp_count = static_cast<int>(sccs.components.size());

  // Negation/aggregation edges may not stay within one SCC.
  bool ok = true;
  for (const auto& e : edges) {
    if ((e.negated || e.through_aggregate) && comp(e.body) == comp(e.head)) {
      ok = false;
      const Rule& rule = program.rules[e.rule_index];
      sink.error("ND0005",
                 "program is not stratifiable: predicate '" + e.head + "' depends " +
                     (e.negated ? "negatively" : "through an aggregate") + " on '" +
                     e.body + "' inside a recursive cycle (" + rule_label(rule) + ")",
                 rule.span())
          .in_rule(static_cast<int>(e.rule_index), e.head)
          .hint = "break the cycle so the " +
                  std::string(e.negated ? "negation" : "aggregation") +
                  " reads a lower stratum";
    }
  }
  if (!ok) return std::nullopt;

  // Longest-path layering over the SCC condensation: stratum(head) >=
  // stratum(body), strictly greater across negation/aggregation edges.
  std::vector<int> stratum(comp_count, 0);
  bool changed = true;
  int guard = comp_count * static_cast<int>(edges.size()) + comp_count + 1;
  while (changed && guard-- > 0) {
    changed = false;
    for (const auto& e : edges) {
      const int cb = comp(e.body);
      const int ch = comp(e.head);
      const int need = stratum[cb] + ((e.negated || e.through_aggregate) ? 1 : 0);
      if (cb != ch && stratum[ch] < need) {
        stratum[ch] = need;
        changed = true;
      }
    }
  }

  Stratification out;
  int max_stratum = 0;
  for (const auto& [pred, c] : sccs.component_of) {
    out.stratum_of[pred] = stratum[c];
    max_stratum = std::max(max_stratum, stratum[c]);
  }
  out.stratum_count = max_stratum + 1;
  out.rule_stratum.resize(program.rules.size(), 0);
  out.rules_by_stratum.assign(static_cast<std::size_t>(out.stratum_count), {});
  for (std::size_t r = 0; r < program.rules.size(); ++r) {
    const int s = out.stratum_of.at(program.rules[r].head.predicate);
    out.rule_stratum[r] = s;
    out.rules_by_stratum[static_cast<std::size_t>(s)].push_back(r);
  }
  return out;
}

namespace {

/// Throw the sink's first error as an AnalysisError, with its source
/// position (when known) appended as " (line L, col C)".
[[noreturn]] void throw_first(const DiagnosticSink& sink) {
  const Diagnostic* d = sink.first_error();
  std::string what = d != nullptr ? d->message : "analysis failed";
  if (d != nullptr && d->span.valid()) {
    what += " (line " + std::to_string(d->span.begin.line) + ", col " +
            std::to_string(d->span.begin.column) + ")";
  }
  throw AnalysisError(what);
}

}  // namespace

void check_arities(const Program& program) {
  DiagnosticSink sink;
  check_arities(program, sink);
  if (sink.has_errors()) throw_first(sink);
}

void check_safety(const Program& program) {
  DiagnosticSink sink;
  check_safety(program, sink);
  if (sink.has_errors()) throw_first(sink);
}

Stratification stratify(const Program& program) {
  DiagnosticSink sink;
  auto strat = stratify(program, sink);
  if (!strat) throw_first(sink);
  return *std::move(strat);
}

Stratification analyze(const Program& program) {
  check_arities(program);
  check_safety(program);
  return stratify(program);
}

}  // namespace fvn::ndlog
