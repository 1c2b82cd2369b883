#include "ndlog/lint.hpp"

#include <algorithm>
#include <functional>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <utility>
#include <variant>

namespace fvn::ndlog {

namespace {

/// Predicates with runtime-injected semantics: never "underivable".
bool is_special_predicate(const std::string& pred) { return pred == "periodic"; }

std::string rule_label(const Rule& rule) { return "rule " + rule.display_name(); }

/// Index of `rule` inside `program.rules` (rules are stored by value, so the
/// address identifies the element).
int rule_index_of(const Program& program, const Rule& rule) {
  return static_cast<int>(&rule - program.rules.data());
}

std::set<std::string> materialized_predicates(const Program& program) {
  std::set<std::string> out;
  for (const auto& m : program.materializations) out.insert(m.predicate);
  return out;
}

/// Count every occurrence of each variable in a rule (head, atoms,
/// comparisons), remembering the first positive body atom that mentions it.
struct VarUse {
  std::size_t count = 0;
  bool in_head = false;
  const Atom* first_positive_atom = nullptr;
};

std::map<std::string, VarUse> variable_uses(const Rule& rule) {
  std::map<std::string, VarUse> uses;
  auto add = [&](const std::vector<std::string>& vars, bool head, const Atom* atom) {
    for (const auto& v : vars) {
      auto& u = uses[v];
      u.count += 1;
      u.in_head = u.in_head || head;
      if (atom != nullptr && u.first_positive_atom == nullptr) u.first_positive_atom = atom;
    }
  };
  for (const auto& arg : rule.head.args) {
    std::vector<std::string> vars;
    if (arg.is_agg()) {
      vars.push_back(arg.agg_var);
    } else {
      arg.term->collect_vars(vars);
    }
    add(vars, /*head=*/true, nullptr);
  }
  for (const auto& elem : rule.body) {
    std::vector<std::string> vars;
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      ba->atom.collect_vars(vars);
      add(vars, false, ba->negated ? nullptr : &ba->atom);
    } else if (const auto* cmp = std::get_if<Comparison>(&elem)) {
      cmp->lhs->collect_vars(vars);
      cmp->rhs->collect_vars(vars);
      add(vars, false, nullptr);
    }
  }
  return uses;
}

}  // namespace

const std::vector<DiagnosticCodeInfo>& diagnostic_catalog() {
  static const std::vector<DiagnosticCodeInfo> catalog = {
      {"ND0001", Severity::Error, "syntax error (parse failure)"},
      {"ND0002", Severity::Error, "predicate used with inconsistent arity"},
      {"ND0003", Severity::Error, "unsafe rule: variable is not bound"},
      {"ND0004", Severity::Error, "unknown built-in function or wrong argument count"},
      {"ND0005", Severity::Error, "program is not stratifiable"},
      {"ND0006", Severity::Warning, "predicate derived but never read (and not materialized)"},
      {"ND0007", Severity::Warning, "predicate read but never derived or declared"},
      {"ND0008", Severity::Warning, "rule duplicates an earlier rule"},
      {"ND0009", Severity::Warning, "variable used only once (possible typo)"},
      {"ND0010", Severity::Warning, "cartesian-product body: atoms share no join variable"},
      {"ND0011", Severity::Warning, "aggregate over possibly-empty group"},
      {"ND0012", Severity::Warning, "rule body spans >2 locations: not localizable"},
      {"ND0013", Severity::Warning, "two-location rule body is not link-restricted"},
      {"ND0014", Severity::Warning, "dead rule: a comparison is always false (interval analysis)"},
      {"ND0015", Severity::Warning, "unbounded recursive value growth: predicted divergence"},
      {"ND0016", Severity::Warning, "negation over asynchronously derived predicate (order-sensitive)"},
      {"ND0017", Severity::Warning, "materialized key projection drops non-functional columns (race)"},
      {"ND0018", Severity::Note, "aggregate over asynchronous input (non-monotone, CALM)"},
      {"ND0019", Severity::Warning, "quadratic-or-worse join order with a provably cheaper ordering"},
      {"ND0020", Severity::Warning, "unbounded message amplification on an async channel"},
      {"ND0021", Severity::Note, "recompute-heavy aggregate; incremental maintenance statically safe"},
  };
  return catalog;
}

void lint_unused_predicates(const Program& program, DiagnosticSink& sink) {
  const auto materialized = materialized_predicates(program);
  std::set<std::string> read;
  for (const auto& rule : program.rules) {
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) read.insert(ba->atom.predicate);
    }
  }
  std::set<std::string> reported;
  for (const auto& rule : program.rules) {
    const std::string& pred = rule.head.predicate;
    if (read.count(pred) != 0 || materialized.count(pred) != 0) continue;
    if (!reported.insert(pred).second) continue;
    sink.warning("ND0006",
                 "predicate '" + pred + "' is derived but never read by any rule",
                 rule.head.span())
        .in_rule(rule_index_of(program, rule), pred)
        .hint = "materialize '" + pred +
                "' if it is a program output, or remove the rules deriving it";
  }
}

void lint_underivable_predicates(const Program& program, DiagnosticSink& sink) {
  const auto materialized = materialized_predicates(program);
  std::set<std::string> derived;
  for (const auto& rule : program.rules) derived.insert(rule.head.predicate);
  std::set<std::string> reported;
  for (const auto& rule : program.rules) {
    for (const auto& elem : rule.body) {
      const auto* ba = std::get_if<BodyAtom>(&elem);
      if (ba == nullptr) continue;
      const std::string& pred = ba->atom.predicate;
      if (derived.count(pred) != 0 || materialized.count(pred) != 0 ||
          is_special_predicate(pred)) {
        continue;
      }
      if (!reported.insert(pred).second) continue;
      sink.warning("ND0007",
                   "predicate '" + pred + "' is read in " + rule_label(rule) +
                       " but no rule derives it and no materialize declares it",
                   ba->atom.span())
          .in_rule(rule_index_of(program, rule), pred)
          .hint = "add a materialize declaration for '" + pred +
                  "' (base relation) or a rule deriving it — this is often a typo";
    }
  }
}

void lint_duplicate_rules(const Program& program, DiagnosticSink& sink) {
  // Textual subsumption: same head and same multiset of body elements.
  struct FirstSeen {
    const Rule* rule;
  };
  std::map<std::string, FirstSeen> seen;
  for (const auto& rule : program.rules) {
    std::vector<std::string> body;
    body.reserve(rule.body.size());
    for (const auto& elem : rule.body) body.push_back(to_string(elem));
    std::sort(body.begin(), body.end());
    std::string key = rule.head.to_string() + " :- ";
    for (const auto& b : body) key += b + ", ";
    auto [it, inserted] = seen.emplace(std::move(key), FirstSeen{&rule});
    if (inserted) continue;
    const Rule& first = *it->second.rule;
    auto& d = sink.warning("ND0008",
                           rule_label(rule) + " duplicates " + rule_label(first) +
                               (first.loc.valid()
                                    ? " (line " + std::to_string(first.loc.line) + ")"
                                    : ""),
                           rule.span())
                  .in_rule(rule_index_of(program, rule), rule.head.predicate);
    d.hint = "delete one of the two rules; they derive identical tuples";
  }
}

void lint_singleton_variables(const Program& program, DiagnosticSink& sink) {
  for (const auto& rule : program.rules) {
    for (const auto& [var, use] : variable_uses(rule)) {
      // A '_'-prefixed name marks an intentionally-unused variable; a
      // head-only singleton is already an ND0003 safety error.
      if (use.count != 1 || use.in_head || var[0] == '_') continue;
      if (use.first_positive_atom == nullptr) continue;  // ND0003 covers it
      sink.warning("ND0009",
                   rule_label(rule) + ": variable '" + var +
                       "' is used only once (in atom '" +
                       use.first_positive_atom->predicate + "')",
                   use.first_positive_atom->span())
          .in_rule(rule_index_of(program, rule), rule.head.predicate)
          .hint = "rename it to '_" + var + "' if the value is intentionally unused";
    }
  }
}

void lint_cartesian_products(const Program& program, DiagnosticSink& sink) {
  for (const auto& rule : program.rules) {
    // Union-find over variables; every body element merges the variables it
    // mentions (comparisons correlate atoms into theta-joins, so they count).
    std::map<std::string, std::string> parent;
    std::function<std::string(const std::string&)> find = [&](const std::string& v) {
      auto it = parent.find(v);
      if (it == parent.end()) {
        parent[v] = v;
        return v;
      }
      if (it->second == v) return v;
      return it->second = find(it->second);
    };
    auto unite = [&](const std::vector<std::string>& vars) {
      for (std::size_t i = 1; i < vars.size(); ++i) {
        parent[find(vars[0])] = find(vars[i]);
      }
    };
    std::vector<std::pair<const Atom*, std::vector<std::string>>> atoms;
    for (const auto& elem : rule.body) {
      std::vector<std::string> vars;
      if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
        if (ba->negated) continue;  // negated atoms filter, they don't join
        ba->atom.collect_vars(vars);
        unite(vars);
        if (!vars.empty()) atoms.emplace_back(&ba->atom, std::move(vars));
      } else if (const auto* cmp = std::get_if<Comparison>(&elem)) {
        cmp->lhs->collect_vars(vars);
        cmp->rhs->collect_vars(vars);
        unite(vars);
      }
    }
    if (atoms.size() < 2) continue;
    std::map<std::string, std::vector<const Atom*>> components;
    for (const auto& [atom, vars] : atoms) components[find(vars[0])].push_back(atom);
    if (components.size() < 2) continue;
    std::ostringstream groups;
    for (auto it = components.begin(); it != components.end(); ++it) {
      if (it != components.begin()) groups << " x ";
      groups << "{";
      for (std::size_t i = 0; i < it->second.size(); ++i) {
        groups << (i != 0 ? ", " : "") << it->second[i]->predicate;
      }
      groups << "}";
    }
    sink.warning("ND0010",
                 rule_label(rule) +
                     ": body atoms share no join variable — the evaluator "
                     "computes a cartesian product " +
                     groups.str(),
                 rule.span())
        .in_rule(rule_index_of(program, rule), rule.head.predicate)
        .hint = "add a shared variable between the groups or split the rule";
  }
}

void lint_aggregate_empty_groups(const Program& program, DiagnosticSink& sink) {
  for (const auto& rule : program.rules) {
    if (!rule.head.has_aggregate() || rule.is_fact()) continue;
    const bool guarded = std::any_of(
        rule.body.begin(), rule.body.end(), [](const BodyElem& elem) {
          if (const auto* ba = std::get_if<BodyAtom>(&elem)) return ba->negated;
          return std::get<Comparison>(elem).op != CmpOp::Eq;
        });
    if (!guarded) continue;
    std::string agg;
    for (const auto& arg : rule.head.args) {
      if (arg.is_agg()) {
        agg = std::string(to_string(*arg.agg)) + "<" + arg.agg_var + ">";
        break;
      }
    }
    sink.warning("ND0011",
                 rule_label(rule) + ": aggregate " + agg +
                     " over a guarded body derives no tuple for groups whose "
                     "candidates are all filtered out (count never yields 0)",
                 rule.head.span())
        .in_rule(rule_index_of(program, rule), rule.head.predicate)
        .hint = "derive the group keys unconditionally in a separate rule if "
                "an empty group must still produce a row";
  }
}

void lint_localizability(const Program& program, DiagnosticSink& sink) {
  for (const auto& rule : program.rules) {
    const auto locs = body_location_vars(rule);
    if (locs.size() <= 2) continue;
    std::string list;
    for (const auto& l : locs) list += (list.empty() ? "@" : ", @") + l;
    sink.warning("ND0012",
                 rule_label(rule) + ": body spans " + std::to_string(locs.size()) +
                     " location specifiers (" + list +
                     ") and cannot be localized into link-restricted "
                     "ship/join pairs for distributed execution",
                 rule.span())
        .in_rule(rule_index_of(program, rule), rule.head.predicate)
        .hint = "split the rule so each body joins at most two locations";
  }
}

void lint_link_restriction(const Program& program, DiagnosticSink& sink) {
  for (const auto& rule : program.rules) {
    const LocalizationCheck check = check_localizable(rule);
    if (check.status != LocalizationCheck::Status::NotLinkRestricted) {
      continue;  // >2 locations is ND0012's finding
    }
    const auto locs = body_location_vars(rule);
    auto it = locs.begin();
    const std::string a = *it++;
    const std::string b = *it;
    sink.warning("ND0013",
                 rule_label(rule) + ": body joins @" + a + " and @" + b +
                     " but is not link-restricted in either orientation — "
                     "runtime::localize would reject this rule at execution time",
                 rule.span())
        .in_rule(rule_index_of(program, rule), rule.head.predicate)
        .hint = "make every atom at one location also carry the other "
                "location's variable (positively), so its tuples can be "
                "shipped to the join site";
  }
}

namespace {

/// Parse a localizer-generated ship-rule name "<pred>_sh_<origin>_<k>" and
/// return the origin rule label, or "" when the name has a different shape.
std::string ship_origin(const std::string& name) {
  const auto pos = name.rfind("_sh_");
  if (pos == std::string::npos) return {};
  const std::string rest = name.substr(pos + 4);
  const auto us = rest.rfind('_');
  if (us == std::string::npos || us + 1 >= rest.size()) return {};
  for (std::size_t i = us + 1; i < rest.size(); ++i) {
    if (rest[i] < '0' || rest[i] > '9') return {};
  }
  return rest.substr(0, us);
}

}  // namespace

void dedupe_localized_diagnostics(const Program& program, DiagnosticSink& sink) {
  if (sink.empty()) return;
  bool any_ship = false;
  std::vector<Diagnostic> kept;
  std::set<std::pair<std::string, int>> seen;  // (code, origin rule index)
  // First pass: findings already anchored to non-ship rules claim their key
  // so a retargeted ship-rule duplicate is recognized regardless of order.
  for (const Diagnostic& d : sink.diagnostics()) {
    const bool is_ship =
        !ship_origin(d.predicate).empty() ||
        (d.rule_index >= 0 &&
         static_cast<std::size_t>(d.rule_index) < program.rules.size() &&
         !ship_origin(program.rules[static_cast<std::size_t>(d.rule_index)].name)
              .empty());
    if (is_ship) {
      any_ship = true;
    } else if (d.rule_index >= 0) {
      seen.emplace(d.code, d.rule_index);
    }
  }
  if (!any_ship) return;
  for (Diagnostic d : sink.diagnostics()) {
    std::string origin = ship_origin(d.predicate);
    if (origin.empty() && d.rule_index >= 0 &&
        static_cast<std::size_t>(d.rule_index) < program.rules.size()) {
      origin = ship_origin(program.rules[static_cast<std::size_t>(d.rule_index)].name);
    }
    if (origin.empty()) {
      kept.push_back(std::move(d));
      continue;
    }
    // Retarget onto the origin rule (the rewritten rule keeps its name).
    const Rule* target = nullptr;
    int target_index = -1;
    for (std::size_t ri = 0; ri < program.rules.size(); ++ri) {
      const Rule& rule = program.rules[ri];
      if (rule.name == origin && ship_origin(rule.name).empty()) {
        target = &rule;
        target_index = static_cast<int>(ri);
        break;
      }
    }
    if (target == nullptr) {
      kept.push_back(std::move(d));
      continue;
    }
    d.span = target->span();
    d.rule_index = target_index;
    d.predicate = target->head.predicate;
    if (!seen.emplace(d.code, target_index).second) continue;  // duplicate
    kept.push_back(std::move(d));
  }
  sink.clear();
  for (auto& d : kept) sink.report(std::move(d));
}

void lint_program(const Program& program, DiagnosticSink& sink) {
  check_arities(program, sink);
  check_safety(program, sink);
  (void)stratify(program, sink);
  lint_unused_predicates(program, sink);
  lint_underivable_predicates(program, sink);
  lint_duplicate_rules(program, sink);
  lint_singleton_variables(program, sink);
  lint_cartesian_products(program, sink);
  lint_aggregate_empty_groups(program, sink);
  lint_localizability(program, sink);
  lint_link_restriction(program, sink);
  dedupe_localized_diagnostics(program, sink);
  sink.sort_by_location();
}

}  // namespace fvn::ndlog
