#include "dataflow/plan.hpp"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>
#include <variant>

#include "ndlog/analysis.hpp"
#include "ndlog/cost.hpp"
#include "ndlog/eval.hpp"
#include "obs/json.hpp"

namespace fvn::dataflow {

using ndlog::AggKind;
using ndlog::Atom;
using ndlog::BodyAtom;
using ndlog::CmpOp;
using ndlog::Comparison;
using ndlog::Program;
using ndlog::Rule;
using ndlog::Term;

std::string_view kind_name(Element::Kind kind) noexcept {
  switch (kind) {
    case Element::Kind::Delta: return "delta";
    case Element::Kind::IndexJoin: return "index_join";
    case Element::Kind::Scan: return "scan";
    case Element::Kind::Bind: return "bind";
    case Element::Kind::Select: return "select";
    case Element::Kind::NegProbe: return "neg_probe";
    case Element::Kind::Project: return "project";
    case Element::Kind::Aggregate: return "aggregate";
    case Element::Kind::Demux: return "demux";
  }
  return "?";
}

std::string Element::label() const {
  std::ostringstream os;
  switch (kind) {
    case Kind::Delta:
      os << "delta " << predicate;
      break;
    case Kind::IndexJoin:
      os << "join " << predicate << " probe@" << probe_pos << "=" << probe.to_string();
      break;
    case Kind::Scan:
      os << "scan " << predicate;
      break;
    case Kind::Bind:
      os << "bind $" << slot << " = " << rhs.to_string();
      break;
    case Kind::Select:
      os << "select " << lhs.to_string() << ndlog::to_string(cmp) << rhs.to_string();
      break;
    case Kind::NegProbe: {
      os << "neg !" << predicate << "(";
      for (std::size_t i = 0; i < args.size(); ++i) {
        if (i) os << ",";
        os << args[i].to_string();
      }
      os << ")";
      break;
    }
    case Kind::Project: {
      os << "project " << head_predicate << "(";
      for (std::size_t i = 0; i < head_args.size(); ++i) {
        if (i) os << ",";
        os << head_args[i].to_string();
      }
      os << ")";
      break;
    }
    case Kind::Aggregate:
      os << "agg " << ndlog::to_string(agg) << "<$" << agg_slot << "> -> "
         << head_predicate << "@" << agg_pos;
      break;
    case Kind::Demux:
      os << "demux " << head_predicate;
      break;
  }
  return os.str();
}

namespace {

/// A not-yet-discharged body check (negated atom or comparison), mirroring
/// the interpreter's `Check` list (eval.cpp join()).
struct CheckRef {
  const Comparison* cmp = nullptr;
  const BodyAtom* neg = nullptr;
  bool done = false;
};

bool term_vars_bound(const Term& term, const SlotMap& slots) {
  std::vector<std::string> vars;
  term.collect_vars(vars);
  return std::all_of(vars.begin(), vars.end(),
                     [&](const std::string& v) { return slots.lookup(v) >= 0; });
}

/// Static replay of the interpreter's check-discharge loop: repeatedly scan
/// the checks in body order, emitting a Select / Bind / NegProbe element for
/// each check that becomes ready. Boundness is purely syntactic (the set of
/// bound variables at each point is the same for every runtime environment),
/// so this compile-time schedule is exact.
void discharge_static(std::vector<CheckRef>& checks, SlotMap& slots,
                      std::vector<Element>& elements, int& check_seq) {
  bool progressed = true;
  while (progressed) {
    progressed = false;
    for (auto& check : checks) {
      if (check.done) continue;
      if (check.neg != nullptr) {
        const Atom& atom = check.neg->atom;
        bool all_bound = true;
        for (const auto& a : atom.args) all_bound = all_bound && term_vars_bound(*a, slots);
        if (!all_bound) continue;
        Element e;
        e.kind = Element::Kind::NegProbe;
        e.id = "neg" + std::to_string(check_seq++);
        e.predicate = atom.predicate;
        e.arity = atom.args.size();
        for (const auto& a : atom.args) e.args.push_back(compile_term(*a, slots));
        elements.push_back(std::move(e));
        check.done = true;
        progressed = true;
        continue;
      }
      const Comparison& cmp = *check.cmp;
      const bool lhs_ok = term_vars_bound(*cmp.lhs, slots);
      const bool rhs_ok = term_vars_bound(*cmp.rhs, slots);
      if (cmp.op == CmpOp::Eq) {
        if (lhs_ok && rhs_ok) {
          Element e;
          e.kind = Element::Kind::Select;
          e.id = "sel" + std::to_string(check_seq++);
          e.cmp = CmpOp::Eq;
          e.lhs = compile_term(*cmp.lhs, slots);
          e.rhs = compile_term(*cmp.rhs, slots);
          elements.push_back(std::move(e));
        } else if (!lhs_ok && rhs_ok && cmp.lhs->kind == Term::Kind::Var) {
          Element e;
          e.kind = Element::Kind::Bind;
          e.id = "bind" + std::to_string(check_seq++);
          e.rhs = compile_term(*cmp.rhs, slots);
          e.slot = slots.bind(cmp.lhs->name);
          elements.push_back(std::move(e));
        } else if (lhs_ok && !rhs_ok && cmp.rhs->kind == Term::Kind::Var) {
          Element e;
          e.kind = Element::Kind::Bind;
          e.id = "bind" + std::to_string(check_seq++);
          e.rhs = compile_term(*cmp.lhs, slots);
          e.slot = slots.bind(cmp.rhs->name);
          elements.push_back(std::move(e));
        } else {
          continue;  // not ready yet
        }
        check.done = true;
        progressed = true;
        continue;
      }
      if (!lhs_ok || !rhs_ok) continue;
      Element e;
      e.kind = Element::Kind::Select;
      e.id = "sel" + std::to_string(check_seq++);
      e.cmp = cmp.op;
      e.lhs = compile_term(*cmp.lhs, slots);
      e.rhs = compile_term(*cmp.rhs, slots);
      elements.push_back(std::move(e));
      check.done = true;
      progressed = true;
    }
  }
}

/// Declared key fields per predicate, read from the program's materialize
/// declarations (a later declaration wins, as in ndlog::Catalog).
using KeyFields = std::map<std::string, std::vector<std::size_t>>;

KeyFields declared_keys(const Program& program) {
  KeyFields keys;
  for (const auto& m : program.materializations) keys[m.predicate] = m.key_fields;
  return keys;
}

/// Every argument is a variable or a constant.
bool plain(const Atom& atom) {
  return std::all_of(atom.args.begin(), atom.args.end(), [](const auto& arg) {
    return arg->kind == Term::Kind::Var || arg->kind == Term::Kind::Const;
  });
}

/// The 0-based key positions of `atom` when it can join after `delta` by
/// one key probe, else empty: it has declared key fields, all within its
/// arity, and each is a constant or a variable that is an argument of
/// `delta`. Keyed overwrite leaves a node at most one row per declared key,
/// so such an atom matches at most one row once the delta is bound. Both
/// atoms must be plain, so that joining them in another order needs no
/// variable a check binds.
std::vector<std::size_t> key_positions_bound_by(const Atom& atom, const Atom& delta,
                                                const KeyFields& keys) {
  const auto it = keys.find(atom.predicate);
  if (it == keys.end() || it->second.empty() || !plain(atom) || !plain(delta)) return {};
  std::vector<std::size_t> positions;
  for (std::size_t field : it->second) {
    if (field < 1 || field > atom.args.size()) return {};
    const Term& arg = *atom.args[field - 1];
    const bool bound =
        arg.kind == Term::Kind::Const ||
        std::any_of(delta.args.begin(), delta.args.end(), [&](const auto& d) {
          return d->kind == Term::Kind::Var && d->name == arg.name;
        });
    if (!bound) return {};
    positions.push_back(field - 1);
  }
  std::sort(positions.begin(), positions.end());
  return positions;
}

Strand build_strand(const Rule& rule, std::size_t rule_index, std::size_t delta_pos,
                    bool aggregate_terminal, const KeyFields& keys) {
  Strand strand;
  strand.rule_index = rule_index;
  strand.rule_label = rule.display_name();
  strand.delta_position = delta_pos;

  std::vector<const BodyAtom*> atoms;
  std::vector<CheckRef> checks;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      if (ba->negated) {
        checks.push_back(CheckRef{nullptr, ba, false});
      } else {
        atoms.push_back(ba);
      }
    } else {
      checks.push_back(CheckRef{&std::get<Comparison>(elem), nullptr, false});
    }
  }
  strand.delta_predicate = atoms[delta_pos]->atom.predicate;

  // The join order: the interpreter's (body order), unless the delta binds
  // the declared key of every atom before it. Then the delta goes first and
  // those atoms follow as key probes, each contributing at most one row, so
  // the strand emits the interpreter's solutions in the interpreter's order.
  std::vector<std::vector<std::size_t>> probe_keys(delta_pos);
  bool delta_first = delta_pos > 0;
  for (std::size_t k = 0; k < delta_pos && delta_first; ++k) {
    probe_keys[k] = key_positions_bound_by(atoms[k]->atom, atoms[delta_pos]->atom, keys);
    delta_first = !probe_keys[k].empty();
  }
  std::vector<std::size_t> order(atoms.size());
  std::iota(order.begin(), order.end(), 0);
  if (delta_first) {
    std::rotate(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(delta_pos),
                order.begin() + static_cast<std::ptrdiff_t>(delta_pos) + 1);
  }

  SlotMap slots;
  int check_seq = 0;
  // No check runs before the moved atoms are joined, so no builtin sees an
  // environment the interpreter never builds.
  if (!delta_first) discharge_static(checks, slots, strand.elements, check_seq);

  for (std::size_t i = 0; i < order.size() && !strand.dead; ++i) {
    const std::size_t k = order[i];
    const Atom& atom = atoms[k]->atom;
    Element e;
    e.predicate = atom.predicate;
    e.arity = atom.args.size();
    if (k == delta_pos) {
      e.kind = Element::Kind::Delta;
      e.id = "delta";
    } else if (delta_first && k < delta_pos) {
      // A key probe: the first bound key column that is not the location
      // specifier (at a node, the location matches every row).
      const auto& positions = probe_keys[k];
      const auto off_loc = std::find_if(positions.begin(), positions.end(), [&](std::size_t p) {
        return static_cast<int>(p) != atom.loc_index;
      });
      const std::size_t pos = off_loc != positions.end() ? *off_loc : positions.front();
      const Term& arg = *atom.args[pos];
      e.probe_pos = static_cast<int>(pos);
      e.probe = arg.kind == Term::Kind::Const ? CompiledExpr::of_const(arg.constant)
                                              : CompiledExpr::of_slot(slots.lookup(arg.name));
      e.kind = Element::Kind::IndexJoin;
      e.id = "join" + std::to_string(k);
    } else {
      // Index-probe selection, mirroring the interpreter: the first argument
      // position already determined (constant or bound variable) *before*
      // this atom binds anything.
      for (std::size_t pos = 0; pos < atom.args.size(); ++pos) {
        const auto& arg = atom.args[pos];
        if (arg->kind == Term::Kind::Const) {
          e.probe_pos = static_cast<int>(pos);
          e.probe = CompiledExpr::of_const(arg->constant);
          break;
        }
        if (arg->kind == Term::Kind::Var) {
          const int slot = slots.lookup(arg->name);
          if (slot >= 0) {
            e.probe_pos = static_cast<int>(pos);
            e.probe = CompiledExpr::of_slot(slot);
            break;
          }
        }
      }
      e.kind = e.probe_pos >= 0 ? Element::Kind::IndexJoin : Element::Kind::Scan;
      e.id = (e.probe_pos >= 0 ? "join" : "scan") + std::to_string(k);
    }
    // Argument steps, in position order: first occurrence of a variable
    // binds, repeats test; constant/function arguments test by value. An
    // argument over never-bound variables can never match (the interpreter's
    // eval_term yields nullopt for every tuple) — the strand is dead.
    for (std::size_t pos = 0; pos < atom.args.size(); ++pos) {
      const auto& arg = atom.args[pos];
      ArgStep step;
      step.pos = pos;
      if (arg->kind == Term::Kind::Var) {
        const int slot = slots.lookup(arg->name);
        if (slot < 0) {
          step.kind = ArgStep::Kind::Bind;
          step.slot = slots.bind(arg->name);
        } else {
          step.kind = ArgStep::Kind::TestSlot;
          step.slot = slot;
        }
      } else {
        if (!term_vars_bound(*arg, slots)) {
          strand.dead = true;
          break;
        }
        step.kind = ArgStep::Kind::TestExpr;
        step.expr = compile_term(*arg, slots);
      }
      e.steps.push_back(std::move(step));
    }
    if (strand.dead) break;
    strand.elements.push_back(std::move(e));
    if (!delta_first || i >= delta_pos) {
      discharge_static(checks, slots, strand.elements, check_seq);
    }
  }

  // Any check still pending can never discharge, so no environment ever
  // passes the interpreter's all-discharged gate: the strand is dead.
  for (const auto& check : checks) {
    if (!check.done) strand.dead = true;
  }

  if (!strand.dead) {
    if (!aggregate_terminal) {
      Element project;
      project.kind = Element::Kind::Project;
      project.id = "project";
      project.head_predicate = rule.head.predicate;
      for (const auto& arg : rule.head.args) {
        project.head_args.push_back(compile_term(*arg.term, slots));
      }
      strand.elements.push_back(std::move(project));
      Element demux;
      demux.kind = Element::Kind::Demux;
      demux.id = "demux";
      demux.head_predicate = rule.head.predicate;
      strand.elements.push_back(std::move(demux));
    } else {
      Element agg;
      agg.kind = Element::Kind::Aggregate;
      agg.id = "agg";
      agg.head_predicate = rule.head.predicate;
      for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
        const auto& arg = rule.head.args[i];
        if (arg.is_agg()) {
          agg.agg_pos = i;
          agg.agg = *arg.agg;
          agg.agg_slot = slots.lookup(arg.agg_var);
          if (agg.agg_slot < 0) {
            throw ndlog::AnalysisError("rule " + rule.display_name() +
                                       ": aggregate variable '" + arg.agg_var +
                                       "' is never bound by the body");
          }
          agg.head_args.push_back(CompiledExpr::of_const(ndlog::Value::nil()));
        } else {
          agg.head_args.push_back(compile_term(*arg.term, slots));
        }
      }
      strand.elements.push_back(std::move(agg));
    }
  }

  strand.nslots = slots.size();
  strand.slot_names = slots.names();
  return strand;
}

}  // namespace

Plan compile(const Program& localized, const PlanOptions& options) {
  if (options.cost_order) {
    // Permute each rule's body into the statically cheapest safe join order,
    // then compile the rewritten program as usual. plan_orders returns the
    // identity for rules where reordering could perturb the fixpoint.
    Program ordered = localized;
    const auto orders = ndlog::cost::plan_orders(localized);
    for (std::size_t ri = 0; ri < ordered.rules.size() && ri < orders.size(); ++ri) {
      Rule& rule = ordered.rules[ri];
      const auto& perm = orders[ri];
      if (perm.size() != rule.body.size()) continue;
      bool identity = true;
      std::vector<ndlog::BodyElem> body;
      body.reserve(perm.size());
      for (std::size_t i = 0; i < perm.size(); ++i) {
        if (perm[i] != i) identity = false;
        body.push_back(rule.body[perm[i]]);
      }
      if (!identity) rule.body = std::move(body);
    }
    PlanOptions inner = options;
    inner.cost_order = false;
    Plan plan = compile(ordered, inner);
    plan.cost_ordered = true;
    return plan;
  }
  Plan plan;
  plan.program = localized;
  const KeyFields keys = declared_keys(localized);
  for (std::size_t ri = 0; ri < localized.rules.size(); ++ri) {
    const Rule& rule = localized.rules[ri];
    if (rule.is_fact()) continue;
    const auto atoms = ndlog::RuleEngine::positive_atoms(rule);
    if (rule.head.has_aggregate()) {
      AggregateRulePlan ap;
      ap.rule_index = ri;
      ap.rule_label = rule.display_name();
      for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
        if (rule.head.args[i].is_agg()) {
          ap.agg_pos = i;
          ap.kind = *rule.head.args[i].agg;
        }
      }
      bool has_negation = false;
      std::map<std::string, int> positive_count;
      for (const auto& elem : rule.body) {
        if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
          ap.body_predicates.insert(ba->atom.predicate);
          if (ba->negated) {
            has_negation = true;
          } else {
            ++positive_count[ba->atom.predicate];
          }
        }
      }
      const bool self_join = std::any_of(positive_count.begin(), positive_count.end(),
                                         [](const auto& kv) { return kv.second > 1; });
      // Incremental per-group maintenance is exact only when one inserted or
      // erased tuple changes solutions at exactly one body position and only
      // monotonically; otherwise fall back to the interpreter-identical full
      // recompute (still flushed through the same diff machinery).
      if (!options.incremental_aggregates) {
        ap.incremental = false;
        ap.mode_reason = "incremental aggregates disabled";
      } else if (has_negation) {
        ap.incremental = false;
        ap.mode_reason = "body contains a negated atom";
      } else if (self_join) {
        ap.incremental = false;
        ap.mode_reason = "body self-joins a predicate";
      } else if (atoms.empty()) {
        ap.incremental = false;
        ap.mode_reason = "body has no positive atom";
      }
      if (ap.incremental) {
        for (std::size_t i = 0; i < atoms.size(); ++i) {
          ap.strands.push_back(build_strand(rule, ri, i, /*aggregate_terminal=*/true, keys));
        }
      }
      plan.aggregates.push_back(std::move(ap));
    } else {
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        plan.strands.push_back(build_strand(rule, ri, i, /*aggregate_terminal=*/false, keys));
      }
    }
  }
  for (std::size_t si = 0; si < plan.strands.size(); ++si) {
    plan.strands_by_predicate[plan.strands[si].delta_predicate].push_back(si);
  }
  const auto intern = [&plan](const std::string& name) -> std::uint32_t {
    const auto [it, inserted] = plan.predicate_ids.emplace(
        name, static_cast<std::uint32_t>(plan.predicate_ids.size()));
    if (inserted) {
      plan.strands_by_id.emplace_back();
      plan.aggregates_by_id.emplace_back();
      plan.agg_strands_by_id.emplace_back();
    }
    return it->second;
  };
  for (std::size_t si = 0; si < plan.strands.size(); ++si) {
    plan.strands_by_id[intern(plan.strands[si].delta_predicate)].push_back(si);
  }
  for (std::size_t ai = 0; ai < plan.aggregates.size(); ++ai) {
    for (const auto& pred : plan.aggregates[ai].body_predicates) {
      plan.aggregates_by_id[intern(pred)].push_back(ai);
    }
    for (std::size_t si = 0; si < plan.aggregates[ai].strands.size(); ++si) {
      plan.agg_strands_by_id[intern(plan.aggregates[ai].strands[si].delta_predicate)]
          .emplace_back(ai, si);
    }
  }
  return plan;
}

std::size_t Plan::element_count() const {
  std::size_t n = 0;
  for (const auto& s : strands) n += s.elements.size();
  for (const auto& a : aggregates) {
    for (const auto& s : a.strands) n += s.elements.size();
  }
  return n;
}

namespace {

std::string strand_tag(const Strand& s) {
  return s.rule_label + "[d" + std::to_string(s.delta_position) + "]";
}

void strand_dot(std::ostringstream& os, const Strand& s, const std::string& cluster,
                const std::string& extra) {
  os << "  subgraph cluster_" << cluster << " {\n";
  os << "    label=\"" << strand_tag(s) << (s.dead ? " (dead)" : "") << extra << "\";\n";
  std::string prev;
  for (const auto& e : s.elements) {
    const std::string node = cluster + "_" + e.id;
    os << "    " << node << " [label=\"" << obs::json_escape(e.label()) << "\", shape=box];\n";
    if (!prev.empty()) os << "    " << prev << " -> " << node << ";\n";
    prev = node;
  }
  os << "  }\n";
}

void strand_json(std::ostringstream& os, const Strand& s) {
  os << "{\"rule\":\"" << obs::json_escape(s.rule_label) << "\""
     << ",\"rule_index\":" << s.rule_index
     << ",\"delta_predicate\":\"" << obs::json_escape(s.delta_predicate) << "\""
     << ",\"delta_position\":" << s.delta_position
     << ",\"dead\":" << (s.dead ? "true" : "false")
     << ",\"slots\":[";
  for (std::size_t i = 0; i < s.slot_names.size(); ++i) {
    if (i) os << ",";
    os << "\"" << obs::json_escape(s.slot_names[i]) << "\"";
  }
  os << "],\"elements\":[";
  for (std::size_t i = 0; i < s.elements.size(); ++i) {
    const Element& e = s.elements[i];
    if (i) os << ",";
    os << "{\"id\":\"" << obs::json_escape(e.id) << "\",\"kind\":\"" << kind_name(e.kind)
       << "\",\"label\":\"" << obs::json_escape(e.label()) << "\"}";
  }
  os << "]}";
}

}  // namespace

std::string Plan::to_dot() const {
  std::ostringstream os;
  os << "digraph dataflow {\n  rankdir=LR;\n  node [fontsize=10];\n";
  std::size_t c = 0;
  for (const auto& s : strands) strand_dot(os, s, "s" + std::to_string(c++), "");
  for (const auto& a : aggregates) {
    if (a.incremental) {
      for (const auto& s : a.strands) strand_dot(os, s, "s" + std::to_string(c++), "");
    } else {
      os << "  agg_" << c++ << " [label=\"" << obs::json_escape(a.rule_label)
         << ": recompute aggregate (" << obs::json_escape(a.mode_reason)
         << ")\", shape=box, style=dashed];\n";
    }
  }
  os << "}\n";
  return os.str();
}

std::string Plan::to_json() const {
  std::ostringstream os;
  os << "{\"program\":\"" << obs::json_escape(program.name) << "\"";
  if (cost_ordered) os << ",\"cost_ordered\":true";
  os << ",\"strands\":[";
  for (std::size_t i = 0; i < strands.size(); ++i) {
    if (i) os << ",";
    strand_json(os, strands[i]);
  }
  os << "],\"aggregates\":[";
  for (std::size_t i = 0; i < aggregates.size(); ++i) {
    const auto& a = aggregates[i];
    if (i) os << ",";
    os << "{\"rule\":\"" << obs::json_escape(a.rule_label) << "\""
       << ",\"rule_index\":" << a.rule_index
       << ",\"mode\":\"" << (a.incremental ? "incremental" : "recompute") << "\""
       << ",\"reason\":\"" << obs::json_escape(a.mode_reason) << "\""
       << ",\"aggregate\":\"" << ndlog::to_string(a.kind) << "\""
       << ",\"strands\":[";
    for (std::size_t j = 0; j < a.strands.size(); ++j) {
      if (j) os << ",";
      strand_json(os, a.strands[j]);
    }
    os << "]}";
  }
  os << "]}";
  return os.str();
}

std::string Plan::summary() const {
  std::ostringstream os;
  auto line = [&](const Strand& s) {
    os << "  " << strand_tag(s) << (s.dead ? " (dead)" : "") << ":";
    for (const auto& e : s.elements) os << " -> [" << e.label() << "]";
    os << "\n";
  };
  os << "dataflow plan: " << strands.size() << " rule strand(s), " << aggregates.size()
     << " aggregate rule(s), " << element_count() << " element(s)\n";
  for (const auto& s : strands) line(s);
  for (const auto& a : aggregates) {
    if (a.incremental) {
      os << "  " << a.rule_label << ": incremental " << ndlog::to_string(a.kind)
         << " aggregate\n";
      for (const auto& s : a.strands) line(s);
    } else {
      os << "  " << a.rule_label << ": recompute aggregate (" << a.mode_reason << ")\n";
    }
  }
  return os.str();
}

}  // namespace fvn::dataflow
