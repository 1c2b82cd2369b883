#include "ndlog/provenance.hpp"

#include <algorithm>

namespace fvn::ndlog {

std::size_t Derivation::height() const {
  std::size_t h = 0;
  for (const auto& p : premises) h = std::max(h, p->height());
  return h + 1;
}

std::size_t Derivation::size() const {
  std::size_t n = 1;
  for (const auto& p : premises) n += p->size();
  return n;
}

std::string Derivation::to_string(std::size_t indent) const {
  std::string pad(indent * 2, ' ');
  std::string out = pad + tuple.to_string();
  if (is_base_fact()) {
    out += "  [base fact]\n";
    return out;
  }
  out += "  [by " + rule;
  for (const auto& sc : side_conditions) out += "; " + sc;
  out += "]\n";
  for (const auto& p : premises) out += p->to_string(indent + 1);
  return out;
}

DerivationPtr ProvenanceResult::derivation_of(const Tuple& tuple) const {
  auto it = derivations.find(tuple);
  return it == derivations.end() ? nullptr : it->second;
}

namespace {

DerivationPtr leaf(const Tuple& tuple) {
  auto node = std::make_shared<Derivation>();
  node->tuple = tuple;
  return node;
}

/// Build the derivation node for one rule firing.
DerivationPtr make_derivation(const Rule& rule, const Bindings& bindings,
                              const Tuple& head,
                              const std::map<Tuple, DerivationPtr>& known) {
  auto node = std::make_shared<Derivation>();
  node->tuple = head;
  node->rule = rule.name.empty() ? rule.head.predicate : rule.name;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      std::vector<Value> values;
      values.reserve(ba->atom.args.size());
      bool ok = true;
      for (const auto& a : ba->atom.args) {
        auto v = eval_term(*a, bindings);
        if (!v) {
          ok = false;
          break;
        }
        values.push_back(std::move(*v));
      }
      if (!ok) continue;
      Tuple premise(ba->atom.predicate, std::move(values));
      if (ba->negated) {
        node->side_conditions.push_back("absent " + premise.to_string());
        continue;
      }
      auto it = known.find(premise);
      // A premise was added before the head it derives, so it is known; an
      // opaque leaf keeps the tree total should that ever fail.
      node->premises.push_back(it != known.end() ? it->second : leaf(premise));
    } else {
      node->side_conditions.push_back(ndlog::to_string(elem));
    }
  }
  return node;
}

}  // namespace

ProvenanceResult eval_with_provenance(const Program& program,
                                      const std::vector<Tuple>& base_facts,
                                      const EvalOptions& options) {
  ProvenanceResult result;
  auto& known = result.derivations;
  EvalResult run = Evaluator().run(
      program, base_facts, options,
      [&](const Tuple& tuple, const Rule* rule, const Bindings* bindings) {
        known.emplace(tuple, rule == nullptr
                                 ? leaf(tuple)
                                 : make_derivation(*rule, *bindings, tuple, known));
      });
  result.database = std::move(run.database);
  result.stats = run.stats;
  return result;
}

}  // namespace fvn::ndlog
