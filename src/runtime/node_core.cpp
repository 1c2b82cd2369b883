#include "runtime/node_core.hpp"

#include "ndlog/analysis.hpp"
#include "ndlog/eval.hpp"

namespace fvn::runtime {

using ndlog::Tuple;

NodeCore::NodeCore(std::string name, const dataflow::Plan& plan, const PredTable& preds,
                   const ndlog::BuiltinRegistry& builtins, obs::Registry* metrics, Hook hook)
    : name_(std::move(name)),
      preds_(&preds),
      hook_(std::move(hook)),
      engine_(plan, builtins, metrics),
      by_key_(TupleKeyLess{&preds}) {}

bool NodeCore::install(const Tuple& tuple, double now) {
  auto it = by_key_.find(tuple);
  bool changed = true;
  if (it == by_key_.end()) {
    by_key_.insert(tuple);
    db_.insert(tuple);
    engine_.on_insert(tuple, db_);
  } else if (!(*it == tuple)) {
    // Keyed overwrite (P2 materialize semantics).
    db_.erase(*it);
    engine_.on_erase(*it, db_);
    hook_(*this, Change::Retract, *it);
    expires_at_.erase(*it);
    auto slot = by_key_.extract(it);
    slot.value() = tuple;  // same key fields: the set's order is undisturbed
    by_key_.insert(std::move(slot));
    db_.insert(tuple);
    engine_.on_insert(tuple, db_);
    ++overwrites_;
  } else {
    changed = false;
  }
  // A duplicate still refreshes a soft-state row's lifetime.
  if (const auto& lifetime = preds_->info(tuple.predicate()).lifetime) {
    expires_at_[tuple] = now + *lifetime;
    hook_(*this, Change::Refresh, tuple);
  }
  if (changed) hook_(*this, Change::Install, tuple);
  return changed;
}

void NodeCore::route(const Tuple& tuple, double now) {
  if (preds_->location_of(tuple) != name_) {
    hook_(*this, Change::Remote, tuple);
  } else if (install(tuple, now)) {
    derive(tuple, now);
  }
}

void NodeCore::derive(const Tuple& delta, double now) {
  std::vector<Tuple> produced;
  engine_.process(delta, db_, produced);
  for (const auto& t : produced) route(t, now);
}

void NodeCore::deliver(const Tuple& tuple, double now) {
  const bool transient =
      tuple.predicate() == "periodic" || preds_->info(tuple.predicate()).transient;
  // A duplicate install changes nothing, so there is nothing to re-derive.
  if (!transient && !install(tuple, now)) return;
  derive(tuple, now);
}

void NodeCore::settle(double now) {
  for (bool moved = true; moved;) {
    moved = false;
    for (std::size_t i = 0; i < engine_.aggregate_count(); ++i) {
      if (!engine_.flush_aggregate(i, db_, deltas_)) continue;
      moved = true;
      for (const auto& d : deltas_) {
        // Remote copies of a row are their owner's to age out.
        if (d.retract.has_value() && preds_->location_of(*d.retract) == name_) {
          retract(*d.retract);
        }
        if (d.assert_now.has_value()) route(*d.assert_now, now);
      }
    }
  }
}

void NodeCore::retract(const Tuple& tuple) {
  if (!db_.erase(tuple)) return;
  engine_.on_erase(tuple, db_);
  by_key_.erase(tuple);
  expires_at_.erase(tuple);
  hook_(*this, Change::Retract, tuple);
}

void NodeCore::restore(const std::set<Tuple>& rows) {
  for (const auto& row : rows) {
    by_key_.insert(row);
    db_.insert(row);
    engine_.on_insert(row, db_);
  }
  for (std::size_t i = 0; i < engine_.aggregate_count(); ++i) {
    engine_.flush_aggregate(i, db_, deltas_);
  }
}

bool NodeCore::expire(const Tuple& tuple, double now) {
  auto it = expires_at_.find(tuple);
  if (it == expires_at_.end() || it->second > now + 1e-12) return false;
  expires_at_.erase(it);
  if (db_.erase(tuple)) {
    engine_.on_erase(tuple, db_);
    hook_(*this, Change::Expire, tuple);
  }
  by_key_.erase(tuple);
  return true;
}

dataflow::Plan checked_plan(const ndlog::Program& localized,
                            const ndlog::BuiltinRegistry& builtins,
                            bool require_stratified, const dataflow::PlanOptions& options) {
  ndlog::check_arities(localized);
  ndlog::check_safety(localized, builtins);
  if (require_stratified) ndlog::stratify(localized);
  return dataflow::compile(localized, options);
}

std::vector<Tuple> embedded_facts(const ndlog::Program& program,
                                  const ndlog::BuiltinRegistry& builtins) {
  std::vector<Tuple> facts;
  for (const auto& rule : program.rules) {
    if (!rule.is_fact()) continue;
    ndlog::Bindings empty;
    std::vector<ndlog::Value> values;
    for (const auto& arg : rule.head.args) {
      values.push_back(*ndlog::eval_term(*arg.term, empty, builtins));
    }
    facts.emplace_back(rule.head.predicate, std::move(values));
  }
  return facts;
}

bool uses_periodic(const ndlog::Program& program) {
  for (const auto& rule : program.rules) {
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<ndlog::BodyAtom>(&elem)) {
        if (ba->atom.predicate == "periodic") return true;
      }
    }
  }
  return false;
}

std::string soft_state_feature(const ndlog::Program& program, const ndlog::Catalog& catalog) {
  for (const auto& pred : catalog.predicates()) {
    const auto& lifetime = catalog.info(pred).lifetime_seconds;
    if (lifetime.has_value() && *lifetime > 0.0) {
      return "predicate " + pred + " has a finite lifetime (soft state)";
    }
  }
  return uses_periodic(program) ? "program uses periodic" : "";
}

void merge_into(ndlog::Database& merged, const ndlog::Database& db) {
  for (const auto& pred : db.predicates()) {
    for (const auto& t : db.relation(pred)) merged.insert(t);
  }
}

}  // namespace fvn::runtime
