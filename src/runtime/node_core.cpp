#include "runtime/node_core.hpp"

#include <algorithm>

#include "ndlog/analysis.hpp"
#include "ndlog/eval.hpp"

namespace fvn::runtime {

using ndlog::Tuple;

NodeCore::NodeCore(std::string name, const dataflow::Plan& plan, const PredTable& preds,
                   obs::Registry* metrics, Hook hook, LayerClock* layers)
    : name_(std::move(name)),
      preds_(&preds),
      hook_(std::move(hook)),
      layers_(layers),
      engine_(plan, metrics) {}

void NodeCore::on_insert(const Tuple& tuple) {
  LayerClock::Scope scope(layers_, LayerClock::Aggregate);
  engine_.on_insert(tuple, db_);
}

void NodeCore::on_erase(const Tuple& tuple) {
  LayerClock::Scope scope(layers_, LayerClock::Aggregate);
  engine_.on_erase(tuple, db_);
}

bool NodeCore::install(const Tuple& tuple, double now) {
  LayerClock::Scope scope(layers_, LayerClock::Install);
  const PredInfo& info = preds_->info(tuple.predicate());
  // One probe: a fresh slot points at `tuple` until the stored row exists.
  const auto [slot, fresh] = by_key_.insert(KeyedRow(tuple, info));
  const bool changed = fresh || !(*slot->row == tuple);
  if (changed && !fresh) {
    // Keyed overwrite (P2 materialize semantics).
    const Tuple old = *slot->row;
    slot->row = &tuple;  // same key; the stored row is about to go
    db_.erase(old);
    on_erase(old);
    hook_(*this, Change::Retract, old);
    expires_at_.erase(old);
    ++overwrites_;
  }
  if (changed) {
    slot->row = db_.insert(tuple);
    on_insert(tuple);
  }
  // A duplicate still refreshes a soft-state row's lifetime.
  if (info.lifetime) {
    expires_at_[tuple] = now + *info.lifetime;
    hook_(*this, Change::Refresh, tuple);
  }
  if (changed) hook_(*this, Change::Install, tuple);
  return changed;
}

bool NodeCore::remove(const Tuple& tuple) {
  const auto slot = by_key_.find(KeyedRow(tuple, preds_->info(tuple.predicate())));
  if (slot == by_key_.end() || !(*slot->row == tuple)) return false;
  by_key_.erase(slot);  // before the row it points at goes
  db_.erase(tuple);
  on_erase(tuple);
  return true;
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
  {
    LayerClock::Scope scope(layers_, LayerClock::Eval);
    engine_.process(delta, db_, produced);
  }
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
  LayerClock::Scope scope(layers_, LayerClock::Aggregate);
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
  LayerClock::Scope scope(layers_, LayerClock::Install);
  if (!remove(tuple)) return;
  expires_at_.erase(tuple);
  hook_(*this, Change::Retract, tuple);
}

void NodeCore::restore(std::span<const Tuple* const> rows) {
  std::vector<const Tuple*> ordered(rows.begin(), rows.end());
  std::sort(ordered.begin(), ordered.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });
  for (const Tuple* row : ordered) {
    by_key_.insert(KeyedRow(*db_.insert(*row), preds_->info(row->predicate())));
    on_insert(*row);
  }
  for (std::size_t i = 0; i < engine_.aggregate_count(); ++i) {
    engine_.flush_aggregate(i, db_, deltas_);
  }
}

bool NodeCore::expire(const Tuple& tuple, double now) {
  LayerClock::Scope scope(layers_, LayerClock::Install);
  auto it = expires_at_.find(tuple);
  if (it == expires_at_.end() || it->second > now + 1e-12) return false;
  expires_at_.erase(it);
  if (remove(tuple)) hook_(*this, Change::Expire, tuple);
  return true;
}

dataflow::Plan checked_plan(const ndlog::Program& localized, bool require_stratified,
                            const dataflow::PlanOptions& options) {
  ndlog::check_arities(localized);
  ndlog::check_safety(localized);
  if (require_stratified) ndlog::stratify(localized);
  return dataflow::compile(localized, options);
}

std::vector<Tuple> embedded_facts(const ndlog::Program& program) {
  std::vector<Tuple> facts;
  for (const auto& rule : program.rules) {
    if (!rule.is_fact()) continue;
    ndlog::Bindings empty;
    std::vector<ndlog::Value> values;
    for (const auto& arg : rule.head.args) {
      values.push_back(*ndlog::eval_term(*arg.term, empty));
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
