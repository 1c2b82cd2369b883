#include "dataflow/engine.hpp"

#include <algorithm>
#include <functional>
#include <utility>

namespace fvn::dataflow {

using ndlog::Database;
using ndlog::Tuple;
using ndlog::Value;

namespace {

void bump(obs::Counter* c) {
  if (c != nullptr) c->add(1);
}

}  // namespace

Engine::Engine(const Plan& plan, obs::Registry* metrics)
    : plan_(&plan), metrics_(metrics) {
  strand_obs_.reserve(plan.strands.size());
  for (const auto& s : plan.strands) strand_obs_.push_back(series_of(s));
  agg_.resize(plan.aggregates.size());
  agg_obs_.resize(plan.aggregates.size());
  for (std::size_t i = 0; i < plan.aggregates.size(); ++i) {
    for (const auto& s : plan.aggregates[i].strands) {
      agg_obs_[i].push_back(series_of(s));
    }
  }
}

Engine::StrandObs Engine::series_of(const Strand& strand) const {
  StrandObs obs(strand.elements.size());
  if (metrics_ == nullptr) return obs;
  const std::string base = "dataflow/elem/" + strand.rule_label + "[d" +
                           std::to_string(strand.delta_position) + "]/";
  for (std::size_t i = 0; i < strand.elements.size(); ++i) {
    obs[i].in = &metrics_->counter(base + strand.elements[i].id + "/in");
    obs[i].out = &metrics_->counter(base + strand.elements[i].id + "/out");
  }
  return obs;
}

bool Engine::match(const Element& element, const Tuple& tuple) {
  const std::vector<Value>& values = tuple.values();  // one load of the shared row
  if (values.size() != element.arity) return false;
  for (const auto& step : element.steps) {
    const Value& v = values.at(step.pos);
    switch (step.kind) {
      case ArgStep::Kind::Bind:
        regs_[static_cast<std::size_t>(step.slot)] = v;
        break;
      case ArgStep::Kind::TestSlot:
        if (!(regs_[static_cast<std::size_t>(step.slot)] == v)) return false;
        break;
      case ArgStep::Kind::TestExpr:
        if (!(step.expr.eval(regs_) == v)) return false;
        break;
    }
  }
  return true;
}

void Engine::exec(RunCtx& ctx, std::size_t ei) {
  const Element& e = ctx.strand->elements[ei];
  const ElemObs& obs = (*ctx.obs)[ei];
  bump(obs.in);
  switch (e.kind) {
    case Element::Kind::Delta: {
      ++stats_.probes;
      if (!match(e, *ctx.delta)) return;
      bump(obs.out);
      exec(ctx, ei + 1);
      return;
    }
    case Element::Kind::IndexJoin: {
      const Value key = e.probe.eval(regs_);
      // The lookup reference is stable here: strand execution never mutates
      // the database (produced tuples are buffered by the executive).
      const auto& bucket =
          ctx.db->lookup(e.predicate, static_cast<std::size_t>(e.probe_pos), key);
      for (const Tuple* tuple : bucket) {
        ++stats_.probes;
        if (!match(e, *tuple)) continue;
        bump(obs.out);
        exec(ctx, ei + 1);
      }
      return;
    }
    case Element::Kind::Scan: {
      for (const Tuple& tuple : ctx.db->relation(e.predicate)) {
        ++stats_.probes;
        if (!match(e, tuple)) continue;
        bump(obs.out);
        exec(ctx, ei + 1);
      }
      return;
    }
    case Element::Kind::Bind: {
      regs_[static_cast<std::size_t>(e.slot)] = e.rhs.eval(regs_);
      bump(obs.out);
      exec(ctx, ei + 1);
      return;
    }
    case Element::Kind::Select: {
      if (!ndlog::compare(e.cmp, e.lhs.eval(regs_),
                          e.rhs.eval(regs_))) {
        return;
      }
      bump(obs.out);
      exec(ctx, ei + 1);
      return;
    }
    case Element::Kind::NegProbe: {
      std::vector<Value> values;
      values.reserve(e.args.size());
      for (const auto& a : e.args) values.push_back(a.eval(regs_));
      if (ctx.db->contains(Tuple(e.predicate, std::move(values)))) return;
      bump(obs.out);
      exec(ctx, ei + 1);
      return;
    }
    case Element::Kind::Project: {
      std::vector<Value> values;
      values.reserve(e.head_args.size());
      for (const auto& a : e.head_args) values.push_back(a.eval(regs_));
      bump(obs.out);
      // The Demux element is the strand terminal: count the routed tuple and
      // hand it to the executive (which resolves the location specifier).
      const ElemObs& demux = (*ctx.obs)[ei + 1];
      bump(demux.in);
      bump(demux.out);
      ctx.out->push_back(Tuple(e.head_predicate, std::move(values)));
      ++stats_.tuples_emitted;
      return;
    }
    case Element::Kind::Aggregate: {
      std::vector<Value> key;
      key.reserve(e.head_args.size());
      for (std::size_t i = 0; i < e.head_args.size(); ++i) {
        if (i == e.agg_pos) {
          key.push_back(Value::nil());
        } else {
          key.push_back(e.head_args[i].eval(regs_));
        }
      }
      const Value& v = regs_[static_cast<std::size_t>(e.agg_slot)];
      if (ctx.dirty_keys != nullptr) ctx.dirty_keys->push_back(key);
      const auto git = ctx.groups->try_emplace(std::move(key)).first;
      auto& group = git->second;
      auto it = group.emplace(v, 0).first;
      it->second += ctx.sign;
      if (it->second <= 0) group.erase(it);
      if (group.empty()) ctx.groups->erase(git);
      ++stats_.agg_updates;
      bump(obs.out);
      return;
    }
    case Element::Kind::Demux:
      // Reached only via Project (handled there); nothing to do.
      return;
  }
}

void Engine::run_strand(const Strand& strand, const StrandObs& obs, const Tuple& delta,
                        const Database& db, std::vector<Tuple>* out, GroupState* groups,
                        int sign, std::vector<GroupKey>* dirty_keys) {
  if (strand.dead || strand.elements.empty()) return;
  if (regs_.size() < strand.nslots) regs_.resize(strand.nslots);
  RunCtx ctx;
  ctx.strand = &strand;
  ctx.obs = &obs;
  ctx.delta = &delta;
  ctx.db = &db;
  ctx.out = out;
  ctx.groups = groups;
  ctx.dirty_keys = dirty_keys;
  ctx.sign = sign;
  exec(ctx, 0);
}

void Engine::process(const Tuple& delta, const Database& db, std::vector<Tuple>& out) {
  ++stats_.deltas_processed;
  const int id = plan_->pred_id(delta.predicate());
  if (id < 0) return;
  for (std::size_t si : plan_->strands_by_id[static_cast<std::size_t>(id)]) {
    run_strand(plan_->strands[si], strand_obs_[si], delta, db, &out, nullptr, +1);
  }
}

void Engine::touch(const Tuple& tuple, int sign, const Database& db) {
  const int id = plan_->pred_id(tuple.predicate());
  if (id < 0) return;
  const auto uid = static_cast<std::size_t>(id);
  for (std::size_t ai : plan_->aggregates_by_id[uid]) agg_[ai].dirty = true;
  for (const auto& [ai, si] : plan_->agg_strands_by_id[uid]) {
    const AggregateRulePlan& ap = plan_->aggregates[ai];
    if (!ap.incremental) continue;
    run_strand(ap.strands[si], agg_obs_[ai][si], tuple, db, nullptr, &agg_[ai].groups,
               sign, &agg_[ai].dirty_keys);
  }
}

void Engine::on_insert(const Tuple& tuple, const Database& db) { touch(tuple, +1, db); }

void Engine::on_erase(const Tuple& tuple, const Database& db) { touch(tuple, -1, db); }

Value Engine::aggregate_value(const AggregateRulePlan& ap,
                              const std::map<Value, std::int64_t>& group) {
  switch (ap.kind) {
    case ndlog::AggKind::Min:
      return group.begin()->first;
    case ndlog::AggKind::Max:
      return group.rbegin()->first;
    case ndlog::AggKind::Count:
      return Value::integer(static_cast<std::int64_t>(group.size()));
    case ndlog::AggKind::Sum: {
      Value total = Value::integer(0);
      for (const auto& [v, n] : group) total = total.add(v);
      return total;
    }
  }
  return Value::nil();  // unreachable: all AggKind cases covered above
}

bool Engine::flush_aggregate(std::size_t index, const Database& db,
                             std::vector<AggDelta>& out) {
  const AggregateRulePlan& ap = plan_->aggregates[index];
  AggState& state = agg_[index];
  out.clear();
  if (!state.dirty) return false;  // provably unchanged since the last flush
  // Clear before diffing: mutations the caller performs while applying this
  // flush's deltas (aggregate-row erasures, recursive installs) re-dirty the
  // rule for the next flush.
  state.dirty = false;
  const ndlog::Rule& rule = plan_->program.rules[ap.rule_index];
  // Recompute plans: the whole view, and every group it or the last flush
  // holds is a candidate.
  std::unordered_map<GroupKey, Value, ndlog::ValuesHash> view;
  auto& dirty = state.dirty_keys;
  if (!ap.incremental) {
    fallback_.eval_agg_rule(rule, db, [&](Tuple t) {
      GroupKey key = t.values();
      Value v = std::exchange(key[ap.agg_pos], Value::nil());
      dirty.push_back(key);
      view.emplace(std::move(key), std::move(v));
    });
    for (const auto& [key, v] : state.emitted) dirty.push_back(key);
  }
  // Strictly increasing group-key order. The sort is stable so that of
  // equal keys (-0.0 and 0.0) the first touched stays, as in a std::set.
  if (dirty.size() > 1) {
    std::stable_sort(dirty.begin(), dirty.end());
    dirty.erase(std::unique(dirty.begin(), dirty.end()), dirty.end());
  }
  for (const auto& key : dirty) {
    std::optional<Value> now;
    if (ap.incremental) {
      if (auto git = state.groups.find(key); git != state.groups.end()) {
        now = aggregate_value(ap, git->second);
      }
    } else if (auto vit = view.find(key); vit != view.end()) {
      now = vit->second;
    }
    auto eit = state.emitted.find(key);
    AggDelta delta;
    if (eit != state.emitted.end()) {
      if (now.has_value() && *now == eit->second) continue;  // value unmoved
      std::vector<Value> values = key;
      values[ap.agg_pos] = eit->second;
      delta.retract = Tuple(rule.head.predicate, std::move(values));
    } else if (!now.has_value()) {
      continue;  // appeared and vanished between flushes: never emitted
    }
    if (now.has_value()) {
      std::vector<Value> values = key;
      values[ap.agg_pos] = *now;
      delta.assert_now = Tuple(rule.head.predicate, std::move(values));
      if (eit != state.emitted.end()) {
        eit->second = *now;
      } else {
        state.emitted.emplace(key, *now);
      }
    } else {
      state.emitted.erase(eit);
    }
    out.push_back(std::move(delta));
  }
  dirty.clear();
  return !out.empty();
}

}  // namespace fvn::dataflow
