#include "runtime/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "obs/json.hpp"
#include "runtime/localize.hpp"

namespace fvn::runtime {

using ndlog::Database;
using ndlog::Rule;
using ndlog::Tuple;
using ndlog::TupleSet;
using ndlog::Value;

namespace {

/// Simulated seconds -> trace microseconds (the virtual time base of the
/// exported Chrome trace).
std::uint64_t sim_ts(double seconds) {
  return seconds <= 0.0 ? 0 : static_cast<std::uint64_t>(seconds * 1e6);
}

/// Splitmix64: derives the loss RNG stream's seed from SimOptions::seed so
/// loss and jitter draws never share (and so never perturb) a stream.
std::uint64_t derive_loss_seed(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

/// The static checks every run needs, then the compiled plan every node
/// executes.
dataflow::Plan checked_plan(const ndlog::Program& program, const SimOptions& options,
                            const ndlog::BuiltinRegistry& builtins) {
  ndlog::check_arities(program);
  ndlog::check_safety(program, builtins);
  if (options.require_stratified) ndlog::stratify(program);
  dataflow::PlanOptions plan_options;
  plan_options.incremental_aggregates = options.incremental_aggregates;
  plan_options.cost_order = options.cost_order;
  return dataflow::compile(program, plan_options);
}

}  // namespace

Simulator::Simulator(ndlog::Program program, SimOptions options,
                     const ndlog::BuiltinRegistry& builtins)
    : program_(localize(program)),
      catalog_(ndlog::Catalog::from_program(program_)),
      options_(options),
      builtins_(&builtins),
      plan_(checked_plan(program_, options_, builtins)),
      preds_(catalog_),
      rng_(options.seed),
      loss_rng_(derive_loss_seed(options.seed)) {
  for (const auto& rule : program_.rules) {
    if (rule.is_fact()) {
      // Program-embedded ground facts are injected at t=0.
      ndlog::Bindings empty;
      std::vector<Value> values;
      for (const auto& arg : rule.head.args) {
        values.push_back(*ndlog::eval_term(*arg.term, empty, builtins));
      }
      inject(Tuple(rule.head.predicate, std::move(values)), 0.0);
      continue;
    }
    for (const auto& elem : rule.body) {
      if (const auto* ba = std::get_if<ndlog::BodyAtom>(&elem)) {
        if (ba->atom.predicate == "periodic") uses_periodic_ = true;
      }
    }
  }
}

void Simulator::add_node(const std::string& name) { state_of(name); }

Simulator::NodeState& Simulator::state_of(const std::string& node) {
  return node_states_.try_emplace(node, preds_, plan_.aggregates.size()).first->second;
}

void Simulator::set_link_delay(const std::string& from, const std::string& to,
                               double delay) {
  link_delays_[{from, to}] = delay;
}

void Simulator::schedule(Event event) {
  event.sequence = ++sequence_;
  queue_.push(std::move(event));
}

void Simulator::inject(const Tuple& fact, double time) {
  Event e;
  e.time = time;
  e.kind = Event::Kind::Deliver;
  e.node = preds_.location_of(fact);
  e.tuple = fact;
  add_node(e.node);
  schedule(std::move(e));
}

void Simulator::inject_all(const std::vector<Tuple>& facts, double time) {
  for (const auto& f : facts) inject(f, time);
}

void Simulator::retract(const Tuple& fact, double time) {
  Event e;
  e.time = time;
  e.kind = Event::Kind::Retract;
  e.node = preds_.location_of(fact);
  e.tuple = fact;
  schedule(std::move(e));
}

void Simulator::add_monitor(Monitor monitor) { monitors_.push_back(std::move(monitor)); }

dataflow::Engine& Simulator::flow(NodeState& state) {
  if (!state.flow) {
    state.flow = std::make_unique<dataflow::Engine>(plan_, *builtins_, options_.metrics);
  }
  return *state.flow;
}

void Simulator::tuple_event(std::string_view kind, const std::string& node,
                            const Tuple& tuple, double now) {
  if (options_.tuple_events) options_.tuple_events(kind, node, tuple, now);
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(
        sim_ts(now), std::string(kind) + " " + tuple.predicate(), "tuple",
        "{\"node\":\"" + obs::json_escape(node) + "\",\"tuple\":\"" +
            obs::json_escape(tuple.to_string()) + "\"}");
  }
}

bool Simulator::install(NodeState& state, const std::string& node, const Tuple& tuple,
                        double now) {
  const std::optional<double> lifetime = preds_.info(tuple.predicate()).lifetime;
  dataflow::Engine& engine = flow(state);
  auto it = state.by_key.find(tuple);
  bool changed = false;
  if (it == state.by_key.end()) {
    state.by_key.insert(tuple);
    state.db.insert(tuple);
    engine.on_insert(tuple, state.db);
    changed = true;
  } else if (!(*it == tuple)) {
    // Key overwrite (P2 materialize semantics).
    state.db.erase(*it);
    engine.on_erase(*it, state.db);
    tuple_event("retract", node, *it, now);
    state.expires_at.erase(*it);
    auto slot = state.by_key.extract(it);
    slot.value() = tuple;  // same key fields: the set's order is undisturbed
    state.by_key.insert(std::move(slot));
    state.db.insert(tuple);
    engine.on_insert(tuple, state.db);
    ++stats_.overwrites;
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sim/node/" + node + "/overwrites").add(1);
    }
    changed = true;
  }
  if (lifetime) {
    const double expiry = now + *lifetime;
    state.expires_at[tuple] = expiry;
    Event e;
    e.time = expiry;
    e.kind = Event::Kind::Expire;
    e.node = node;
    e.tuple = tuple;
    schedule(std::move(e));
  }
  if (changed) {
    ++stats_.tuples_derived;
    stats_.last_change_time = now;
    stats_.last_change_by_predicate[tuple.predicate()] = now;
    if (options_.record_trace) {
      trace_.push_back(TraceEntry{now, TraceEntry::Kind::Install, node, tuple.to_string()});
    }
    if (options_.metrics != nullptr) {
      options_.metrics->counter("sim/node/" + node + "/installed").add(1);
    }
    if (options_.obs_trace != nullptr) {
      options_.obs_trace->instant_at(sim_ts(now), "install " + tuple.predicate(), "sim",
                                     "{\"node\":\"" + obs::json_escape(node) + "\"}");
      options_.obs_trace->counter_at(sim_ts(now), "sim/installs", "sim",
                                     static_cast<double>(stats_.tuples_derived));
    }
    tuple_event("install", node, tuple, now);
    for (const auto& m : monitors_) {
      if (!m(node, tuple, now)) ++stats_.monitor_violations;
    }
  }
  return changed;
}

void Simulator::send(const std::string& from, const Tuple& tuple, double now) {
  const std::string& to = preds_.location_of(tuple);
  ++stats_.messages_sent;
  if (options_.record_trace) {
    trace_.push_back(
        TraceEntry{now, TraceEntry::Kind::Send, from, tuple.to_string() + " -> " + to});
  }
  if (options_.metrics != nullptr) {
    options_.metrics->counter("sim/node/" + from + "/sent").add(1);
  }
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(sim_ts(now), "send " + tuple.predicate(), "sim",
                                   "{\"from\":\"" + obs::json_escape(from) +
                                       "\",\"to\":\"" + obs::json_escape(to) + "\"}");
  }
  if (options_.loss_rate > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(loss_rng_) < options_.loss_rate) {
      ++stats_.messages_dropped;
      if (options_.metrics != nullptr) {
        options_.metrics->counter("sim/node/" + from + "/dropped").add(1);
      }
      return;
    }
  }
  double delay = options_.default_link_delay;
  auto it = link_delays_.find({from, to});
  if (it != link_delays_.end()) delay = it->second;
  if (options_.delay_jitter > 0.0) {
    std::uniform_real_distribution<double> j(0.0, options_.delay_jitter);
    delay *= 1.0 + j(rng_);
  }
  Event e;
  e.time = now + delay;
  e.kind = Event::Kind::Deliver;
  e.node = to;
  e.tuple = tuple;
  schedule(std::move(e));
}

void Simulator::run_rules(const std::string& node, const Tuple& delta, double now) {
  NodeState& state = state_of(node);
  std::vector<Tuple> produced;
  flow(state).process(delta, state.db, produced);
  for (auto& t : produced) {
    if (preds_.location_of(t) == node) {
      deliver(node, t, now, /*transient=*/false);
    } else {
      send(node, t, now);
    }
  }
}

void Simulator::run_agg_rules(const std::string& node, double now) {
  // Same rule order, same diff-against-cache flow and same emission order
  // as the centralized evaluator's eval_agg_rule (the engine builds each
  // output set by the same sorted-group insertion sequence), except the
  // output view comes from incrementally maintained group state instead of
  // a full recompute.
  NodeState& state = state_of(node);
  dataflow::Engine& engine = flow(state);
  for (std::size_t i = 0; i < plan_.aggregates.size(); ++i) {
    auto maybe_outputs = engine.flush_aggregate(i, state.db);
    if (!maybe_outputs) continue;  // provably unchanged since the last flush
    TupleSet outputs = std::move(*maybe_outputs);
    TupleSet& prev = state.agg_cache[i];
    if (outputs == prev) continue;
    // Incremental view maintenance: retract groups that disappeared or whose
    // aggregate value changed, then install/ship the new rows.
    for (const auto& old_row : prev) {
      if (outputs.count(old_row)) continue;
      if (preds_.location_of(old_row) != node) continue;  // remote copies age out
      if (state.db.erase(old_row)) {
        engine.on_erase(old_row, state.db);
        state.by_key.erase(old_row);
        state.expires_at.erase(old_row);
        stats_.last_change_time = now;
        tuple_event("retract", node, old_row, now);
      }
    }
    std::vector<Tuple> added;
    for (const auto& row : outputs) {
      if (!prev.count(row)) added.push_back(row);
    }
    prev = std::move(outputs);
    for (const auto& t : added) {
      if (preds_.location_of(t) != node) {
        send(node, t, now);
      } else if (install(state, node, t, now)) {
        run_rules(node, t, now);
      }
    }
  }
}

bool Simulator::is_transient(const Tuple& tuple) const {
  if (tuple.predicate() == "periodic") return true;
  return preds_.info(tuple.predicate()).transient;
}

void Simulator::deliver(const std::string& node, const Tuple& tuple, double now,
                        bool transient) {
  // A duplicate install changes nothing, so there is nothing to re-derive.
  if (!transient && !install(state_of(node), node, tuple, now)) return;
  run_rules(node, tuple, now);
  run_agg_rules(node, now);
}

SimStats Simulator::run() {
  assert(!ran_ && "Simulator::run may be called once");
  ran_ = true;

  // Periodic event pre-scheduling.
  if (uses_periodic_ && options_.max_periodic_rounds > 0) {
    // Nodes known at start: everything referenced by queued events.
    std::vector<std::string> names;
    for (const auto& [name, state] : node_states_) names.push_back(name);
    for (const auto& name : names) {
      for (std::size_t k = 1; k <= options_.max_periodic_rounds; ++k) {
        Event e;
        e.time = static_cast<double>(k) * options_.periodic_interval;
        e.kind = Event::Kind::Periodic;
        e.node = name;
        e.tuple = Tuple("periodic", {Value::addr(name), Value::real(options_.periodic_interval)});
        schedule(std::move(e));
      }
    }
  }

  while (!queue_.empty()) {
    Event e = queue_.top();
    queue_.pop();
    if (e.time > options_.max_time || stats_.events_processed >= options_.max_events) {
      stats_.end_time = e.time;
      stats_.quiesced = false;
      return stats_;
    }
    ++stats_.events_processed;
    stats_.end_time = e.time;
    if (options_.metrics != nullptr) {
      // +1: the event just popped is still in flight conceptually.
      options_.metrics->histogram("sim/queue_depth").observe(queue_.size() + 1);
    }
    if (options_.obs_trace != nullptr) {
      options_.obs_trace->counter_at(sim_ts(e.time), "sim/queue_depth", "sim",
                                     static_cast<double>(queue_.size() + 1));
    }
    NodeState& state = state_of(e.node);
    switch (e.kind) {
      case Event::Kind::Deliver: {
        if (options_.metrics != nullptr) {
          options_.metrics->counter("sim/node/" + e.node + "/received").add(1);
        }
        deliver(e.node, e.tuple, e.time, is_transient(e.tuple));
        break;
      }
      case Event::Kind::Periodic:
        deliver(e.node, e.tuple, e.time, /*transient=*/true);
        break;
      case Event::Kind::Expire: {
        auto it = state.expires_at.find(e.tuple);
        // Only expire if this event corresponds to the latest refresh.
        if (it != state.expires_at.end() && it->second <= e.time + 1e-12) {
          state.expires_at.erase(it);
          if (state.db.erase(e.tuple)) {
            flow(state).on_erase(e.tuple, state.db);
            tuple_event("expire", e.node, e.tuple, e.time);
          }
          state.by_key.erase(e.tuple);
          ++stats_.expirations;
          stats_.last_change_time = e.time;
          if (options_.record_trace) {
            trace_.push_back(TraceEntry{e.time, TraceEntry::Kind::Expire, e.node,
                                        e.tuple.to_string()});
          }
          if (options_.metrics != nullptr) {
            options_.metrics->counter("sim/node/" + e.node + "/expired").add(1);
          }
          if (options_.obs_trace != nullptr) {
            options_.obs_trace->instant_at(sim_ts(e.time), "expire " + e.tuple.predicate(),
                                           "sim");
          }
        }
        break;
      }
      case Event::Kind::Retract: {
        if (state.db.erase(e.tuple)) {
          flow(state).on_erase(e.tuple, state.db);
          state.by_key.erase(e.tuple);
          state.expires_at.erase(e.tuple);
          stats_.last_change_time = e.time;
          tuple_event("retract", e.node, e.tuple, e.time);
        }
        break;
      }
    }
  }
  stats_.quiesced = true;
  return stats_;
}

const Database& Simulator::database(const std::string& node) const {
  static const Database empty;
  auto it = node_states_.find(node);
  return it == node_states_.end() ? empty : it->second.db;
}

Database Simulator::merged_database() const {
  Database out;
  for (const auto& [name, state] : node_states_) {
    for (const auto& pred : state.db.predicates()) {
      for (const auto& t : state.db.relation(pred)) out.insert(t);
    }
  }
  return out;
}

std::vector<std::string> Simulator::nodes() const {
  std::vector<std::string> out;
  for (const auto& [name, state] : node_states_) out.push_back(name);
  return out;
}

}  // namespace fvn::runtime
