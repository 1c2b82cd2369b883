#include "runtime/simulator.hpp"

#include <algorithm>
#include <cassert>

#include "obs/json.hpp"
#include "runtime/localize.hpp"

namespace fvn::runtime {

using ndlog::Database;
using ndlog::Tuple;
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

}  // namespace

Simulator::Simulator(ndlog::Program program, SimOptions options)
    : program_(localize(program)),
      catalog_(ndlog::Catalog::from_program(program_)),
      options_(options),
      plan_(checked_plan(program_, options.require_stratified,
                         {options.incremental_aggregates, options.cost_order})),
      preds_(catalog_),
      layers_(options.metrics != nullptr ? std::make_unique<LayerClock>() : nullptr),
      rng_(options.seed),
      loss_rng_(derive_loss_seed(options.seed)),
      uses_periodic_(uses_periodic(program_)) {
  // Program-embedded ground facts are injected at t=0.
  for (const auto& fact : embedded_facts(program_)) inject(fact, 0.0);
}

Simulator::Node::Node(Simulator& sim, const std::string& name)
    : core(name, sim.plan_, sim.preds_, sim.options_.metrics,
           [&sim, this](const NodeCore&, NodeCore::Change change, const Tuple& tuple) {
             sim.on_change(*this, change, tuple);
           },
           sim.layers_.get()) {}

void Simulator::add_node(const std::string& name) { node_of(name); }

Simulator::Node& Simulator::node_of(const std::string& name) {
  auto it = nodes_.find(name);
  if (it != nodes_.end()) return it->second;
  Node& node = nodes_.try_emplace(name, *this, name).first->second;
  by_location_.emplace(&ndlog::Symbol::intern(name), &node);
  return node;
}

Simulator::Node& Simulator::node_at(const Tuple& tuple) {
  const ndlog::Symbol& at = preds_.location(tuple);
  const auto it = by_location_.find(&at);
  return it != by_location_.end() ? *it->second : node_of(at.text());
}

void Simulator::count(const Node& node, obs::Counter*& slot, std::string_view what) {
  if (options_.metrics == nullptr) return;
  if (slot == nullptr) {
    slot = &options_.metrics->counter("sim/node/" + node.core.name() + "/" + std::string(what));
  }
  slot->add(1);
}

void Simulator::set_link_delay(const std::string& from, const std::string& to,
                               double delay) {
  link_delays_[from][to] = delay;
}

void Simulator::schedule(double time, Event::Kind kind, Tuple tuple) {
  LayerClock::Scope scope(layers_.get(), LayerClock::Queue);
  queue_.push_back(Event{time, ++sequence_, kind, std::move(tuple)});
  std::push_heap(queue_.begin(), queue_.end(), std::greater<>{});
}

Simulator::Event Simulator::pop() {
  std::pop_heap(queue_.begin(), queue_.end(), std::greater<>{});
  Event e = std::move(queue_.back());
  queue_.pop_back();
  return e;
}

void Simulator::inject(const Tuple& fact, double time) {
  node_at(fact);  // a fact's node exists from its injection on
  schedule(time, Event::Kind::Deliver, fact);
}

void Simulator::inject_all(const std::vector<Tuple>& facts, double time) {
  for (const auto& f : facts) inject(f, time);
}

void Simulator::retract(const Tuple& fact, double time) {
  preds_.location(fact);  // throws here, not at the pop, for a fact with no address
  schedule(time, Event::Kind::Retract, fact);
}

void Simulator::tuple_event(std::string_view kind, const std::string& node,
                            const Tuple& tuple) {
  if (options_.tuple_events) options_.tuple_events(kind, node, tuple, now_);
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(
        sim_ts(now_), std::string(kind) + " " + tuple.predicate(), "tuple",
        "{\"node\":\"" + obs::json_escape(node) + "\",\"tuple\":\"" +
            obs::json_escape(tuple.to_string()) + "\"}");
  }
}

void Simulator::on_change(Node& target, NodeCore::Change change, const Tuple& tuple) {
  LayerClock::Scope scope(layers_.get(), LayerClock::Change);
  const std::string& node = target.core.name();
  switch (change) {
    case NodeCore::Change::Remote:
      send(target, tuple);
      return;
    case NodeCore::Change::Refresh:
      schedule(target.core.expiry(tuple), Event::Kind::Expire, tuple);
      return;
    case NodeCore::Change::Retract:
      stats_.last_change_time = now_;
      if (options_.record_trace) {
        trace_.push_back(TraceEntry{now_, TraceEntry::Kind::Retract, node, tuple.to_string()});
      }
      tuple_event("retract", node, tuple);
      return;
    case NodeCore::Change::Expire:
      tuple_event("expire", node, tuple);
      return;
    case NodeCore::Change::Install:
      break;
  }
  ++stats_.tuples_derived;
  stats_.last_change_time = now_;
  stats_.last_change_by_predicate[tuple.predicate()] = now_;
  if (options_.record_trace) {
    trace_.push_back(TraceEntry{now_, TraceEntry::Kind::Install, node, tuple.to_string()});
  }
  count(target, target.installed, "installed");
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->counter_at(sim_ts(now_), "sim/installs", "sim",
                                   static_cast<double>(stats_.tuples_derived));
  }
  tuple_event("install", node, tuple);
}

void Simulator::send(Node& sender, const Tuple& tuple) {
  const std::string& from = sender.core.name();
  const std::string& to = preds_.location_of(tuple);
  ++stats_.messages_sent;
  if (options_.record_trace) {
    trace_.push_back(
        TraceEntry{now_, TraceEntry::Kind::Send, from, tuple.to_string() + " -> " + to});
  }
  count(sender, sender.sent, "sent");
  if (options_.obs_trace != nullptr) {
    options_.obs_trace->instant_at(sim_ts(now_), "send " + tuple.predicate(), "sim",
                                   "{\"from\":\"" + obs::json_escape(from) +
                                       "\",\"to\":\"" + obs::json_escape(to) + "\"}");
  }
  if (options_.loss_rate > 0.0) {
    std::uniform_real_distribution<double> u(0.0, 1.0);
    if (u(loss_rng_) < options_.loss_rate) {
      ++stats_.messages_dropped;
      count(sender, sender.dropped, "dropped");
      return;
    }
  }
  double delay = options_.default_link_delay;
  if (auto by_from = link_delays_.find(from); by_from != link_delays_.end()) {
    auto it = by_from->second.find(to);
    if (it != by_from->second.end()) delay = it->second;
  }
  if (options_.delay_jitter > 0.0) {
    std::uniform_real_distribution<double> j(0.0, options_.delay_jitter);
    delay *= 1.0 + j(rng_);
  }
  schedule(now_ + delay, Event::Kind::Deliver, tuple);
}

SimStats Simulator::run() {
  assert(!ran_ && "Simulator::run may be called once");
  ran_ = true;
  if (layers_) {
    *layers_ = LayerClock{};  // time run() only, not the injections before it
    run_start_ = std::chrono::steady_clock::now();
  }

  // Periodic event pre-scheduling.
  if (uses_periodic_ && options_.max_periodic_rounds > 0) {
    // Nodes known at start: everything referenced by queued events.
    for (const auto& name : nodes()) {
      for (std::size_t k = 1; k <= options_.max_periodic_rounds; ++k) {
        schedule(static_cast<double>(k) * options_.periodic_interval, Event::Kind::Periodic,
                 Tuple("periodic", {Value::addr(name), Value::real(options_.periodic_interval)}));
      }
    }
  }

  stats_.quiesced = true;
  obs::Histogram* queue_depth = nullptr;  // sim/queue_depth, once an event ran
  while (!queue_.empty()) {
    LayerClock::Scope scope(layers_.get(), LayerClock::Queue);
    Event e = pop();
    if (e.time > options_.max_time || stats_.events_processed >= options_.max_events) {
      stats_.end_time = e.time;
      stats_.quiesced = false;
      break;
    }
    ++stats_.events_processed;
    stats_.end_time = e.time;
    now_ = e.time;
    if (options_.metrics != nullptr) {
      if (queue_depth == nullptr) queue_depth = &options_.metrics->histogram("sim/queue_depth");
      // +1: the event just popped is still in flight conceptually.
      queue_depth->observe(queue_.size() + 1);
    }
    if (options_.obs_trace != nullptr) {
      options_.obs_trace->counter_at(sim_ts(e.time), "sim/queue_depth", "sim",
                                     static_cast<double>(queue_.size() + 1));
    }
    Node& node = node_at(e.tuple);
    NodeCore& core = node.core;
    switch (e.kind) {
      case Event::Kind::Deliver:
        if (options_.record_trace) {
          trace_.push_back(
              TraceEntry{e.time, TraceEntry::Kind::Deliver, core.name(), e.tuple.to_string()});
        }
        count(node, node.received, "received");
        [[fallthrough]];
      case Event::Kind::Periodic:
        core.deliver(e.tuple, e.time);
        core.settle(e.time);
        break;
      case Event::Kind::Retract:
        core.retract(e.tuple);
        core.settle(e.time);
        break;
      case Event::Kind::Expire:
        // Only the event of the latest refresh expires the row.
        if (!core.expire(e.tuple, e.time)) break;
        ++stats_.expirations;
        stats_.last_change_time = e.time;
        if (options_.record_trace) {
          trace_.push_back(
              TraceEntry{e.time, TraceEntry::Kind::Expire, core.name(), e.tuple.to_string()});
        }
        count(node, node.expired, "expired");
        break;
    }
  }
  return finish();
}

SimStats& Simulator::finish() {
  for (const auto& [name, node] : nodes_) {
    const std::size_t overwrites = node.core.overwrites();
    stats_.overwrites += overwrites;
    if (options_.metrics != nullptr && overwrites > 0) {
      options_.metrics->counter("sim/node/" + name + "/overwrites").add(overwrites);
    }
  }
  if (layers_) {
    const auto wall = std::chrono::steady_clock::now() - run_start_;
    options_.metrics->timer("sim/run").record_ns(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(wall).count()));
    for (std::size_t i = 0; i < LayerClock::kNames.size(); ++i) {
      options_.metrics->timer(std::string("sim/layer/") + LayerClock::kNames[i])
          .record_ns(layers_->ns(static_cast<LayerClock::Layer>(i)));
    }
  }
  return stats_;
}

const Database& Simulator::database(const std::string& node) const {
  static const Database empty;
  auto it = nodes_.find(node);
  return it == nodes_.end() ? empty : it->second.core.database();
}

Database Simulator::merged_database() const {
  Database out;
  for (const auto& [name, node] : nodes_) merge_into(out, node.core.database());
  return out;
}

std::vector<std::string> Simulator::nodes() const {
  std::vector<std::string> out;
  for (const auto& [name, node] : nodes_) out.push_back(name);
  return out;
}

}  // namespace fvn::runtime
