#include "ltl/monitor.hpp"

#include <algorithm>
#include <cmath>
#include <deque>
#include <sstream>

namespace fvn::ltl {

std::string_view to_string(TupleEvent::Kind kind) noexcept {
  switch (kind) {
    case TupleEvent::Kind::Install: return "install";
    case TupleEvent::Kind::Retract: return "retract";
    case TupleEvent::Kind::Expire: return "expire";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Monitor
// ---------------------------------------------------------------------------

Monitor::Monitor(const Property& property)
    : name_(property.name), formula_(property.formula->to_string()) {
  const NnfPtr nnf = to_nnf(property.formula, aps_, /*negated=*/false);
  buchi_ = build_buchi(nnf, aps_.aps.size());
  match_count_.assign(aps_.aps.size(), 0);

  // Initial letter: empty stores (no pattern matches), stable bits all true.
  Valuation v0 = 0;
  for (std::size_t i = 0; i < aps_.aps.size(); ++i) {
    if (aps_.aps[i].is_stable) v0 |= Valuation{1} << i;
  }
  for (std::size_t q : buchi_.initial) {
    if (buchi_.states[q].admits(v0)) subset_.push_back(q);
  }
  std::sort(subset_.begin(), subset_.end());
  if (subset_.empty()) violated_ = true;  // unsatisfiable from the start
}

Valuation Monitor::pattern_valuation() const {
  Valuation v = 0;
  for (std::size_t i = 0; i < aps_.aps.size(); ++i) {
    if (!aps_.aps[i].is_stable && match_count_[i] > 0) v |= Valuation{1} << i;
  }
  return v;
}

void Monitor::on_event(TupleEvent::Kind kind, const ndlog::Tuple& tuple) {
  ++events_;
  if (violated_) return;

  const std::int64_t delta = kind == TupleEvent::Kind::Install ? 1 : -1;
  for (std::size_t i = 0; i < aps_.aps.size(); ++i) {
    const ApSet::Ap& ap = aps_.aps[i];
    if (ap.is_stable) continue;
    if (ap.pattern.matches(tuple)) match_count_[i] += delta;
  }

  Valuation v = pattern_valuation();
  for (std::size_t i = 0; i < aps_.aps.size(); ++i) {
    const ApSet::Ap& ap = aps_.aps[i];
    // A relation is stable across this step iff the event did not touch it.
    if (ap.is_stable && ap.pred != tuple.predicate()) v |= Valuation{1} << i;
  }

  live_.assign(buchi_.states.size(), 0);
  for (std::size_t q : subset_) {
    for (std::size_t q2 : buchi_.states[q].succs) {
      if (buchi_.states[q2].admits(v)) live_[q2] = 1;
    }
  }
  subset_.clear();
  for (std::size_t q = 0; q < live_.size(); ++q) {
    if (live_[q]) subset_.push_back(q);
  }
  if (subset_.empty()) {
    violated_ = true;
    violation_event_ = events_;
  }
}

bool Monitor::finish() const {
  if (violated_) return false;

  // Stutter extension: the final valuation (current patterns, all relations
  // stable) repeats forever. Satisfied iff some current subset state can step
  // into the sub-automaton restricted to states admitting that valuation and
  // reach an accepting cycle inside it.
  Valuation v = pattern_valuation();
  for (std::size_t i = 0; i < aps_.aps.size(); ++i) {
    if (aps_.aps[i].is_stable) v |= Valuation{1} << i;
  }
  auto allowed = [&](std::size_t q) { return buchi_.states[q].admits(v); };

  // Frontier after reading the first stutter letter.
  std::vector<char> reach(buchi_.states.size(), 0);
  std::deque<std::size_t> frontier;
  for (std::size_t q : subset_) {
    for (std::size_t q2 : buchi_.states[q].succs) {
      if (allowed(q2) && !reach[q2]) {
        reach[q2] = 1;
        frontier.push_back(q2);
      }
    }
  }
  while (!frontier.empty()) {
    const std::size_t q = frontier.front();
    frontier.pop_front();
    for (std::size_t q2 : buchi_.states[q].succs) {
      if (allowed(q2) && !reach[q2]) {
        reach[q2] = 1;
        frontier.push_back(q2);
      }
    }
  }

  // Accepting cycle inside the restricted reachable set?
  for (std::size_t f = 0; f < buchi_.states.size(); ++f) {
    if (!reach[f] || !buchi_.states[f].accepting) continue;
    std::vector<char> seen(buchi_.states.size(), 0);
    std::deque<std::size_t> work;
    for (std::size_t q2 : buchi_.states[f].succs) {
      if (allowed(q2) && !seen[q2]) {
        seen[q2] = 1;
        work.push_back(q2);
      }
    }
    while (!work.empty()) {
      const std::size_t q = work.front();
      work.pop_front();
      if (q == f) return true;
      for (std::size_t q2 : buchi_.states[q].succs) {
        if (allowed(q2) && !seen[q2]) {
          seen[q2] = 1;
          work.push_back(q2);
        }
      }
    }
  }
  return false;
}

// ---------------------------------------------------------------------------
// MonitorSet
// ---------------------------------------------------------------------------

MonitorSet::MonitorSet(const Spec& spec) {
  monitors_.reserve(spec.properties.size());
  for (const auto& property : spec.properties) monitors_.emplace_back(property);
}

void MonitorSet::on_event(TupleEvent::Kind kind, const ndlog::Tuple& tuple) {
  ++events_;
  for (auto& m : monitors_) m.on_event(kind, tuple);
}

std::vector<MonitorVerdict> MonitorSet::finish() const {
  std::vector<MonitorVerdict> out;
  out.reserve(monitors_.size());
  for (const auto& m : monitors_) {
    MonitorVerdict v;
    v.property = m.name();
    v.formula = m.formula();
    v.satisfied = m.finish();
    v.fired = m.violated();
    v.violation_event = m.violation_event();
    out.push_back(std::move(v));
  }
  return out;
}

bool MonitorSet::all_satisfied() const {
  for (const auto& m : monitors_) {
    if (!m.finish()) return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Event-stream decoding
// ---------------------------------------------------------------------------

TupleEvent tuple_event(std::string_view kind, const std::string& node,
                       const ndlog::Tuple& tuple, double now) {
  TupleEvent e;
  e.kind = event_kind(kind);
  e.node = node;
  e.tuple = tuple;
  e.ts_us = static_cast<std::uint64_t>(std::llround(now * 1e6));
  return e;
}

TupleEvent::Kind event_kind(std::string_view kind) noexcept {
  return kind == "install"   ? TupleEvent::Kind::Install
         : kind == "retract" ? TupleEvent::Kind::Retract
                             : TupleEvent::Kind::Expire;
}

std::string render_verdicts(const std::vector<MonitorVerdict>& verdicts) {
  std::ostringstream os;
  for (const auto& v : verdicts) {
    os << "monitor " << v.property << ": " << v.formula << " — "
       << (v.satisfied ? "SATISFIED" : "VIOLATED");
    if (v.fired) os << " (fired at event " << v.violation_event << ")";
    os << "\n";
  }
  return os.str();
}

}  // namespace fvn::ltl
