// Runtime monitor compiler: lowers the same LTL property the model checker
// verifies into an online automaton over the live tuple-event stream of the
// simulator / fvn::net cluster (DESIGN.md §14.4).
//
// Lowering: build the Büchi automaton for φ itself (not ¬φ) and run a subset
// construction over the observed finite prefix. An empty subset means *no*
// run of the automaton reads the prefix — a bad prefix: no extension can
// satisfy φ, so the monitor fires a definite violation mid-run. At end of
// trace, finish() evaluates the stutter extension (the final state repeats
// forever, all stable() bits true): the property is satisfied iff some
// subset state can continue into an accepting cycle reading the final
// valuation forever.
//
// The monitor steps once per tuple event (install/retract/expire), a finer
// granularity than the model checker's one-step-per-message-delivery; the
// agreement argument for stutter-invariant formulas is in DESIGN.md §14.5.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "ltl/buchi.hpp"
#include "ltl/formula.hpp"

namespace fvn::ltl {

/// One engine-agnostic tuple lifecycle event: what a runtime's tuple-event
/// hook reports (the simulator also exports it as cat "tuple" obs instants).
struct TupleEvent {
  enum class Kind : std::uint8_t { Install, Retract, Expire };
  Kind kind = Kind::Install;
  std::string node;
  ndlog::Tuple tuple;
  std::uint64_t ts_us = 0;
};

std::string_view to_string(TupleEvent::Kind kind) noexcept;

/// The event one call of a runtime's tuple-event hook reports
/// (SimOptions::tuple_events / ClusterOptions::tuple_events): `kind` is
/// "install", "retract" or "expire" (anything else reads as "expire"), `now`
/// the hook's time in seconds, kept to the nearest microsecond.
TupleEvent tuple_event(std::string_view kind, const std::string& node,
                       const ndlog::Tuple& tuple, double now);

/// The TupleEvent::Kind of a hook's `kind`, read as tuple_event() reads it.
TupleEvent::Kind event_kind(std::string_view kind) noexcept;

/// Online monitor for one property. Feed events in trace order; `violated()`
/// flips to true at the first event after which no extension can satisfy the
/// property; `finish()` gives the end-of-trace verdict.
class Monitor {
 public:
  explicit Monitor(const Property& property);

  void on_event(TupleEvent::Kind kind, const ndlog::Tuple& tuple);

  /// Definite violation seen mid-trace (bad prefix).
  bool violated() const noexcept { return violated_; }
  /// 1-based ordinal of the violating event (0 = violated before any event).
  std::size_t violation_event() const noexcept { return violation_event_; }
  std::size_t events() const noexcept { return events_; }

  /// End-of-trace verdict under stutter extension; false iff the property is
  /// violated on the observed trace.
  bool finish() const;

  const std::string& name() const noexcept { return name_; }
  const std::string& formula() const noexcept { return formula_; }
  const ApSet& aps() const noexcept { return aps_; }

 private:
  Valuation pattern_valuation() const;

  std::string name_;
  std::string formula_;
  ApSet aps_;
  Buchi buchi_;
  std::vector<std::int64_t> match_count_;  // per pattern AP: stored matches
  std::vector<std::size_t> subset_;        // sorted live Büchi states
  std::vector<char> live_;                 // on_event scratch, one per state
  bool violated_ = false;
  std::size_t violation_event_ = 0;
  std::size_t events_ = 0;
};

/// Final verdict of one monitored property.
struct MonitorVerdict {
  std::string property;
  std::string formula;
  bool satisfied = true;
  /// True when the monitor fired mid-trace (bad prefix), with the event.
  bool fired = false;
  std::size_t violation_event = 0;
};

/// All properties of a spec monitored over one event stream.
class MonitorSet {
 public:
  explicit MonitorSet(const Spec& spec);

  void on_event(const TupleEvent& event) { on_event(event.kind, event.tuple); }
  /// The same step for a hook that holds the tuple (a runtime's
  /// tuple-event hook): nothing is copied.
  void on_event(TupleEvent::Kind kind, const ndlog::Tuple& tuple);
  std::vector<MonitorVerdict> finish() const;
  /// Convenience: all properties satisfied at end of trace?
  bool all_satisfied() const;
  std::size_t events() const noexcept { return events_; }

 private:
  std::vector<Monitor> monitors_;
  std::size_t events_ = 0;
};

/// Render verdicts for the CLI (one line per property).
std::string render_verdicts(const std::vector<MonitorVerdict>& verdicts);

}  // namespace fvn::ltl
