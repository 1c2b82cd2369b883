// Parallel-safety analysis (DESIGN.md §16): certify, per stratum, a shard
// key per derived predicate such that hash-partitioned evaluation of a delta
// round stays shard-local — every join probe against a same-stratum derived
// predicate, every local head install, and every aggregate group lands in
// the shard that owns the delta. The certificate is a static result (`fvn_cli
// analyze --parallel`): no runtime executes shard-parallel rounds.
//
//   ND0022  certified shard plan   note: the chosen key per predicate
//   ND0023  key-misaligned join    a body atom carries the wrong variable at
//                                  every candidate shard column; the group
//                                  falls back to location sharding (or serial)
//   ND0024  cross-shard aggregate  an aggregate's input is sharded by an
//                                  attribute absent from the group-by; the
//                                  rule is pinned to the serial barrier
//   ND0025  negation barrier       each negation is evaluated only at
//                                  stratum barriers; negation over a derived
//                                  predicate revokes the certificate
//
// The certificate argument (why shard-local groups + serial barriers would
// keep fixpoints bit-identical to the serial engine) is spelled out in
// DESIGN.md §16, with the measurement that retired the executor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "ndlog/ast.hpp"
#include "ndlog/diagnostics.hpp"

namespace fvn::ndlog::parallel {

/// How one rule group may be distributed across worker shards.
enum class GroupMode : std::uint8_t {
  ShardedByAttribute,  ///< common join attribute; true intra-node parallelism
  ShardedByLocation,   ///< location column; parallel across nodes' tuples only
  Serial,              ///< no consistent key — group runs on shard 0
};

std::string_view to_string(GroupMode mode) noexcept;

/// Chosen shard key for one derived predicate (0-based column).
struct ShardKey {
  int column = -1;
  /// True when `column` is the predicate's location-specifier position.
  bool location = false;
};

/// A connected component of rules within one stratum, linked by the
/// same-stratum derived predicates they read or write. Base predicates and
/// earlier strata are frozen during a round (replicated reads) and never
/// merge groups.
struct RuleGroup {
  int stratum = 0;
  std::vector<std::size_t> rules;    ///< indices into Program::rules, ascending
  std::set<std::string> predicates;  ///< same-stratum derived predicates
  GroupMode mode = GroupMode::Serial;
  std::string detail;                ///< human-readable narrative
};

/// Everything the parallel-safety passes computed.
struct Report {
  /// The program may run under the multi-worker engine: stratifiable, no
  /// predicted divergence, no order-sensitive negation, negations only over
  /// base predicates. Group modes refine the plan but never revoke this.
  bool certified = false;
  std::string fallback_reason;  ///< non-empty iff !certified
  int stratum_count = 0;
  std::vector<RuleGroup> groups;
  /// Shard key per derived predicate (every predicate of a non-Serial group).
  std::map<std::string, ShardKey> keys;
  /// Read-only relations during a round: base/extensional predicates.
  std::set<std::string> replicated;
  /// Rules pinned to the serial barrier by ND0024 (ascending, unique).
  std::vector<std::size_t> serial_rules;
  std::size_t negation_barriers = 0;  ///< ND0025 notes emitted
};

/// Run the parallel-safety analysis, reporting ND0022–ND0025 into `sink`.
/// Core-check failures (arity/safety/stratification) are absorbed into
/// `Report::fallback_reason` rather than re-reported — callers that want the
/// underlying diagnostics run lint/analyze first.
Report analyze(const Program& program, DiagnosticSink& sink);

/// Deterministic JSON object: certified, fallback_reason, strata, groups
/// (stratum/mode/rules/detail), keys (1-based columns), replicated,
/// serial_rules, negation_barriers.
std::string to_json(const Report& report);

/// Human-readable shard plan, one line per group plus the key table.
std::string to_human(const Report& report);

/// Graphviz DOT: one cluster per group (labelled with stratum and mode),
/// predicate nodes annotated with their shard key, replicated predicates
/// dashed.
std::string to_dot(const Program& program, const Report& report);

}  // namespace fvn::ndlog::parallel
