// In-memory relation store shared by the centralized evaluator and the
// per-node engines of the distributed runtime.
#pragma once

#include <unordered_map>
#include <utility>
#include <vector>
#include <map>
#include <string>

#include "ndlog/tuple.hpp"

namespace fvn::ndlog {

/// A set of named relations, each a duplicate-free tuple set, with lazily
/// built per-column hash indexes (maintained incrementally once built) that
/// the join engine probes instead of scanning.
class Database {
 public:
  /// Insert; returns true iff the tuple was new.
  bool insert(const Tuple& tuple);
  /// Remove; returns true iff the tuple was present.
  bool erase(const Tuple& tuple);
  bool contains(const Tuple& tuple) const;

  /// The relation for `predicate` (empty set if absent).
  const TupleSet& relation(const std::string& predicate) const;

  /// Tuples of `predicate` whose column `position` equals `value`. Builds
  /// the (predicate, position) index on first use; afterwards the index is
  /// maintained by insert/erase. Returned pointers are invalidated by writes.
  const std::vector<const Tuple*>& lookup(const std::string& predicate,
                                          std::size_t position,
                                          const Value& value) const;
  /// True if an index exists for (predicate, position) — test/bench hook.
  bool has_index(const std::string& predicate, std::size_t position) const;
  /// All predicates with at least one tuple.
  std::vector<std::string> predicates() const;

  std::size_t size(const std::string& predicate) const;
  std::size_t total_size() const;
  void clear();
  void clear_relation(const std::string& predicate);

  /// Deep snapshot (the runtime uses this for state hashing in the model
  /// checker and for convergence comparison).
  std::map<std::string, TupleSet> snapshot() const { return relations_; }

  /// Deterministic dump of all tuples, sorted (tests/goldens).
  std::vector<std::string> dump() const;

 private:
  using ColumnIndex = std::unordered_map<Value, std::vector<const Tuple*>, ValueHash>;

  std::map<std::string, TupleSet> relations_;
  /// (predicate, column) -> index. Mutable: built lazily from const lookups.
  mutable std::map<std::pair<std::string, std::size_t>, ColumnIndex> indexes_;
  static const TupleSet kEmpty;
  static const std::vector<const Tuple*> kNoMatches;

  /// Build the (predicate, position) index now if it does not exist yet
  /// (no-op otherwise).
  void ensure_index(const std::string& predicate, std::size_t position) const;
  void index_insert(const Tuple& stored);
  void index_erase(const Tuple& tuple);
};

}  // namespace fvn::ndlog
