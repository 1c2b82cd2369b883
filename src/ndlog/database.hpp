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
  /// Insert; returns the stored row when the tuple was new, null when it was
  /// already present. The row stays put until it is erased (the relation's
  /// nodes are stable), so callers may keep the pointer as a handle.
  const Tuple* insert(const Tuple& tuple);
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

  /// Deterministic dump of all tuples, sorted (tests/goldens).
  std::vector<std::string> dump() const;

 private:
  using ColumnIndex = std::unordered_map<Value, std::vector<const Tuple*>, ValueHash>;
  /// One relation and the column indexes built over it, so a write visits
  /// only its own predicate's indexes.
  struct Relation {
    TupleSet rows;
    std::vector<std::pair<std::size_t, ColumnIndex>> indexes;  // (column, index)
  };

  /// Mutable: a lookup builds its index lazily, and a lookup on a predicate
  /// with no rows yet creates the empty relation that index is kept in.
  mutable std::map<std::string, Relation> relations_;
  static const TupleSet kEmpty;
  static const std::vector<const Tuple*> kNoMatches;
};

}  // namespace fvn::ndlog
