// Per-predicate catalog facts that both distributed runtimes consult on every
// routed or installed tuple, memoized once per predicate, and the hashed
// keyed-overwrite index built on them. runtime::NodeCore, which
// runtime::Simulator and net::Node both run, keys its overwrite slots with
// it.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ndlog/catalog.hpp"
#include "ndlog/tuple.hpp"

namespace fvn::runtime {

/// Catalog facts for one predicate.
struct PredInfo {
  std::size_t loc_index = 0;
  std::optional<double> lifetime;
  bool transient = false;  ///< lifetime 0: evaluated on delivery, never installed
  /// Declared 1-based key fields; null or empty = the whole tuple is the key.
  const std::vector<std::size_t>* key_fields = nullptr;
  /// Hash of the predicate name, computed once; seeds every key hash.
  std::size_t name_hash = 0;
};

/// PredInfo per predicate, resolved from the catalog on first use. The
/// catalog must outlive the table; it is immutable after construction, so
/// cached entries (and their key_fields pointers) never go stale, and an
/// entry's address is fixed for the table's lifetime.
class PredTable {
 public:
  explicit PredTable(const ndlog::Catalog& catalog) : catalog_(&catalog) {}

  const PredInfo& info(const std::string& predicate) const;
  /// The address at the tuple's location attribute. Throws
  /// ndlog::AnalysisError when that attribute is missing or not an address.
  const std::string& location_of(const ndlog::Tuple& tuple) const {
    return location(tuple).text();
  }
  /// The same address as its interned symbol.
  const ndlog::Symbol& location(const ndlog::Tuple& tuple) const;

 private:
  const ndlog::Catalog* catalog_;
  mutable std::unordered_map<std::string, PredInfo> cache_;
};

/// One keyed-overwrite slot (P2 `materialize(..., keys(...))`): the row that
/// fills it, its predicate's facts, and the hash of its key, computed once.
/// Two rows share a slot exactly when they have the same predicate and
/// arity and agree on every declared key field (key fields past the arity
/// are ignored), or on every field when none are declared.
struct KeyedRow {
  KeyedRow(const ndlog::Tuple& tuple, const PredInfo& info);

  /// In an index, the row the node stores. Repointing it at another row
  /// with the same key leaves the slot's hash and identity as they were.
  mutable const ndlog::Tuple* row;
  /// Resolved through the index's one PredTable, so equal predicates have
  /// the same address.
  const PredInfo* info;
  std::size_t hash;
};

struct KeyHash {
  std::size_t operator()(const KeyedRow& k) const noexcept { return k.hash; }
};

struct KeyEq {
  bool operator()(const KeyedRow& a, const KeyedRow& b) const;
};

/// A node's keyed-overwrite index: one entry per occupied slot, pointing at
/// the row stored in the node's ndlog::Database, so an install costs one
/// probe and no row is stored twice. An entry must leave the index before
/// its row leaves the database. The index is never iterated, so its order
/// is never observable.
using KeyIndex = std::unordered_set<KeyedRow, KeyHash, KeyEq>;

}  // namespace fvn::runtime
