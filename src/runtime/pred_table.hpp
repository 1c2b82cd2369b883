// Per-predicate catalog facts that both distributed runtimes consult on every
// routed or installed tuple, memoized once per predicate, and the
// keyed-overwrite order built on them. runtime::Simulator and net::Node share
// both, so the two executives key their overwrite slots identically.
#pragma once

#include <cstddef>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
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
};

/// PredInfo per predicate, resolved from the catalog on first use. The
/// catalog must outlive the table; it is immutable after construction, so
/// cached entries (and their key_fields pointers) never go stale.
class PredTable {
 public:
  explicit PredTable(const ndlog::Catalog& catalog) : catalog_(&catalog) {}

  const PredInfo& info(const std::string& predicate) const;
  /// The address at the tuple's location attribute. Throws
  /// ndlog::AnalysisError when that attribute is missing or not an address.
  const std::string& location_of(const ndlog::Tuple& tuple) const;

 private:
  const ndlog::Catalog* catalog_;
  mutable std::unordered_map<std::string, PredInfo> cache_;
};

/// Keyed-overwrite identity order (P2 `materialize(..., keys(...))`): tuples
/// sort by predicate, then by their declared key fields, or by the whole
/// tuple when none are declared. Two tuples are equivalent exactly when one
/// overwrites the other. Values compare in place, so an install pays no
/// string rendering of its key.
struct TupleKeyLess {
  const PredTable* preds = nullptr;
  bool operator()(const ndlog::Tuple& a, const ndlog::Tuple& b) const;
};

/// One entry per keyed-overwrite slot; the element is the installed tuple.
using KeyIndex = std::set<ndlog::Tuple, TupleKeyLess>;

}  // namespace fvn::runtime
