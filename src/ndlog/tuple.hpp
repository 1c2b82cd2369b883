// NDlog tuples and relations. A Tuple is a named fact ("path(n1,n2,[n1,n2],5)"),
// one shared immutable row.
// Relations are duplicate-free sets of tuples with optional soft-state
// bookkeeping (creation time + lifetime) as in P2's `materialize` declarations.
#pragma once

#include <algorithm>
#include <atomic>
#include <compare>
#include <memory>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "ndlog/value.hpp"

namespace fvn::ndlog {

/// A ground fact: predicate name plus attribute values. A handle to one
/// immutable row that every copy shares (DESIGN.md §18): a copy costs one
/// reference count, equality compares the rows' addresses first, and the
/// hash is computed on first use and kept in the row. `Tuple()` and a
/// moved-from tuple are the empty tuple: no predicate, no values.
class Tuple {
 public:
  Tuple() noexcept = default;
  Tuple(std::string predicate, std::vector<Value> values)
      : row_(std::make_shared<const Row>(std::move(predicate), std::move(values))) {}

  const std::string& predicate() const noexcept { return row().predicate; }
  const std::vector<Value>& values() const noexcept { return row().values; }
  std::size_t arity() const noexcept { return row().values.size(); }
  const Value& at(std::size_t i) const { return row().values.at(i); }

  bool operator==(const Tuple& other) const noexcept {
    if (row_ == other.row_) return true;
    const Row& a = row();
    const Row& b = other.row();
    // Equal rows hash alike, so two hashes already known can tell them apart.
    const std::size_t ha = a.hash.load(std::memory_order_relaxed);
    const std::size_t hb = b.hash.load(std::memory_order_relaxed);
    if (ha != 0 && hb != 0 && ha != hb) return false;
    return a.predicate == b.predicate && a.values == b.values;
  }
  std::strong_ordering operator<=>(const Tuple& other) const {
    if (row_ == other.row_) return std::strong_ordering::equal;
    const Row& a = row();
    const Row& b = other.row();
    if (auto c = a.predicate <=> b.predicate; c != 0) return c;
    const std::size_t n = std::min(a.values.size(), b.values.size());
    for (std::size_t i = 0; i < n; ++i) {
      if (auto c = a.values[i] <=> b.values[i]; c != 0) return c;
    }
    return a.values.size() <=> b.values.size();
  }

  /// hash_values() of the values, then the predicate's characters mixed in.
  std::size_t hash() const noexcept {
    const std::size_t h = row().hash.load(std::memory_order_relaxed);
    return h != 0 ? h : first_hash();
  }

  /// "path(n1,n2,[n1,n2],5)"
  std::string to_string() const;

 private:
  /// The payload every copy shares. Nothing writes it after it is built but
  /// the hash cache, which any thread may fill: each stores the same number.
  struct Row {
    Row(std::string p, std::vector<Value> v) noexcept
        : predicate(std::move(p)), values(std::move(v)) {}
    Row() = default;

    std::string predicate;
    std::vector<Value> values;
    /// hash(), once some thread computed it; 0 until then (a row whose hash
    /// is 0 computes it on every call).
    mutable std::atomic<std::size_t> hash{0};
  };
  static const Row kEmpty;

  const Row& row() const noexcept { return row_ ? *row_ : kEmpty; }
  /// Computes the hash and caches it in the row.
  std::size_t first_hash() const noexcept;

  std::shared_ptr<const Row> row_;
};

struct TupleHash {
  std::size_t operator()(const Tuple& t) const noexcept { return t.hash(); }
};

using TupleSet = std::unordered_set<Tuple, TupleHash>;

/// A timestamped tuple as stored in a soft-state table: the fact plus the
/// simulation time at which it expires (nullopt = hard state, never expires).
struct StoredTuple {
  Tuple tuple;
  std::optional<double> expires_at;
};

/// Sorted, deterministic rendering of a tuple set (tests & goldens).
std::vector<std::string> sorted_strings(const TupleSet& tuples);

}  // namespace fvn::ndlog
