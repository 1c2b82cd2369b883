// fvn::serve mtrie — longest-prefix-match route tables (DESIGN.md §17).
//
// Three structures share the (prefix, len) key space:
//
//   Mtrie        the writer's *shadow* table: a pointer-based binary trie on
//                32-bit keys, one bit per level from the MSB down. Mutable,
//                single-writer; this is where install/retract deltas land
//                between publishes.
//   FrozenTrie   the immutable flat-array form built from a shadow at
//                publish time: nodes and entries in two contiguous vectors,
//                rows in one stride-RowWidth vector. Readers walk this —
//                no pointers to chase across allocations, nothing to tear.
//   LinearRoutes the reference oracle: an unsorted (key, row) list whose
//                lookup scans every entry for the longest matching prefix.
//                The differential fuzz suite holds the tries to this
//                semantics (exactness mirrors the NFOS mtrie bar: LPM must
//                be *exact*, not approximate).
//
// Keys are normalized on entry: bits below the prefix length are masked off,
// so link(… 10.0.0.7/8 …) and 10.0.0.0/8 name the same route slot. A key
// with len 0 is the default route. Every entry holds a duplicate-free sorted
// set of fixed-width rows (the projected columns of the served predicate):
// route identity is (key, row), so two equal-cost paths to one destination
// coexist and retract independently.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "serve/intern.hpp"

namespace fvn::serve {

/// A route key: `len` leading bits of `prefix` (len in 0..32; 32 = host
/// route, 0 = default route). Construction masks the don't-care bits.
struct Key {
  std::uint32_t prefix = 0;
  std::uint8_t len = 32;

  static constexpr std::uint32_t mask_of(std::uint8_t len) noexcept {
    return len == 0 ? 0u : ~std::uint32_t{0} << (32 - len);
  }
  static Key make(std::uint32_t prefix, std::uint8_t len) noexcept {
    if (len > 32) len = 32;
    return Key{prefix & mask_of(len), len};
  }
  bool matches(std::uint32_t addr) const noexcept {
    return (addr & mask_of(len)) == prefix;
  }

  friend bool operator==(const Key&, const Key&) = default;
  friend auto operator<=>(const Key&, const Key&) = default;
};

/// One projected route row (fixed width per plane: the spec's value columns).
using Row = std::vector<EncodedVal>;

/// Mutable single-writer shadow trie.
class Mtrie {
 public:
  struct Match {
    Key key;
    const std::vector<Row>* rows = nullptr;  ///< sorted, duplicate-free
  };

  /// Add `row` under `key` (normalizing the key). False if the identical
  /// (key, row) was already present.
  bool insert(Key key, Row row);
  /// Remove the exact (key, row). False if absent. Empty entries are pruned
  /// so lookups never report a route-less prefix.
  bool remove(Key key, const Row& row);

  /// Longest-prefix match. nullopt when no prefix of `addr` has an entry.
  std::optional<Match> lookup(std::uint32_t addr) const;
  /// Exact entry for a normalized key (null when absent).
  const std::vector<Row>* exact(Key key) const;

  std::size_t entries() const noexcept { return entries_; }  ///< occupied keys
  std::size_t routes() const noexcept { return routes_; }    ///< (key,row) pairs

  /// Deterministic walk in key order (prefix-major, shorter lens first).
  void for_each(const std::function<void(Key, const Row&)>& fn) const;

 private:
  struct Node {
    std::unique_ptr<Node> child[2];
    std::vector<Row> rows;  ///< non-empty iff this depth/path is an entry
    bool occupied = false;
  };

  Node* descend(Key key, bool create);
  static void walk(const Node& node, Key key,
                   const std::function<void(Key, const Row&)>& fn);

  Node root_;
  std::size_t entries_ = 0;
  std::size_t routes_ = 0;
};

/// Immutable flat-array trie built from a shadow at publish time.
class FrozenTrie {
 public:
  FrozenTrie() = default;
  explicit FrozenTrie(const Mtrie& shadow);

  struct Match {
    Key key;
    const Row* rows = nullptr;  ///< `count` sorted rows
    std::size_t count = 0;
  };

  /// Longest-prefix match; nullopt on miss. Wait-free: a bounded walk over
  /// immutable arrays.
  std::optional<Match> lookup(std::uint32_t addr) const;

  std::size_t entries() const noexcept { return entries_.size(); }
  std::size_t routes() const noexcept { return rows_.size(); }

  void for_each(const std::function<void(Key, const Row&)>& fn) const;

  /// FNV-1a over the sorted (key, row) content — the torn-read tripwire the
  /// churn tests and bench readers recompute against Snapshot::checksum.
  std::uint64_t checksum() const noexcept;

  /// Same routes: the arrays are built by a key-order walk, so they are a
  /// function of the (key, row) content alone.
  friend bool operator==(const FrozenTrie&, const FrozenTrie&) = default;

 private:
  struct FNode {
    std::int32_t child[2] = {-1, -1};
    std::int32_t entry = -1;  ///< index into entries_, -1 = none
    friend bool operator==(const FNode&, const FNode&) = default;
  };
  struct FEntry {
    Key key;
    std::uint32_t row_begin = 0;
    std::uint32_t row_count = 0;
    friend bool operator==(const FEntry&, const FEntry&) = default;
  };

  /// Index of the node at `key`'s bit path, creating the path (indices stay
  /// valid across growth — children are indices, not pointers).
  std::int32_t ensure_path(Key key);

  std::vector<FNode> nodes_;    ///< nodes_[0] is the root (when non-empty)
  std::vector<FEntry> entries_;
  std::vector<Row> rows_;
};

/// Reference oracle: linear scan for the longest matching prefix.
class LinearRoutes {
 public:
  bool insert(Key key, Row row);
  bool remove(Key key, const Row& row);
  std::optional<Mtrie::Match> lookup(std::uint32_t addr) const;
  std::size_t routes() const noexcept;

 private:
  struct Slot {
    Key key;
    std::vector<Row> rows;  ///< kept sorted, mirroring Mtrie entries
  };
  std::vector<Slot> slots_;
};

}  // namespace fvn::serve
