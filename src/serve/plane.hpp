// fvn::serve plane — the read-optimized route-serving half of a control
// plane (DESIGN.md §17): project a derived predicate of the live fixpoint
// into per-node longest-prefix-match tables and serve concurrent lookups
// from epoch-published snapshots while the engine churns.
//
// Wiring (both runtimes, one code path): the engine-agnostic tuple-event
// stream (SimOptions::tuple_events / ClusterOptions::tuple_events) drives a
// Feed, which applies install/retract/expire deltas to the plane's shadow
// tries and publishes snapshots at delta-round boundaries (virtual-time
// advance in the simulator, apply-count cadence in the threaded cluster,
// always once more at quiescence). Readers never see a half-applied round
// from the simulator — publishes happen strictly between rounds — and in
// the cluster every snapshot is a serialized prefix of the apply stream.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "ndlog/catalog.hpp"
#include "ndlog/tuple.hpp"
#include "obs/metrics.hpp"
#include "serve/intern.hpp"
#include "serve/mtrie.hpp"
#include "serve/snapshot.hpp"

namespace fvn::serve {

/// A malformed serve spec or projection failure (unknown predicate, no dst
/// column, out-of-range column roles).
class ServeError : public std::runtime_error {
 public:
  explicit ServeError(const std::string& what) : std::runtime_error(what) {}
};

/// Which predicate to serve and what each column means. Text form:
///
///   bestPath                      first non-location column is dst,
///                                 the rest ride along unlabeled
///   bestPath:dst,nexthop,cost     one role per non-location column, in
///                                 order: `dst` keys the trie (required,
///                                 exactly once); `len` is a prefix-length
///                                 column (ints 0..32); `_` drops a column;
///                                 anything else labels a payload column
///
/// Destination keying: Int dst values use their low 32 bits as the prefix
/// (with `len`, real LPM); Addr/Str dst values key by interned id as /32
/// host routes — exact-match as the degenerate LPM, which is what serving
/// `bestPath(@S,D,...)` route tables wants.
struct ServeSpec {
  std::string predicate;
  std::size_t dst_col = 1;                ///< absolute index into values()
  std::optional<std::size_t> len_col;     ///< absolute index, Int 0..32
  std::vector<std::size_t> value_cols;    ///< absolute indices, in role order
  std::vector<std::string> labels;        ///< parallel to value_cols

  /// Parse `text` and resolve/validate against the program's catalog.
  /// Throws ServeError on unknown predicate, role/arity mismatch, missing
  /// or duplicate dst.
  static ServeSpec parse(const std::string& text, const ndlog::Catalog& catalog);
};

/// One LPM answer. Row pointers live inside the leased snapshot: valid only
/// while the Lease that produced them is alive.
struct LookupResult {
  bool hit = false;
  Key key;
  const Row* rows = nullptr;
  std::size_t count = 0;
  std::uint64_t epoch = 0;
};

/// The serving plane: single logical writer (apply/publish via Feed), many
/// registered readers.
class ServePlane {
 public:
  struct Options {
    /// Flushed into this registry by flush_metrics() (not live — obs is not
    /// thread-safe and the readers are not obs's problem).
    obs::Registry* metrics = nullptr;
  };

  explicit ServePlane(ServeSpec spec);
  ServePlane(ServeSpec spec, Options options);

  const ServeSpec& spec() const noexcept { return spec_; }

  // --- writer side (serialized by the Feed) --------------------------------

  /// Fold one tuple-event into the shadow tables. `kind` is "install",
  /// "retract" or "expire"; tuples of other predicates are ignored (one
  /// string compare). Returns true when the shadow actually changed.
  bool apply(std::string_view kind, const std::string& node,
             const ndlog::Tuple& tuple);

  /// Freeze dirty shadow tables and publish a new snapshot. No-ops (cheaply)
  /// when nothing changed since the last publish unless `force`.
  void publish(bool force = false);

  // --- reader side ---------------------------------------------------------

  /// A registered reader: owns an announcement slot. Register once per
  /// thread (thread-safe), then acquire()/lookup with no further locking.
  class Reader {
   public:
    /// Wait-free: pin the current snapshot for a batch of lookups.
    EpochPublisher::Lease acquire() const noexcept {
      return publisher_->acquire(slot_);
    }

    /// One lookup under `lease` (count it against this reader).
    LookupResult lookup(const EpochPublisher::Lease& lease, Interner::Id node,
                        std::uint32_t addr) const noexcept {
      slot_->lookups.fetch_add(1, std::memory_order_relaxed);
      LookupResult out;
      out.epoch = lease->epoch;
      const FrozenTrie* table = lease->table(node);
      if (table == nullptr) return out;
      if (auto match = table->lookup(addr)) {
        out.hit = true;
        out.key = match->key;
        out.rows = match->rows;
        out.count = match->count;
      }
      return out;
    }

   private:
    friend class ServePlane;
    Reader(const EpochPublisher* publisher, EpochPublisher::ReaderSlot* slot)
        : publisher_(publisher), slot_(slot) {}
    const EpochPublisher* publisher_;
    EpochPublisher::ReaderSlot* slot_;
  };

  /// Thread-safe; the Reader stays valid for the plane's lifetime.
  Reader register_reader() {
    return Reader(&publisher_, publisher_.register_reader());
  }

  // --- stats / obs ---------------------------------------------------------

  struct Stats {
    std::uint64_t installs = 0;
    std::uint64_t removes = 0;
    std::uint64_t applied = 0;           ///< installs + removes (version)
    std::uint64_t epochs_published = 0;  ///< excluding the initial empty one
    std::uint64_t snapshots_reclaimed = 0;
    std::size_t retired_live = 0;
    std::size_t routes = 0;              ///< in the latest snapshot
    std::uint64_t lookups = 0;           ///< summed over readers
    /// Over the last kPublishWindow publishes (exact for shorter runs).
    std::uint64_t publish_p50_us = 0;
    std::uint64_t publish_p99_us = 0;
  };
  Stats stats() const;

  /// Record the plane's counters + the serve/publish_us histogram (every
  /// publish) into Options::metrics (single-threaded; call after the run).
  void flush_metrics();

  /// Writer-side view of the latest snapshot (tests, CLI rendering).
  const Snapshot& current() const noexcept { return publisher_.current(); }

  /// Render one lookup against the latest snapshot for single-threaded
  /// callers (the CLI query loop, goldens). `dst` is either an unsigned
  /// integer address or an interned text destination; the answer is a
  /// deterministic one-liner:
  ///   "<key>/len epoch=E rows=[a,b; c,d]"  or  "no-route epoch=E".
  std::string query(const std::string& node, const std::string& dst) const;

  /// Map a destination Value the way apply() would, so tests and the CLI
  /// key their queries identically to the install path.
  std::uint32_t key_bits_of(const ndlog::Value& dst);

 private:
  struct NodeTable {
    Mtrie shadow;
    std::shared_ptr<const FrozenTrie> frozen;  ///< last published freeze
    std::uint64_t frozen_checksum = 0;         ///< cached at freeze time
    bool dirty = false;
  };

  NodeTable& table_for(Interner::Id node);

  ServeSpec spec_;
  Options options_;
  Interner interner_;
  std::vector<std::unique_ptr<NodeTable>> tables_;  ///< by interned node id
  bool any_dirty_ = false;
  EpochPublisher publisher_;
  std::uint64_t installs_ = 0;
  std::uint64_t removes_ = 0;
  /// Publish latencies: the last kPublishWindow in a ring that stats()
  /// takes percentiles from, and all of them in a histogram.
  static constexpr std::size_t kPublishWindow = 4096;
  std::vector<std::uint64_t> publish_us_;
  obs::Histogram publish_hist_;
};

/// Recompute a snapshot's checksum exactly the way ServePlane::publish()
/// built it — the torn-read tripwire reader threads verify under churn.
std::uint64_t recompute_checksum(const Snapshot& snapshot);

/// Glue between a runtime's tuple-event stream and one ServePlane: applies
/// every event and decides when to publish.
class Feed {
 public:
  /// The simulator's feed: publishes when the event timestamp advances past
  /// the last one seen, the delta-round boundary. Not thread-safe.
  explicit Feed(ServePlane& plane);
  /// A concurrent runtime's feed (fvn::net): node threads call on_event at
  /// once and stamp per-node clocks, so it serializes on_event with a mutex
  /// and publishes every `publish_every` (>= 1) applied changes.
  Feed(ServePlane& plane, std::size_t publish_every);

  /// The hook both runtimes accept (SimOptions::tuple_events /
  /// ClusterOptions::tuple_events signature).
  std::function<void(std::string_view, const std::string&, const ndlog::Tuple&,
                     double)>
  hook();

  void on_event(std::string_view kind, const std::string& node,
                const ndlog::Tuple& tuple, double now);

  /// Final publish at quiescence (forced, so the fixpoint is always served).
  void finish();

 private:
  ServePlane* plane_;
  /// 0 for the simulator's feed, the cadence of a concurrent one.
  std::size_t publish_every_ = 0;
  std::mutex mu_;
  double last_now_ = 0.0;
  bool seen_any_ = false;
  std::size_t since_publish_ = 0;
};

}  // namespace fvn::serve
