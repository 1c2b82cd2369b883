// fvn::serve tests (ctest label `serve`, also run under ASan/TSan by
// scripts/check.sh):
//
//   - mtrie semantics: normalization, LPM, row multisets, path pruning
//   - randomized differential fuzz of Mtrie/FrozenTrie against the
//     LinearRoutes oracle (10k ops x 3 seeds — the NFOS "exact LPM" bar)
//   - interner copy-on-write tables and EncodedVal round trips
//   - ServeSpec parsing against a program catalog
//   - plane projection == the simulator's fixpoint database, per node
//   - the concurrent cluster feed reaching the same snapshot
//   - epoch reclamation: a held lease blocks reclamation, releasing admits it;
//     a retract + reinstall keeps serving the same frozen table
//   - publish latency: a bounded window for stats(), every publish counted
//     in the serve/publish_us histogram
//   - churn: reader threads never observe a torn snapshot (checksums match,
//     epochs are monotone) while the writer retracts/installs and publishes
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <random>
#include <set>
#include <thread>

#include "core/protocols.hpp"
#include "ndlog/parser.hpp"
#include "net/cluster.hpp"
#include "runtime/simulator.hpp"
#include "serve/plane.hpp"

namespace fvn {
namespace {

using serve::EncodedVal;
using serve::Key;
using serve::Row;

Row int_row(std::int64_t v) {
  return Row{EncodedVal{EncodedVal::Tag::Int, static_cast<std::uint64_t>(v)}};
}

// ---------------------------------------------------------------------------
// Key and Mtrie semantics
// ---------------------------------------------------------------------------

TEST(ServeKey, NormalizationMasksDontCareBits) {
  const Key a = Key::make(0x0A000007, 8);  // 10.0.0.7/8
  const Key b = Key::make(0x0A000000, 8);  // 10.0.0.0/8
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.prefix, 0x0A000000u);
  EXPECT_TRUE(a.matches(0x0AFFFFFF));
  EXPECT_FALSE(a.matches(0x0B000000));
  // len 0 is the default route: matches everything, masks to 0.
  const Key def = Key::make(0xDEADBEEF, 0);
  EXPECT_EQ(def.prefix, 0u);
  EXPECT_TRUE(def.matches(0x12345678));
}

TEST(ServeMtrie, LongestPrefixWins) {
  serve::Mtrie trie;
  EXPECT_TRUE(trie.insert(Key::make(0, 0), int_row(1)));            // default
  EXPECT_TRUE(trie.insert(Key::make(0x0A000000, 8), int_row(2)));   // 10/8
  EXPECT_TRUE(trie.insert(Key::make(0x0A010000, 16), int_row(3)));  // 10.1/16
  EXPECT_TRUE(trie.insert(Key::make(0x0A010203, 32), int_row(4)));  // host

  auto m = trie.lookup(0x0A010203);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->key.len, 32);
  EXPECT_EQ((*m->rows)[0], int_row(4));

  m = trie.lookup(0x0A010204);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->key.len, 16);

  m = trie.lookup(0x0A990000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->key.len, 8);

  m = trie.lookup(0x0B000000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->key.len, 0);  // falls through to the default route
}

TEST(ServeMtrie, RowsAreDuplicateFreeSortedSets) {
  serve::Mtrie trie;
  const Key k = Key::make(0x01020304, 32);
  EXPECT_TRUE(trie.insert(k, int_row(7)));
  EXPECT_FALSE(trie.insert(k, int_row(7)));  // exact duplicate rejected
  EXPECT_TRUE(trie.insert(k, int_row(3)));
  EXPECT_EQ(trie.entries(), 1u);
  EXPECT_EQ(trie.routes(), 2u);
  const auto* rows = trie.exact(k);
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->size(), 2u);
  EXPECT_EQ((*rows)[0][0].bits, 3u);  // sorted
  // Removing one row keeps the entry; removing the last prunes it.
  EXPECT_TRUE(trie.remove(k, int_row(7)));
  EXPECT_FALSE(trie.remove(k, int_row(7)));
  EXPECT_EQ(trie.routes(), 1u);
  EXPECT_TRUE(trie.remove(k, int_row(3)));
  EXPECT_EQ(trie.entries(), 0u);
  EXPECT_FALSE(trie.lookup(0x01020304).has_value());
}

TEST(ServeMtrie, RemovePrunesOnlyTheDeadTail) {
  serve::Mtrie trie;
  trie.insert(Key::make(0x80000000, 1), int_row(1));
  trie.insert(Key::make(0xFF000000, 8), int_row(2));
  ASSERT_TRUE(trie.remove(Key::make(0xFF000000, 8), int_row(2)));
  // The /1 entry on the shared path must survive the /8 removal.
  auto m = trie.lookup(0xFF123456);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->key.len, 1);
}

// ---------------------------------------------------------------------------
// Differential fuzz against the linear oracle
// ---------------------------------------------------------------------------

TEST(ServeMtrieFuzz, MatchesLinearOracle10kOpsX3Seeds) {
  for (const std::uint64_t seed : {11u, 22u, 33u}) {
    std::mt19937_64 rng(seed);
    serve::Mtrie trie;
    serve::LinearRoutes oracle;
    // Keys from a deliberately-colliding pool so removes hit often and
    // prefixes nest: 64 base prefixes x 5 lengths, 4 possible rows.
    auto random_key = [&rng]() {
      static const std::uint8_t lens[] = {0, 8, 16, 24, 32};
      const std::uint32_t base = static_cast<std::uint32_t>(rng()) & 0x3F3F3F3Fu;
      return Key::make(base, lens[rng() % 5]);
    };
    for (int op = 0; op < 10000; ++op) {
      const Key key = random_key();
      const Row row = int_row(static_cast<std::int64_t>(rng() % 4));
      if (rng() % 2 == 0) {
        EXPECT_EQ(trie.insert(key, row), oracle.insert(key, row));
      } else {
        EXPECT_EQ(trie.remove(key, row), oracle.remove(key, row));
      }
      if (op % 16 == 0) {
        ASSERT_EQ(trie.routes(), oracle.routes());
        for (int probe = 0; probe < 32; ++probe) {
          const auto addr = static_cast<std::uint32_t>(rng());
          const auto got = trie.lookup(addr);
          const auto want = oracle.lookup(addr);
          ASSERT_EQ(got.has_value(), want.has_value()) << "addr " << addr;
          if (got.has_value()) {
            ASSERT_EQ(got->key, want->key) << "addr " << addr;
            ASSERT_EQ(*got->rows, *want->rows) << "addr " << addr;
          }
        }
      }
    }
    // The frozen form must agree with both at the end state, exactly.
    const serve::FrozenTrie frozen(trie);
    EXPECT_EQ(frozen.routes(), oracle.routes());
    for (int probe = 0; probe < 2048; ++probe) {
      const auto addr = static_cast<std::uint32_t>(rng());
      const auto got = frozen.lookup(addr);
      const auto want = oracle.lookup(addr);
      ASSERT_EQ(got.has_value(), want.has_value()) << "addr " << addr;
      if (got.has_value()) {
        ASSERT_EQ(got->key, want->key);
        ASSERT_EQ(std::vector<Row>(got->rows, got->rows + got->count),
                  *want->rows);
      }
    }
  }
}

TEST(ServeFrozen, ChecksumIsContentDeterministic) {
  serve::Mtrie a;
  serve::Mtrie b;
  // Same content, different insertion order -> same checksum.
  a.insert(Key::make(0x0A000000, 8), int_row(1));
  a.insert(Key::make(0x0B000000, 8), int_row(2));
  b.insert(Key::make(0x0B000000, 8), int_row(2));
  b.insert(Key::make(0x0A000000, 8), int_row(1));
  EXPECT_EQ(serve::FrozenTrie(a).checksum(), serve::FrozenTrie(b).checksum());
  b.insert(Key::make(0x0C000000, 8), int_row(3));
  EXPECT_NE(serve::FrozenTrie(a).checksum(), serve::FrozenTrie(b).checksum());
}

// ---------------------------------------------------------------------------
// Interner + EncodedVal
// ---------------------------------------------------------------------------

TEST(ServeIntern, DenseIdsAndCopyOnWriteTables) {
  serve::Interner interner;
  EXPECT_EQ(interner.intern("n1"), 0u);
  EXPECT_EQ(interner.intern("n2"), 1u);
  EXPECT_EQ(interner.intern("n1"), 0u);  // dedupe
  const auto t1 = interner.snapshot();
  const auto t2 = interner.snapshot();
  EXPECT_EQ(t1.get(), t2.get());  // cached until growth
  EXPECT_EQ(interner.intern("n3"), 2u);
  const auto t3 = interner.snapshot();
  EXPECT_NE(t1.get(), t3.get());
  // The old table is immutable: still two entries.
  EXPECT_EQ(t1->size(), 2u);
  EXPECT_EQ(t3->size(), 3u);
  EXPECT_EQ(t3->text_of(2), "n3");
  EXPECT_FALSE(t1->find("n3").has_value());
  ASSERT_TRUE(t3->find("n3").has_value());
}

TEST(ServeIntern, EncodedValRoundTrip) {
  serve::Interner interner;
  const auto check = [&](const ndlog::Value& v, const std::string& expect) {
    const EncodedVal e = serve::encode_value(v, interner);
    EXPECT_EQ(serve::decode_value(e, *interner.snapshot()), expect);
  };
  check(ndlog::Value::integer(42), "42");
  check(ndlog::Value::addr("n7"), "n7");
  check(ndlog::Value::str("hello"), "hello");
  check(ndlog::Value::boolean(true), "true");
  // Equal addresses encode to the identical id (the whole point).
  const auto a = serve::encode_value(ndlog::Value::addr("n7"), interner);
  const auto b = serve::encode_value(ndlog::Value::str("n7"), interner);
  EXPECT_EQ(a, b);
  const auto c = serve::encode_value(ndlog::Value::addr("n8"), interner);
  EXPECT_NE(a, c);
}

// ---------------------------------------------------------------------------
// ServeSpec parsing
// ---------------------------------------------------------------------------

TEST(ServeSpec, ParsesDefaultAndRoleMappings) {
  const auto catalog =
      ndlog::Catalog::from_program(core::path_vector_program());
  // Default: first non-location column is dst, rest unlabeled payload.
  const auto plain = serve::ServeSpec::parse("bestPath", catalog);
  EXPECT_EQ(plain.predicate, "bestPath");
  EXPECT_EQ(plain.dst_col, 1u);
  EXPECT_EQ(plain.value_cols, (std::vector<std::size_t>{2, 3}));
  // Role list, absolute columns: bestPath(@S, D, P, C).
  const auto spec = serve::ServeSpec::parse("bestPath:dst,nexthop,cost", catalog);
  EXPECT_EQ(spec.dst_col, 1u);
  EXPECT_EQ(spec.value_cols, (std::vector<std::size_t>{2, 3}));
  EXPECT_EQ(spec.labels, (std::vector<std::string>{"nexthop", "cost"}));
  // Skips drop columns.
  const auto skip = serve::ServeSpec::parse("bestPath:dst,_,cost", catalog);
  EXPECT_EQ(skip.value_cols, (std::vector<std::size_t>{3}));

  EXPECT_THROW(serve::ServeSpec::parse("nosuch", catalog), serve::ServeError);
  EXPECT_THROW(serve::ServeSpec::parse("bestPath:dst", catalog),
               serve::ServeError);  // role/arity mismatch
  EXPECT_THROW(serve::ServeSpec::parse("bestPath:dst,dst,cost", catalog),
               serve::ServeError);  // duplicate dst
  EXPECT_THROW(serve::ServeSpec::parse("bestPath:nexthop,_,cost", catalog),
               serve::ServeError);  // no dst
}

// ---------------------------------------------------------------------------
// Plane projection == simulator fixpoint
// ---------------------------------------------------------------------------

serve::ServePlane make_path_vector_plane() {
  const auto catalog =
      ndlog::Catalog::from_program(core::path_vector_program());
  return serve::ServePlane(
      serve::ServeSpec::parse("bestPath:dst,nexthop,cost", catalog));
}

TEST(ServePlane, SimulatorFeedProjectsTheFixpointExactly) {
  auto plane = make_path_vector_plane();
  serve::Feed feed(plane);  // publish at delta-round (virtual time) boundaries

  runtime::SimOptions options;
  options.tuple_events = feed.hook();
  runtime::Simulator sim(core::path_vector_program(), options);
  sim.inject_all(core::link_facts(core::line_topology(8)));
  // A shortcut arriving well after the line converges: the n0<->n7 routes
  // (and everything relayed through them) improve, so bests are overwritten
  // and the feed must retract the stale routes from the trie.
  sim.inject_all(core::link_facts(
                     {core::Link{"n0", "n7", 1}, core::Link{"n7", "n0", 1}}),
                 10.0);
  const auto stats = sim.run();
  ASSERT_TRUE(stats.quiesced);
  feed.finish();

  // Convergence produced interim bests that were overwritten: the feed must
  // have published more than the final epoch and reclaimed the retired ones.
  const auto s = plane.stats();
  EXPECT_GT(s.epochs_published, 1u);
  EXPECT_GT(s.removes, 0u);
  EXPECT_EQ(s.snapshots_reclaimed, s.epochs_published);  // no readers active

  // Exactness: per node, the served table answers every bestPath row of the
  // simulator's database, and the route count matches the database total.
  std::size_t expected_routes = 0;
  for (const auto& node : sim.nodes()) {
    for (const auto& tuple : sim.database(node).relation("bestPath")) {
      ++expected_routes;
      const std::string dst = tuple.at(1).to_string();
      const std::string answer = plane.query(node, dst);
      EXPECT_EQ(answer.rfind(dst + " ", 0), 0u) << answer;
      EXPECT_NE(answer.find("cost=" + tuple.at(3).to_string()),
                std::string::npos)
          << node << " " << dst << ": " << answer;
    }
  }
  EXPECT_EQ(plane.current().routes, expected_routes);
  EXPECT_GT(expected_routes, 0u);
  // The published checksum is recomputable from the published content.
  EXPECT_EQ(serve::recompute_checksum(plane.current()),
            plane.current().checksum);
  // Version witnesses the applied prefix: every install/retract was folded.
  EXPECT_EQ(plane.current().version, s.applied);
}

TEST(ServePlane, ClusterFeedReachesTheSameSnapshot) {
  // Same program on the threaded cluster: events arrive concurrently from
  // node threads through the thread-safe feed; the final forced publish must
  // equal the merged fixpoint projection. (Runs under TSan in check.sh.)
  auto plane = make_path_vector_plane();
  EXPECT_THROW(serve::Feed(plane, 0), serve::ServeError);
  // 30 changes on this line: a cadence of 16 still publishes mid-run.
  serve::Feed feed(plane, 16);

  net::ClusterOptions options;
  options.tuple_events = feed.hook();
  net::Cluster cluster(core::path_vector_program(), options);
  cluster.inject_all(core::link_facts(core::line_topology(6)));
  const auto stats = cluster.run();
  ASSERT_TRUE(stats.quiesced);
  feed.finish();

  std::size_t expected_routes = 0;
  for (const auto& node : cluster.nodes()) {
    for (const auto& tuple : cluster.database(node).relation("bestPath")) {
      ++expected_routes;
      const std::string dst = tuple.at(1).to_string();
      const std::string answer = plane.query(node, dst);
      EXPECT_NE(answer.find("cost=" + tuple.at(3).to_string()),
                std::string::npos)
          << node << " " << dst << ": " << answer;
    }
  }
  EXPECT_EQ(plane.current().routes, expected_routes);
  EXPECT_GT(expected_routes, 0u);
  EXPECT_EQ(serve::recompute_checksum(plane.current()),
            plane.current().checksum);
}

// ---------------------------------------------------------------------------
// Epoch reclamation
// ---------------------------------------------------------------------------

TEST(ServeEpochs, HeldLeaseBlocksReclamationReleaseAdmitsIt) {
  auto plane = make_path_vector_plane();
  auto reader = plane.register_reader();
  {
    const auto lease = reader.acquire();
    EXPECT_EQ(lease->epoch, 0u);  // the initial empty snapshot
    plane.publish(/*force=*/true);
    plane.publish(/*force=*/true);
    // The reader still holds epoch 0: nothing may be freed.
    EXPECT_EQ(plane.stats().snapshots_reclaimed, 0u);
    EXPECT_EQ(plane.stats().retired_live, 2u);
    // The lease keeps answering from its pinned (empty) snapshot.
    EXPECT_FALSE(reader.lookup(lease, 0, 42).hit);
  }
  plane.publish(/*force=*/true);
  EXPECT_EQ(plane.stats().snapshots_reclaimed, 3u);
  EXPECT_EQ(plane.stats().retired_live, 0u);
  // A fresh lease sees the latest epoch.
  EXPECT_EQ(reader.acquire()->epoch, 3u);
}

TEST(ServeEpochs, CancelledFlipKeepsThePublishedTable) {
  auto plane = make_path_vector_plane();
  using ndlog::Value;
  const auto route = [](const char* dst, std::int64_t cost) {
    return ndlog::Tuple("bestPath",
                        {Value::addr("n0"), Value::addr(dst),
                         Value::list({Value::addr("n0"), Value::addr(dst)}),
                         Value::integer(cost)});
  };
  ASSERT_TRUE(plane.apply("install", "n0", route("n1", 1)));
  ASSERT_TRUE(plane.apply("install", "n0", route("n2", 4)));
  plane.publish();
  const auto node = plane.current().names->find("n0");
  ASSERT_TRUE(node.has_value());
  // Held here, so that no later table can take its address.
  const std::shared_ptr<const serve::FrozenTrie> first =
      plane.current().tables.at(*node);
  ASSERT_NE(first, nullptr);

  // Retract and reinstall one route: the table is dirty but unchanged, so
  // the new epoch serves the same frozen table as the one it retires.
  ASSERT_TRUE(plane.apply("retract", "n0", route("n1", 1)));
  ASSERT_TRUE(plane.apply("install", "n0", route("n1", 1)));
  plane.publish();
  EXPECT_EQ(plane.current().epoch, 2u);
  EXPECT_EQ(plane.current().table(*node), first.get());
  EXPECT_EQ(serve::recompute_checksum(plane.current()),
            plane.current().checksum);

  // A delta that sticks re-freezes the table.
  ASSERT_TRUE(plane.apply("retract", "n0", route("n2", 4)));
  ASSERT_TRUE(plane.apply("install", "n0", route("n2", 3)));
  plane.publish();
  const serve::FrozenTrie* moved = plane.current().table(*node);
  ASSERT_NE(moved, nullptr);
  EXPECT_NE(moved, first.get());
  EXPECT_EQ(moved->routes(), 2u);
  EXPECT_EQ(plane.query("n0", "n2"),
            "n2 epoch=3 rows=[nexthop=[n0,n2],cost=3]");
}

// The plane keeps a bounded window of publish latencies for stats() and
// counts every publish in the serve/publish_us histogram.
TEST(ServePlane, PublishLatencyWindowIsBoundedHistogramCountsAll) {
  obs::Registry registry;
  serve::ServePlane::Options options;
  options.metrics = &registry;
  serve::ServePlane plane(
      serve::ServeSpec::parse("bestPath:dst,nexthop,cost",
                              ndlog::Catalog::from_program(core::path_vector_program())),
      options);
  constexpr std::uint64_t kPublishes = 5000;  // more than the 4,096-entry ring
  for (std::uint64_t i = 0; i < kPublishes; ++i) plane.publish(/*force=*/true);
  const auto stats = plane.stats();
  EXPECT_EQ(stats.epochs_published, kPublishes);
  plane.flush_metrics();
  const obs::Histogram* publish_us = registry.find_histogram("serve/publish_us");
  ASSERT_NE(publish_us, nullptr);
  EXPECT_EQ(publish_us->count(), kPublishes);
  EXPECT_LE(stats.publish_p50_us, stats.publish_p99_us);
  EXPECT_LE(stats.publish_p99_us, publish_us->max());
}

// ---------------------------------------------------------------------------
// Churn: no torn reads
// ---------------------------------------------------------------------------

TEST(ServeChurn, ReadersAlwaysObserveAPublishedConsistentSnapshot) {
  // A plane churned directly (no simulator): the writer flips routes and
  // publishes; readers continuously verify that everything reachable from a
  // lease hashes to the published checksum and that epochs never go back.
  const auto program = ndlog::parse_program(R"(
    materialize(route, infinity, infinity, keys(1,2)).
    r1 route(@N,D,C) :- route(@N,D,C).
  )");
  const auto catalog = ndlog::Catalog::from_program(program);
  serve::ServePlane plane(serve::ServeSpec::parse("route:dst,cost", catalog));

  const auto route = [](int node, int dst, int cost) {
    return ndlog::Tuple("route",
                        {ndlog::Value::addr("n" + std::to_string(node)),
                         ndlog::Value::integer(dst),
                         ndlog::Value::integer(cost)});
  };
  // Seed 4 nodes x 32 dsts and publish the base snapshot.
  for (int n = 0; n < 4; ++n) {
    for (int d = 0; d < 32; ++d) {
      plane.apply("install", "n" + std::to_string(n), route(n, d, d % 7));
    }
  }
  plane.publish(true);

  constexpr int kReaders = 2;
  std::atomic<bool> stop{false};
  std::atomic<bool> torn{false};
  std::atomic<bool> regressed{false};
  std::atomic<std::uint64_t> verified{0};
  std::vector<std::thread> pool;
  for (int r = 0; r < kReaders; ++r) {
    pool.emplace_back([&plane, &stop, &torn, &regressed, &verified, r]() {
      auto reader = plane.register_reader();
      std::mt19937_64 rng(1000 + static_cast<std::uint64_t>(r));
      std::uint64_t last_epoch = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto lease = reader.acquire();
        if (lease->epoch < last_epoch) regressed.store(true);
        last_epoch = lease->epoch;
        // Full content verification on EVERY acquire — the strongest
        // torn-read check we can make.
        if (serve::recompute_checksum(*lease) != lease->checksum) {
          torn.store(true);
          stop.store(true);
        }
        verified.fetch_add(1, std::memory_order_relaxed);
        for (int i = 0; i < 16; ++i) {
          reader.lookup(lease, static_cast<serve::Interner::Id>(rng() % 4),
                        static_cast<std::uint32_t>(rng() % 40));
        }
      }
    });
  }

  // Writer: 4000 churn ops (retract+install with a changed cost), publishing
  // every 4 ops so retirement and reclamation run hot under the readers.
  std::mt19937_64 rng(7);
  for (int op = 0; op < 4000 && !stop.load(std::memory_order_relaxed); ++op) {
    const int n = static_cast<int>(rng() % 4);
    const int d = static_cast<int>(rng() % 32);
    plane.apply("retract", "n" + std::to_string(n), route(n, d, d % 7));
    plane.apply("install", "n" + std::to_string(n), route(n, d, d % 7));
    if (op % 4 == 0) plane.publish();
  }
  plane.publish(true);
  stop.store(true);
  for (auto& t : pool) t.join();

  EXPECT_FALSE(torn.load()) << "a reader observed a torn snapshot";
  EXPECT_FALSE(regressed.load()) << "a reader observed a non-monotone epoch";
  EXPECT_GT(verified.load(), 0u);
  EXPECT_GT(plane.stats().lookups, 0u);
  EXPECT_GT(plane.stats().epochs_published, 100u);
  // With all leases released, a final publish reclaims every retiree.
  plane.publish(true);
  EXPECT_EQ(plane.stats().retired_live, 0u);
  // Routes are unchanged by retract+install churn.
  EXPECT_EQ(plane.current().routes, 4u * 32u);
}

}  // namespace
}  // namespace fvn
