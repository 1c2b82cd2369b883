// Unit tests for the NDlog value system: construction, total order,
// arithmetic, hashing (and a Database keeping equal values as one row),
// rendering, and the interned text representation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <compare>
#include <cstdint>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "ndlog/ast.hpp"
#include "ndlog/database.hpp"
#include "ndlog/parser.hpp"
#include "ndlog/tuple.hpp"
#include "ndlog/value.hpp"

namespace fvn::ndlog {
namespace {

TEST(Value, KindsAndAccessors) {
  EXPECT_TRUE(Value::nil().is_nil());
  EXPECT_EQ(Value::boolean(true).as_bool(), true);
  EXPECT_EQ(Value::integer(-7).as_int(), -7);
  EXPECT_DOUBLE_EQ(Value::real(2.5).as_double(), 2.5);
  EXPECT_EQ(Value::str("hi").as_str(), "hi");
  EXPECT_EQ(Value::addr("n3").as_addr(), "n3");
  EXPECT_EQ(Value::list({Value::integer(1)}).as_list().size(), 1u);
}

TEST(Value, IntWidensToDouble) {
  EXPECT_DOUBLE_EQ(Value::integer(4).as_double(), 4.0);
}

TEST(Value, AccessorTypeErrors) {
  EXPECT_THROW(Value::integer(1).as_bool(), TypeError);
  EXPECT_THROW(Value::str("x").as_int(), TypeError);
  EXPECT_THROW(Value::boolean(true).as_list(), TypeError);
  EXPECT_THROW(Value::real(1.0).as_addr(), TypeError);
}

TEST(Value, TextAccessorAcceptsStrAndAddr) {
  EXPECT_EQ(Value::str("a").as_text(), "a");
  EXPECT_EQ(Value::addr("n1").as_text(), "n1");
  EXPECT_THROW(Value::integer(1).as_text(), TypeError);
}

TEST(Value, TotalOrderIsKindMajor) {
  // Bool < numbers < Str < Addr < List per ValueKind order; Int and Double
  // share a rank and order by value.
  EXPECT_LT(Value::boolean(true), Value::integer(0));
  EXPECT_LT(Value::real(0.0), Value::integer(99));
  EXPECT_LT(Value::str("zzz"), Value::addr("aaa"));
  EXPECT_LT(Value::addr("zzz"), Value::list({}));
}

TEST(Value, NumbersOrderByValueAcrossIntAndDouble) {
  EXPECT_LT(Value::integer(2), Value::real(2.5));
  EXPECT_LT(Value::real(2.5), Value::integer(3));
  EXPECT_LT(Value::integer(-3), Value::real(-2.5));
  EXPECT_LT(Value::real(-3.5), Value::integer(-3));
  // Equal values stay distinct, the Int first.
  EXPECT_LT(Value::integer(3), Value::real(3.0));
  EXPECT_NE(Value::integer(3), Value::real(3.0));
  // Exact: 2^53+1 is not rounded to the double 2^53.
  EXPECT_GT(Value::integer(9007199254740993), Value::real(9007199254740992.0));
  constexpr auto kMax = std::numeric_limits<std::int64_t>::max();
  constexpr auto kMin = std::numeric_limits<std::int64_t>::min();
  EXPECT_LT(Value::integer(kMax), Value::real(9223372036854775808.0));
  EXPECT_LT(Value::integer(kMin), Value::real(-9223372036854775808.0));
  EXPECT_LT(Value::real(-1e19), Value::integer(kMin));
}

TEST(Value, ComparisonsReadNumbersByValue) {
  const Value three = Value::integer(3);
  const Value three_d = Value::real(3.0);
  EXPECT_TRUE(compare(CmpOp::Le, three, three_d));
  EXPECT_TRUE(compare(CmpOp::Ge, three, three_d));
  EXPECT_FALSE(compare(CmpOp::Lt, three, three_d));
  EXPECT_FALSE(compare(CmpOp::Gt, three_d, three));
  EXPECT_FALSE(compare(CmpOp::Eq, three, three_d));
  EXPECT_TRUE(compare(CmpOp::Lt, Value::real(2.5), Value::integer(10)));
  EXPECT_TRUE(compare(CmpOp::Gt, Value::integer(7), Value::real(2.5)));
}

TEST(Value, IntOrdering) {
  EXPECT_LT(Value::integer(1), Value::integer(2));
  EXPECT_EQ(Value::integer(3), Value::integer(3));
  EXPECT_GT(Value::integer(3), Value::integer(-3));
}

TEST(Value, ListLexicographicOrdering) {
  auto l1 = Value::list({Value::integer(1), Value::integer(2)});
  auto l2 = Value::list({Value::integer(1), Value::integer(3)});
  auto l3 = Value::list({Value::integer(1)});
  EXPECT_LT(l1, l2);
  EXPECT_LT(l3, l1);  // shorter prefix first
  EXPECT_EQ(l1, Value::list({Value::integer(1), Value::integer(2)}));
}

TEST(Value, Arithmetic) {
  EXPECT_EQ(Value::integer(2).add(Value::integer(3)).as_int(), 5);
  EXPECT_EQ(Value::integer(2).sub(Value::integer(3)).as_int(), -1);
  EXPECT_EQ(Value::integer(2).mul(Value::integer(3)).as_int(), 6);
  EXPECT_EQ(Value::integer(7).div(Value::integer(2)).as_int(), 3);
  EXPECT_EQ(Value::integer(7).mod(Value::integer(3)).as_int(), 1);
  EXPECT_DOUBLE_EQ(Value::integer(1).add(Value::real(0.5)).as_double(), 1.5);
}

TEST(Value, DivisionByZeroThrows) {
  EXPECT_THROW(Value::integer(1).div(Value::integer(0)), TypeError);
  EXPECT_THROW(Value::integer(1).mod(Value::integer(0)), TypeError);
}

TEST(Value, StringConcatenationViaAdd) {
  EXPECT_EQ(Value::str("ab").add(Value::str("cd")).as_str(), "abcd");
}

TEST(Value, ListConcatenationViaAdd) {
  auto result = Value::list({Value::integer(1)}).add(Value::list({Value::integer(2)}));
  EXPECT_EQ(result.as_list().size(), 2u);
}

TEST(Value, Rendering) {
  EXPECT_EQ(Value::integer(42).to_string(), "42");
  EXPECT_EQ(Value::boolean(false).to_string(), "false");
  EXPECT_EQ(Value::str("x").to_string(), "\"x\"");
  EXPECT_EQ(Value::addr("n1").to_string(), "n1");
  EXPECT_EQ(Value::list({Value::addr("n1"), Value::addr("n2")}).to_string(), "[n1,n2]");
}

TEST(Value, StringRenderingTokenizesBack) {
  for (const std::string text : {"a\"b", "back\\slash", "a\nb", "tab\there", "\"\\\n\t"}) {
    const std::string rendered = Value::str(text).to_string();
    EXPECT_EQ(rendered.find('\n'), std::string::npos) << rendered;
    const auto tokens = tokenize(rendered);
    ASSERT_EQ(tokens.size(), 2u) << rendered;  // the string, then End
    EXPECT_EQ(tokens[0].kind, TokenKind::String) << rendered;
    EXPECT_EQ(tokens[0].text, text) << rendered;
  }
  EXPECT_EQ(Value::str("a\"b").to_string(), "\"a\\\"b\"");
}

TEST(Value, HashConsistentWithEquality) {
  auto a = Value::list({Value::addr("n1"), Value::integer(3)});
  auto b = Value::list({Value::addr("n1"), Value::integer(3)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(Value::integer(1).hash(), Value::integer(2).hash());
  EXPECT_NE(Value::str("n1").hash(), Value::addr("n1").hash());
}

// Unordered containers iterate in hash order, and that order drives
// derivation order (tests/golden/sim pins it), so the numbers themselves
// are part of the contract. These were produced by the string-payload
// representation that interning replaced.
TEST(Value, HashNumbersAreTheParents) {
  EXPECT_EQ(Value::nil().hash(), 4953163356653287321ULL);
  EXPECT_EQ(Value::boolean(true).hash(), 11125489772821600133ULL);
  EXPECT_EQ(Value::boolean(false).hash(), 11125488673309971922ULL);
  EXPECT_EQ(Value::integer(7).hash(), 11124533197705245788ULL);
  EXPECT_EQ(Value::integer(-42).hash(), 7322238363795011103ULL);
  EXPECT_EQ(Value::real(2.5).hash(), 15245495082028109696ULL);
  EXPECT_EQ(Value::real(-0.0).hash(), 11123575523077263232ULL);
  EXPECT_EQ(Value::real(0.0).hash(), 11123575523077263232ULL);
  EXPECT_EQ(Value::str("n1").hash(), 14607465314392087936ULL);
  EXPECT_EQ(Value::addr("n1").hash(), 14109640534138269727ULL);
  EXPECT_EQ(Value::str("").hash(), 4953167754699800165ULL);
  EXPECT_EQ(Value::list({}).hash(), 4953165555676543743ULL);
  EXPECT_EQ(Value::list({Value::addr("n1"),
                         Value::list({Value::addr("n2"), Value::integer(3)}),
                         Value::str("x")})
                .hash(),
            14981509367855341384ULL);
  EXPECT_EQ(hash_values({Value::addr("n0"), Value::integer(1)}), 2500367063285120172ULL);
  EXPECT_EQ(Tuple("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(2)}).hash(),
            3639541486022292839ULL);
  EXPECT_EQ(Tuple("path", {Value::addr("n0"), Value::addr("n2"),
                           Value::list({Value::addr("n0"), Value::addr("n1"),
                                        Value::addr("n2")}),
                           Value::integer(5)})
                .hash(),
            12409120920447487538ULL);
  EXPECT_EQ(Tuple().hash(), 11400714819323198485ULL);
}

TEST(Value, EqualTextsShareOneSymbol) {
  const std::string text = "x";
  const Value a = Value::addr("x");
  const Value b = Value::addr(text);
  EXPECT_EQ(&a.as_addr(), &b.as_addr());
  EXPECT_EQ(&Value::str("x").as_str(), &Value::str(text).as_str());
  // One symbol per text, whatever the kind; the kind still tells them apart.
  EXPECT_EQ(&Value::str("x").as_str(), &a.as_addr());
  EXPECT_NE(Value::str("x"), Value::addr("x"));
  EXPECT_LT(Value::str("x"), Value::addr("x"));
  EXPECT_NE(Value::str("x").hash(), Value::addr("x").hash());
  EXPECT_NE(&Value::addr("y").as_addr(), &a.as_addr());
}

TEST(Value, TextOrderIsLexicographicWhateverTheInternOrder) {
  // Texts no other test uses, interned in descending order: an order by
  // symbol address or creation would put them the other way round.
  const Value n9 = Value::addr("order-n9");
  const Value n10 = Value::addr("order-n10");
  EXPECT_LT(n10, n9);
  EXPECT_GT(n9, n10);
  std::vector<Value> made;
  for (int i = 20; i >= 0; --i) made.push_back(Value::str("order-" + std::to_string(100 + i)));
  for (std::size_t i = 1; i < made.size(); ++i) {
    EXPECT_LT(made[i], made[i - 1]) << made[i].to_string();
  }
  EXPECT_EQ(Value::addr("order-n9") <=> n9, std::strong_ordering::equal);
}

TEST(Value, SeparatelyBuiltListsAreEqual) {
  auto build = [] {
    return Value::list({Value::addr("n0"), Value::list({Value::str("s"), Value::integer(4)}),
                        Value::boolean(true)});
  };
  const Value a = build();
  const Value b = build();
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_EQ(a <=> b, std::strong_ordering::equal);
  const Value c = Value::list({Value::addr("n0"), Value::list({Value::str("s"), Value::integer(5)}),
                               Value::boolean(true)});
  EXPECT_NE(a, c);
  EXPECT_LT(a, c);
  const Value copy = a;
  EXPECT_EQ(copy, a);
  EXPECT_EQ(&copy.as_list(), &a.as_list());
}

TEST(Value, SignedZerosStayEqualInsideLists) {
  // -0.0 == 0.0 (the order's meaning) and they hash alike, so lists
  // holding them hash alike and compare equal too.
  EXPECT_EQ(Value::real(-0.0), Value::real(0.0));
  EXPECT_EQ(Value::list({Value::real(-0.0)}), Value::list({Value::real(0.0)}));
  EXPECT_EQ(Value::list({Value::addr("n1"), Value::list({Value::real(0.0)})}),
            Value::list({Value::addr("n1"), Value::list({Value::real(-0.0)})}));
  EXPECT_NE(Value::list({Value::real(0.0)}), Value::list({Value::real(1.0)}));
}

// Equal rows are one row: p(-0.0) is p(0.0), also inside a list.
TEST(Database, SignedZerosAreOneRow) {
  Database db;
  ASSERT_NE(db.insert(Tuple("p", {Value::real(0.0)})), nullptr);
  EXPECT_EQ(db.insert(Tuple("p", {Value::real(-0.0)})), nullptr);
  EXPECT_EQ(db.size("p"), 1u);
  ASSERT_NE(db.insert(Tuple("q", {Value::list({Value::real(-0.0)})})), nullptr);
  EXPECT_TRUE(db.contains(Tuple("q", {Value::list({Value::real(0.0)})})));
  EXPECT_EQ(db.lookup("p", 0, Value::real(-0.0)).size(), 1u);
}

TEST(Value, ConcurrentInternsAgree) {
  constexpr int kTexts = 2000;
  constexpr int kThreads = 4;
  std::vector<std::string> texts;
  for (int i = 0; i < kTexts; ++i) texts.push_back("concurrent-" + std::to_string(i));
  std::vector<std::vector<const std::string*>> seen(kThreads,
                                                    std::vector<const std::string*>(kTexts));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Each thread walks all texts in its own order: forward, backward,
      // and two strides coprime to kTexts.
      constexpr int kStrides[kThreads] = {1, kTexts - 1, 7, 13};
      for (int k = 0; k < kTexts; ++k) {
        const int i = (k * kStrides[t] + t * 500) % kTexts;
        const Value v = t % 2 == 0 ? Value::addr(texts[i]) : Value::str(texts[i]);
        seen[t][i] = &v.as_text();
      }
    });
  }
  for (auto& th : threads) th.join();
  for (int i = 0; i < kTexts; ++i) {
    ASSERT_NE(seen[0][i], nullptr);
    EXPECT_EQ(*seen[0][i], texts[i]);
    for (int t = 1; t < kThreads; ++t) EXPECT_EQ(seen[t][i], seen[0][i]) << texts[i];
    EXPECT_EQ(&Value::addr(texts[i]).as_addr(), seen[0][i]);
  }
}

TEST(Tuple, EqualityHashAndRendering) {
  Tuple a("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(2)});
  Tuple b("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(2)});
  Tuple c("link", {Value::addr("n0"), Value::addr("n1"), Value::integer(3)});
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_FALSE(a == c);
  EXPECT_EQ(a.to_string(), "link(n0,n1,2)");
  EXPECT_LT(a, c);
}

TEST(Tuple, SetSemantics) {
  TupleSet set;
  Tuple t("p", {Value::integer(1)});
  EXPECT_TRUE(set.insert(t).second);
  EXPECT_FALSE(set.insert(t).second);
  EXPECT_EQ(set.size(), 1u);
}

TEST(Tuple, SortedStringsIsDeterministic) {
  TupleSet set;
  set.insert(Tuple("b", {Value::integer(2)}));
  set.insert(Tuple("a", {Value::integer(1)}));
  auto strings = sorted_strings(set);
  ASSERT_EQ(strings.size(), 2u);
  EXPECT_EQ(strings[0], "a(1)");
  EXPECT_EQ(strings[1], "b(2)");
}

TEST(Tuple, CopiesShareOneRow) {
  const auto build = [] {
    return Tuple("path", {Value::addr("n0"), Value::addr("n2"),
                          Value::list({Value::addr("n0"), Value::addr("n2")}),
                          Value::integer(5)});
  };
  const Tuple row = build();
  const Tuple copy = row;  // NOLINT(performance-unnecessary-copy-initialization)
  EXPECT_EQ(copy.values().data(), row.values().data());
  EXPECT_EQ(&copy.predicate(), &row.predicate());
  const Tuple rebuilt = build();
  EXPECT_NE(rebuilt.values().data(), row.values().data());
  for (const Tuple* other : {&copy, &rebuilt}) {
    EXPECT_EQ(*other, row);
    EXPECT_EQ(other->hash(), row.hash());
    EXPECT_EQ(*other <=> row, std::strong_ordering::equal);
    EXPECT_EQ(other->to_string(), "path(n0,n2,[n0,n2],5)");
  }
  // Both hashes known and different: unequal without comparing the values.
  const Tuple cheaper("path", {Value::addr("n0"), Value::addr("n2"),
                               Value::list({Value::addr("n0"), Value::addr("n2")}),
                               Value::integer(4)});
  EXPECT_NE(cheaper.hash(), row.hash());
  EXPECT_NE(cheaper, row);
  EXPECT_LT(cheaper, row);
  // Tuple() and a moved-from tuple are the empty tuple.
  Tuple from = row;
  const Tuple to = std::move(from);
  EXPECT_EQ(to, row);
  EXPECT_EQ(from, Tuple());  // NOLINT(bugprone-use-after-move)
  EXPECT_EQ(Tuple().predicate(), "");
  EXPECT_EQ(Tuple().arity(), 0u);
  EXPECT_EQ(Tuple().to_string(), "()");
  EXPECT_LT(Tuple(), row);
}

TEST(Tuple, ConcurrentCopiesAndHashes) {
  // 1,000 rows no thread has hashed yet: 4 threads race to fill each row's
  // hash cache while they copy, compare, sort and drop copies of them.
  constexpr int kRows = 1000;
  constexpr int kThreads = 4;
  std::vector<Tuple> rows;
  std::vector<std::size_t> hashes;  // of separately built equal rows
  for (int i = 0; i < kRows; ++i) {
    const auto build = [i] {
      return Tuple(i % 2 == 0 ? "even" : "odd",
                   {Value::addr("n" + std::to_string(i % 16)), Value::integer(i),
                    Value::list({Value::integer(i % 7)})});
    };
    rows.push_back(build());
    hashes.push_back(build().hash());
  }
  std::vector<Tuple> sorted = rows;
  std::sort(sorted.begin(), sorted.end());
  std::atomic<int> ready{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      std::vector<Tuple> copies;
      for (int k = 0; k < kRows; ++k) {
        // Each thread starts at its own row and walks in its own direction.
        const int i = (t % 2 == 0 ? k + t * 250 : kRows - 1 - k + t * 250) % kRows;
        copies.push_back(rows[i]);
        if (copies.back().hash() != hashes[i] || !(copies.back() == rows[i])) ++failures;
      }
      std::sort(copies.begin(), copies.end());
      if (copies != sorted) ++failures;
      const TupleSet set(copies.begin(), copies.end());
      if (set.size() != static_cast<std::size_t>(kRows)) ++failures;
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  for (int i = 0; i < kRows; ++i) EXPECT_EQ(rows[i].hash(), hashes[i]);
}

}  // namespace
}  // namespace fvn::ndlog
