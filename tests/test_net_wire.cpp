// fvn::net wire-format tests: exact round trips (including the edge cases the
// codec exists for — empty tuples, max arity, INT64_MIN, embedded NULs,
// non-ASCII bytes, multi-tuple batches), typed rejection of truncated/corrupt
// input, and a golden hex dump (tests/golden/wire/frames.hex) pinning
// version-2 byte layout.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>

#include "net/wire.hpp"

namespace fvn::net {
namespace {

using ndlog::Tuple;
using ndlog::Value;

Tuple roundtrip(const Tuple& t) { return decode_tuple(encode_tuple(t)); }
Value roundtrip(const Value& v) { return decode_value(encode_value(v)); }

Frame make_ack(std::uint64_t seq, std::string src, std::string dst) {
  Frame ack;
  ack.kind = Frame::Kind::Ack;
  ack.seq = seq;
  ack.src = std::move(src);
  ack.dst = std::move(dst);
  return ack;
}

WireErrorKind kind_of(const std::string& bytes) {
  try {
    (void)decode_frame(bytes);
  } catch (const WireError& e) {
    return e.kind();
  }
  ADD_FAILURE() << "decode_frame accepted " << to_hex(bytes);
  return WireErrorKind::Truncated;
}

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST(WireValue, ScalarsRoundTrip) {
  EXPECT_EQ(roundtrip(Value::nil()), Value::nil());
  EXPECT_EQ(roundtrip(Value::boolean(true)), Value::boolean(true));
  EXPECT_EQ(roundtrip(Value::boolean(false)), Value::boolean(false));
  EXPECT_EQ(roundtrip(Value::integer(0)), Value::integer(0));
  EXPECT_EQ(roundtrip(Value::integer(-1)), Value::integer(-1));
  EXPECT_EQ(roundtrip(Value::integer(300)), Value::integer(300));
  EXPECT_EQ(roundtrip(Value::str("hello")), Value::str("hello"));
  EXPECT_EQ(roundtrip(Value::addr("n0")), Value::addr("n0"));
}

TEST(WireValue, IntExtremesRoundTrip) {
  for (const std::int64_t v :
       {std::numeric_limits<std::int64_t>::min(),
        std::numeric_limits<std::int64_t>::min() + 1, std::int64_t{-1},
        std::int64_t{0}, std::int64_t{1},
        std::numeric_limits<std::int64_t>::max() - 1,
        std::numeric_limits<std::int64_t>::max()}) {
    EXPECT_EQ(roundtrip(Value::integer(v)).as_int(), v) << v;
  }
}

TEST(WireValue, DoublesRoundTripBitExact) {
  for (const double d : {0.0, -0.0, 1.5, -2.25, 1e300, -1e-300,
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity(),
                         std::numeric_limits<double>::denorm_min()}) {
    const std::string bytes = encode_value(Value::real(d));
    // Bit-exact: re-encoding the decoded value reproduces the bytes (this
    // also covers -0.0, which compares == to 0.0 but has different bits).
    EXPECT_EQ(encode_value(decode_value(bytes)), bytes) << d;
  }
  // NaN != NaN, so compare encodings, not values.
  const std::string nan_bytes =
      encode_value(Value::real(std::numeric_limits<double>::quiet_NaN()));
  EXPECT_EQ(encode_value(decode_value(nan_bytes)), nan_bytes);
}

TEST(WireValue, StringsWithEmbeddedNulAndNonAscii) {
  const std::string nul_str = std::string("a\0b", 3);
  EXPECT_EQ(roundtrip(Value::str(nul_str)).as_str(), nul_str);
  const std::string all_nul(5, '\0');
  EXPECT_EQ(roundtrip(Value::str(all_nul)).as_str(), all_nul);
  const std::string utf8 = "caf\xC3\xA9 \xE2\x88\x80x";  // café ∀x
  EXPECT_EQ(roundtrip(Value::str(utf8)).as_str(), utf8);
  std::string high_bytes;
  for (int b = 128; b < 256; ++b) high_bytes.push_back(static_cast<char>(b));
  EXPECT_EQ(roundtrip(Value::str(high_bytes)).as_str(), high_bytes);
  EXPECT_EQ(roundtrip(Value::addr(nul_str)).as_addr(), nul_str);
  EXPECT_EQ(roundtrip(Value::str("")).as_str(), "");
}

TEST(WireValue, NestedListsRoundTrip) {
  const Value nested = Value::list(
      {Value::integer(1),
       Value::list({Value::str("x"), Value::list({}), Value::boolean(true)}),
       Value::nil()});
  EXPECT_EQ(roundtrip(nested), nested);

  // Exactly kMaxDepth nesting encodes and decodes.
  Value deep = Value::integer(7);
  for (std::size_t i = 0; i < kMaxDepth; ++i) deep = Value::list({deep});
  EXPECT_EQ(roundtrip(deep), deep);
}

TEST(WireTuple, EmptyTupleRoundTrips) {
  const Tuple empty("unit", {});
  EXPECT_EQ(roundtrip(empty), empty);
  EXPECT_EQ(roundtrip(Tuple("", {})), Tuple("", {}));  // empty predicate too
}

TEST(WireTuple, MaxArityTupleRoundTrips) {
  std::vector<Value> values;
  for (std::int64_t i = 0; i < 1000; ++i) values.push_back(Value::integer(i - 500));
  const Tuple wide("wide", values);
  EXPECT_EQ(roundtrip(wide), wide);
}

TEST(WireTuple, MixedKindsRoundTrip) {
  const Tuple t("route",
                {Value::addr("n0"), Value::addr("n1"), Value::integer(-42),
                 Value::real(3.5), Value::str(std::string("\0\xFF", 2)),
                 Value::list({Value::addr("n0"), Value::addr("n1")}),
                 Value::boolean(false), Value::nil()});
  EXPECT_EQ(roundtrip(t), t);
}

TEST(WireFrame, DataAndAckRoundTrip) {
  Frame data;
  data.kind = Frame::Kind::DataBatch;
  data.seq = 12345678;
  data.src = "n0";
  data.dst = "n1";
  data.tuples = {Tuple("hop", {Value::addr("n1"), Value::addr("n2"), Value::integer(3)})};
  EXPECT_EQ(decode_frame(encode_frame(data)), data);

  Frame ack = make_ack(12345678, "n1", "n0");
  EXPECT_EQ(decode_frame(encode_frame(ack)), ack);
  // Acks carry no tuples: the encoding must not change with the payload field.
  Frame ack2 = ack;
  ack2.tuples = data.tuples;
  EXPECT_EQ(encode_frame(ack2), encode_frame(ack));
  EXPECT_EQ(ack2, ack);
}

TEST(WireFrame, DataBatchRoundTrips) {
  Frame batch;
  batch.kind = Frame::Kind::DataBatch;
  batch.seq = 42;
  batch.src = "n0";
  batch.dst = "n1";
  batch.tuples = {
      Tuple("hop", {Value::addr("n1"), Value::addr("n2"), Value::integer(3)}),
      Tuple("path", {Value::addr("n1"), Value::addr("n3"),
                     Value::list({Value::addr("n0"), Value::addr("n1")})}),
      Tuple("unit", {}),
  };
  EXPECT_EQ(decode_frame(encode_frame(batch)), batch);
  EXPECT_EQ(encode_frame(decode_frame(encode_frame(batch))), encode_frame(batch));

  // A batch of zero tuples is legal (a flush with nothing buffered never
  // happens, but the codec is defined for it).
  Frame empty = batch;
  empty.tuples.clear();
  EXPECT_EQ(decode_frame(encode_frame(empty)), empty);

  // A one-tuple batch is still a batch on the wire.
  Frame one = batch;
  one.tuples.resize(1);
  const Frame decoded = decode_frame(encode_frame(one));
  EXPECT_EQ(decoded.kind, Frame::Kind::DataBatch);
  ASSERT_EQ(decoded.tuples.size(), 1u);
  EXPECT_EQ(decoded.tuples[0], one.tuples[0]);
}

TEST(WireFrame, EncodingIsDeterministic) {
  Frame f;
  f.kind = Frame::Kind::DataBatch;
  f.seq = 7;
  f.src = "alpha";
  f.dst = "beta";
  f.tuples = {Tuple("p", {Value::addr("beta"), Value::integer(-300)})};
  EXPECT_EQ(encode_frame(f), encode_frame(f));
  EXPECT_EQ(encode_frame(decode_frame(encode_frame(f))), encode_frame(f));
}

// ---------------------------------------------------------------------------
// Typed rejection of malformed input
// ---------------------------------------------------------------------------

TEST(WireDecode, EveryStrictPrefixOfAFrameIsRejected) {
  const std::string bytes = encode_frame(make_ack(300, "n1", "n0"));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW((void)decode_frame(bytes.substr(0, len)), WireError)
        << "prefix length " << len;
  }
  EXPECT_EQ(decode_frame(bytes), make_ack(300, "n1", "n0"));

  // Same property for a multi-tuple batch: truncating anywhere — frame
  // header, batch count, or mid-tuple — must reject, never deliver a
  // partial batch.
  Frame batch;
  batch.kind = Frame::Kind::DataBatch;
  batch.seq = 300;
  batch.src = "n0";
  batch.dst = "n1";
  batch.tuples = {Tuple("hop", {Value::addr("n1"), Value::str("payload"),
                                Value::list({Value::integer(-5), Value::real(2.5)})}),
                  Tuple("p", {Value::integer(1)}),
                  Tuple("q", {Value::addr("n1"), Value::boolean(true)})};
  const std::string batch_bytes = encode_frame(batch);
  for (std::size_t len = 0; len < batch_bytes.size(); ++len) {
    EXPECT_THROW((void)decode_frame(batch_bytes.substr(0, len)), WireError)
        << "batch prefix length " << len;
  }
  EXPECT_EQ(decode_frame(batch_bytes), batch);
}

TEST(WireDecode, BatchCountOverflowDoesNotAllocate) {
  // A batch announcing 2^40 tuples with a few payload bytes must reject
  // before reserving anything.
  std::string bytes;
  bytes.push_back(static_cast<char>(kWireMagic0));
  bytes.push_back(static_cast<char>(kWireMagic1));
  bytes.push_back(static_cast<char>(kWireVersion));
  bytes.push_back(static_cast<char>(Frame::Kind::DataBatch));
  append_varint(bytes, 1);    // seq
  append_varint(bytes, 1);    // src len
  bytes += "a";
  append_varint(bytes, 1);    // dst len
  bytes += "b";
  append_varint(bytes, std::uint64_t{1} << 40);  // batch count
  bytes += "xy";
  EXPECT_EQ(kind_of(bytes), WireErrorKind::LengthOverflow);
}

TEST(WireDecode, TrailingBytesRejected) {
  const std::string bytes = encode_frame(make_ack(1, "a", "b"));
  EXPECT_EQ(kind_of(bytes + '\x00'), WireErrorKind::TrailingBytes);
  const std::string tuple_bytes = encode_tuple(Tuple("p", {Value::integer(1)}));
  try {
    (void)decode_tuple(tuple_bytes + "xx");
    FAIL() << "trailing bytes accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::TrailingBytes);
  }
}

TEST(WireDecode, BadMagicVersionKind) {
  const std::string good = encode_frame(make_ack(1, "a", "b"));
  std::string bad = good;
  bad[0] = 'X';
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadMagic);
  bad = good;
  bad[1] = 'X';
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadMagic);
  bad = good;
  bad[2] = '\x01';  // version 1: pre-batching, no longer spoken
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadVersion);
  bad = good;
  bad[2] = '\x03';  // future version
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadVersion);
  bad = good;
  bad[3] = '\x07';  // kind neither Ack nor DataBatch
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadKind);
  bad = good;
  bad[3] = '\x00';  // the single-tuple frame of version 1, never sent since
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadKind);
}

TEST(WireDecode, BadTagAndBadBool) {
  // frame header + seq + src + dst + count 1 + tuple("p", 1 value)
  Frame f;
  f.kind = Frame::Kind::DataBatch;
  f.seq = 0;
  f.src = "a";
  f.dst = "b";
  f.tuples = {Tuple("p", {Value::boolean(true)})};
  std::string bytes = encode_frame(f);
  // Last two bytes are the Bool tag and its payload byte.
  std::string bad = bytes;
  bad[bytes.size() - 2] = '\x63';  // tag 99: not a ValueKind
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadTag);
  bad = bytes;
  bad[bytes.size() - 1] = '\x02';  // bool payload must be 0 or 1
  EXPECT_EQ(kind_of(bad), WireErrorKind::BadBool);
}

TEST(WireDecode, VarintOverflowRejected) {
  // 10 continuation bytes then more: longer than any minimal 64-bit varint.
  std::string bytes(11, '\x80');
  bytes.push_back('\x01');
  try {
    (void)decode_value(std::string("\x02", 1) + bytes);  // Int tag + varint
    FAIL() << "varint overflow accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::VarintOverflow);
  }
  // 10th byte may only contribute one bit (2^63); 0x7F there overflows.
  std::string max10(9, '\x80');
  max10.push_back('\x7F');
  try {
    (void)decode_value(std::string("\x02", 1) + max10);
    FAIL() << "varint overflow accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::VarintOverflow);
  }
}

TEST(WireDecode, LengthOverflowDoesNotAllocate) {
  // Str announcing 2^40 bytes with 2 bytes of payload: must reject before
  // reserving anything.
  std::string bytes;
  bytes.push_back('\x04');  // Str tag
  append_varint(bytes, std::uint64_t{1} << 40);
  bytes += "ab";
  try {
    (void)decode_value(bytes);
    FAIL() << "length overflow accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::LengthOverflow);
  }
  // Same for a list count.
  std::string list_bytes;
  list_bytes.push_back('\x06');  // List tag
  append_varint(list_bytes, std::uint64_t{1} << 40);
  try {
    (void)decode_value(list_bytes);
    FAIL() << "list count overflow accepted";
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::LengthOverflow);
  }
}

TEST(WireDecode, DepthExceededBothDirections) {
  Value too_deep = Value::integer(1);
  for (std::size_t i = 0; i <= kMaxDepth; ++i) too_deep = Value::list({too_deep});
  try {
    (void)encode_value(too_deep);
    FAIL() << "encode accepted depth " << (kMaxDepth + 1);
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::DepthExceeded);
  }
  // Hand-build the same over-deep encoding: List tag + count 1, repeated.
  std::string bytes;
  for (std::size_t i = 0; i <= kMaxDepth; ++i) bytes += std::string("\x06\x01", 2);
  bytes += std::string("\x02\x02", 2);  // Int 1
  try {
    (void)decode_value(bytes);
    FAIL() << "decode accepted depth " << (kMaxDepth + 1);
  } catch (const WireError& e) {
    EXPECT_EQ(e.kind(), WireErrorKind::DepthExceeded);
  }
}

TEST(WireDecode, RandomMutationsNeverCrash) {
  Frame batch;
  batch.kind = Frame::Kind::DataBatch;
  batch.seq = 99;
  batch.src = "n0";
  batch.dst = "n1";
  batch.tuples = {Tuple("hop", {Value::addr("n1"), Value::list({Value::str("abc")}),
                                Value::integer(-1234567), Value::real(0.5)}),
                  Tuple("p", {Value::integer(7)}),
                  Tuple("q", {Value::addr("n1"), Value::str("xyz")})};
  std::mt19937_64 rng(42);
  for (const std::string& base :
       {encode_frame(make_ack(99, "n1", "n0")), encode_frame(batch)}) {
    std::size_t rejected = 0;
    for (int round = 0; round < 2000; ++round) {
      std::string mutated = base;
      const int mutations = 1 + static_cast<int>(rng() % 3);
      for (int m = 0; m < mutations; ++m) {
        const std::size_t pos = rng() % mutated.size();
        switch (rng() % 3) {
          case 0: mutated[pos] = static_cast<char>(rng() & 0xFF); break;
          case 1: mutated.erase(pos, 1); break;
          default: mutated.insert(pos, 1, static_cast<char>(rng() & 0xFF)); break;
        }
        if (mutated.empty()) mutated = "x";
      }
      try {
        const Frame out = decode_frame(mutated);  // decoding garbage is fine...
        (void)out;
      } catch (const WireError&) {
        ++rejected;  // ...as long as rejection is always the typed error
      }
    }
    EXPECT_GT(rejected, 0u);
  }
}

// ---------------------------------------------------------------------------
// Hex helpers + golden layout pin
// ---------------------------------------------------------------------------

TEST(WireHex, RoundTripAndErrors) {
  const std::string bytes = std::string("\x00\x01\xFF\x46", 4);
  EXPECT_EQ(to_hex(bytes), "0001ff46");
  EXPECT_EQ(from_hex("0001ff46"), bytes);
  EXPECT_EQ(from_hex("00 01\nff\t46"), bytes);  // whitespace ignored
  EXPECT_THROW((void)from_hex("0g"), std::invalid_argument);
  EXPECT_THROW((void)from_hex("abc"), std::invalid_argument);  // odd digits
}

/// The dump pinned by tests/golden/wire/frames.hex. Regenerate deliberately
/// on an intentional format (version) change with:
///   build/tests/test_net_wire --gtest_filter=WireGolden.*
///     --gtest_also_run_disabled_tests  (see DISABLED_Regenerate below)
std::string golden_dump() {
  std::ostringstream os;
  const auto emit = [&os](const std::string& name, const std::string& bytes) {
    os << name << " " << to_hex(bytes) << "\n";
  };
  emit("value_nil", encode_value(Value::nil()));
  emit("value_bool_true", encode_value(Value::boolean(true)));
  emit("value_int_0", encode_value(Value::integer(0)));
  emit("value_int_-1", encode_value(Value::integer(-1)));
  emit("value_int_300", encode_value(Value::integer(300)));
  emit("value_int_min", encode_value(Value::integer(std::numeric_limits<std::int64_t>::min())));
  emit("value_double_1.5", encode_value(Value::real(1.5)));
  emit("value_str_café", encode_value(Value::str("caf\xC3\xA9")));
  emit("value_str_nul", encode_value(Value::str(std::string("a\0b", 3))));
  emit("value_addr_n0", encode_value(Value::addr("n0")));
  emit("value_list", encode_value(Value::list({Value::integer(1), Value::str("x")})));
  emit("tuple_empty", encode_tuple(Tuple("unit", {})));
  emit("tuple_link", encode_tuple(Tuple("link", {Value::addr("n0"), Value::addr("n1"),
                                                 Value::integer(1)})));
  emit("frame_ack", encode_frame(make_ack(300, "n1", "n0")));
  Frame batch;
  batch.kind = Frame::Kind::DataBatch;
  batch.seq = 300;
  batch.src = "n0";
  batch.dst = "n1";
  batch.tuples = {
      Tuple("hop", {Value::addr("n1"), Value::addr("n2"), Value::integer(2)}),
      Tuple("hop", {Value::addr("n1"), Value::addr("n3"), Value::integer(3)}),
  };
  emit("frame_batch", encode_frame(batch));
  emit("frame_batch_empty", [&] {
    Frame empty = batch;
    empty.tuples.clear();
    return encode_frame(empty);
  }());
  return os.str();
}

TEST(WireGolden, Version2LayoutIsPinned) {
  const std::string path =
      std::string(FVN_SOURCE_DIR) + "/tests/golden/wire/frames.hex";
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  EXPECT_EQ(golden_dump(), os.str())
      << "wire format drifted from the version-2 golden; bump kWireVersion "
         "and regenerate deliberately";
  // Every golden line must also decode back to something that re-encodes
  // identically (the dump is self-consistent, not just frozen).
  std::ifstream again(path);
  std::string name, hex;
  while (again >> name >> hex) {
    const std::string bytes = from_hex(hex);
    if (name.rfind("frame_", 0) == 0) {
      EXPECT_EQ(encode_frame(decode_frame(bytes)), bytes) << name;
    } else if (name.rfind("tuple_", 0) == 0) {
      EXPECT_EQ(encode_tuple(decode_tuple(bytes)), bytes) << name;
    } else {
      EXPECT_EQ(encode_value(decode_value(bytes)), bytes) << name;
    }
  }
}

TEST(WireGolden, DISABLED_Regenerate) {
  const std::string path =
      std::string(FVN_SOURCE_DIR) + "/tests/golden/wire/frames.hex";
  std::ofstream out(path);
  ASSERT_TRUE(out.good()) << path;
  out << golden_dump();
}

}  // namespace
}  // namespace fvn::net
