#include "net/wire.hpp"

#include <cstring>

namespace fvn::net {

using ndlog::Tuple;
using ndlog::Value;
using ndlog::ValueKind;

std::string_view to_string(WireErrorKind kind) noexcept {
  switch (kind) {
    case WireErrorKind::Truncated: return "truncated";
    case WireErrorKind::BadMagic: return "bad-magic";
    case WireErrorKind::BadVersion: return "bad-version";
    case WireErrorKind::BadKind: return "bad-kind";
    case WireErrorKind::BadTag: return "bad-tag";
    case WireErrorKind::BadBool: return "bad-bool";
    case WireErrorKind::VarintOverflow: return "varint-overflow";
    case WireErrorKind::LengthOverflow: return "length-overflow";
    case WireErrorKind::DepthExceeded: return "depth-exceeded";
    case WireErrorKind::TrailingBytes: return "trailing-bytes";
  }
  return "unknown";
}

namespace {

[[noreturn]] void fail(WireErrorKind kind, const std::string& detail) {
  throw WireError(kind, "wire: " + std::string(to_string(kind)) + ": " + detail);
}

/// Bounds-checked cursor over the input. Every read validates against
/// remaining() before touching (or allocating for) the payload.
struct Reader {
  std::string_view data;
  std::size_t pos = 0;

  std::size_t remaining() const noexcept { return data.size() - pos; }

  std::uint8_t byte(const char* what) {
    if (remaining() < 1) fail(WireErrorKind::Truncated, what);
    return static_cast<std::uint8_t>(data[pos++]);
  }

  std::uint64_t varint(const char* what) {
    std::uint64_t value = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      const std::uint8_t b = byte(what);
      // The 10th byte may only contribute the final bit of a 64-bit value.
      if (i == 9 && (b & ~std::uint8_t{0x01}) != 0) {
        fail(WireErrorKind::VarintOverflow, what);
      }
      value |= static_cast<std::uint64_t>(b & 0x7F) << (7 * i);
      if ((b & 0x80) == 0) return value;
    }
    fail(WireErrorKind::VarintOverflow, what);
  }

  std::string str(const char* what) {
    const std::uint64_t len = varint(what);
    if (len > remaining()) fail(WireErrorKind::LengthOverflow, what);
    std::string out(data.substr(pos, static_cast<std::size_t>(len)));
    pos += static_cast<std::size_t>(len);
    return out;
  }
};

std::int64_t zigzag_decode(std::uint64_t v) noexcept {
  return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

Value read_value(Reader& r, std::size_t depth) {
  const std::uint8_t tag = r.byte("value tag");
  switch (tag) {
    case static_cast<std::uint8_t>(ValueKind::Nil):
      return Value::nil();
    case static_cast<std::uint8_t>(ValueKind::Bool): {
      const std::uint8_t b = r.byte("bool payload");
      if (b > 1) fail(WireErrorKind::BadBool, "byte " + std::to_string(b));
      return Value::boolean(b == 1);
    }
    case static_cast<std::uint8_t>(ValueKind::Int):
      return Value::integer(zigzag_decode(r.varint("int payload")));
    case static_cast<std::uint8_t>(ValueKind::Double): {
      if (r.remaining() < 8) fail(WireErrorKind::Truncated, "double payload");
      std::uint64_t bits = 0;
      for (std::size_t i = 0; i < 8; ++i) {
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint8_t>(r.data[r.pos + i]))
                << (8 * i);
      }
      r.pos += 8;
      double d;
      static_assert(sizeof(d) == sizeof(bits));
      std::memcpy(&d, &bits, sizeof(d));
      return Value::real(d);
    }
    case static_cast<std::uint8_t>(ValueKind::Str):
      return Value::str(r.str("string payload"));
    case static_cast<std::uint8_t>(ValueKind::Addr):
      return Value::addr(r.str("addr payload"));
    case static_cast<std::uint8_t>(ValueKind::List): {
      if (depth >= kMaxDepth) {
        fail(WireErrorKind::DepthExceeded, "list nesting > " + std::to_string(kMaxDepth));
      }
      const std::uint64_t count = r.varint("list count");
      // Every element costs at least its tag byte; a count beyond the
      // remaining input is corrupt and must not drive the reserve below.
      if (count > r.remaining()) fail(WireErrorKind::LengthOverflow, "list count");
      std::vector<Value> items;
      items.reserve(static_cast<std::size_t>(count));
      for (std::uint64_t i = 0; i < count; ++i) {
        items.push_back(read_value(r, depth + 1));
      }
      return Value::list(std::move(items));
    }
    default:
      fail(WireErrorKind::BadTag, "tag " + std::to_string(tag));
  }
}

Tuple read_tuple(Reader& r) {
  std::string predicate = r.str("tuple predicate");
  const std::uint64_t arity = r.varint("tuple arity");
  if (arity > r.remaining()) fail(WireErrorKind::LengthOverflow, "tuple arity");
  std::vector<Value> values;
  values.reserve(static_cast<std::size_t>(arity));
  for (std::uint64_t i = 0; i < arity; ++i) {
    values.push_back(read_value(r, 0));
  }
  return Tuple(std::move(predicate), std::move(values));
}

void require_consumed(const Reader& r, const char* what) {
  if (r.remaining() != 0) {
    fail(WireErrorKind::TrailingBytes,
         std::string(what) + ": " + std::to_string(r.remaining()) + " bytes left");
  }
}

void append_str(std::string& out, std::string_view s) {
  append_varint(out, s.size());
  out.append(s.data(), s.size());
}

void append_value_at_depth(std::string& out, const Value& value, std::size_t depth) {
  out.push_back(static_cast<char>(value.kind()));
  switch (value.kind()) {
    case ValueKind::Nil:
      break;
    case ValueKind::Bool:
      out.push_back(value.as_bool() ? '\x01' : '\x00');
      break;
    case ValueKind::Int:
      append_signed_varint(out, value.as_int());
      break;
    case ValueKind::Double: {
      std::uint64_t bits;
      const double d = value.as_double();
      std::memcpy(&bits, &d, sizeof(bits));
      for (std::size_t i = 0; i < 8; ++i) {
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
      }
      break;
    }
    case ValueKind::Str:
      append_str(out, value.as_str());
      break;
    case ValueKind::Addr:
      append_str(out, value.as_addr());
      break;
    case ValueKind::List: {
      if (depth >= kMaxDepth) {
        fail(WireErrorKind::DepthExceeded, "list nesting > " + std::to_string(kMaxDepth));
      }
      const auto& items = value.as_list();
      append_varint(out, items.size());
      for (const auto& item : items) append_value_at_depth(out, item, depth + 1);
      break;
    }
  }
}

}  // namespace

void append_varint(std::string& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<char>((v & 0x7F) | 0x80));
    v >>= 7;
  }
  out.push_back(static_cast<char>(v));
}

void append_signed_varint(std::string& out, std::int64_t v) {
  // Zigzag: 0,-1,1,-2,... -> 0,1,2,3,... so small magnitudes stay short and
  // INT64_MIN maps to UINT64_MAX (round-trip exact).
  append_varint(out, (static_cast<std::uint64_t>(v) << 1) ^
                         static_cast<std::uint64_t>(v >> 63));
}

void append_value(std::string& out, const Value& value) {
  append_value_at_depth(out, value, 0);
}

void append_tuple(std::string& out, const Tuple& tuple) {
  append_str(out, tuple.predicate());
  append_varint(out, tuple.arity());
  for (const auto& v : tuple.values()) append_value(out, v);
}

std::string encode_tuple(const Tuple& tuple) {
  std::string out;
  append_tuple(out, tuple);
  return out;
}

std::string encode_value(const Value& value) {
  std::string out;
  append_value(out, value);
  return out;
}

std::string encode_frame(const Frame& frame) {
  std::string out;
  out.push_back(static_cast<char>(kWireMagic0));
  out.push_back(static_cast<char>(kWireMagic1));
  out.push_back(static_cast<char>(kWireVersion));
  out.push_back(static_cast<char>(frame.kind));
  append_varint(out, frame.seq);
  append_str(out, frame.src);
  append_str(out, frame.dst);
  if (frame.kind == Frame::Kind::DataBatch) {
    append_varint(out, frame.tuples.size());
    for (const auto& t : frame.tuples) append_tuple(out, t);
  }
  return out;
}

Tuple decode_tuple(std::string_view bytes) {
  Reader r{bytes};
  Tuple tuple = read_tuple(r);
  require_consumed(r, "tuple");
  return tuple;
}

Value decode_value(std::string_view bytes) {
  Reader r{bytes};
  Value value = read_value(r, 0);
  require_consumed(r, "value");
  return value;
}

Frame decode_frame(std::string_view bytes) {
  Reader r{bytes};
  if (r.remaining() < 2) fail(WireErrorKind::Truncated, "frame magic");
  if (r.byte("magic") != kWireMagic0 || r.byte("magic") != kWireMagic1) {
    fail(WireErrorKind::BadMagic, "frame does not start with 'F' 'V'");
  }
  const std::uint8_t version = r.byte("version");
  if (version != kWireVersion) {
    fail(WireErrorKind::BadVersion, "version " + std::to_string(version));
  }
  const std::uint8_t kind = r.byte("frame kind");
  if (kind != static_cast<std::uint8_t>(Frame::Kind::Ack) &&
      kind != static_cast<std::uint8_t>(Frame::Kind::DataBatch)) {
    fail(WireErrorKind::BadKind, "kind " + std::to_string(kind));
  }
  Frame frame;
  frame.kind = static_cast<Frame::Kind>(kind);
  frame.seq = r.varint("frame seq");
  frame.src = r.str("frame src");
  frame.dst = r.str("frame dst");
  if (frame.kind == Frame::Kind::DataBatch) {
    const std::uint64_t count = r.varint("batch count");
    // Every tuple costs at least its predicate length byte + arity byte; a
    // count beyond the remaining input is corrupt and must not drive the
    // reserve below.
    if (count > r.remaining()) fail(WireErrorKind::LengthOverflow, "batch count");
    frame.tuples.reserve(static_cast<std::size_t>(count));
    for (std::uint64_t i = 0; i < count; ++i) frame.tuples.push_back(read_tuple(r));
  }
  require_consumed(r, "frame");
  return frame;
}

std::string to_hex(std::string_view bytes) {
  static const char* digits = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char c : bytes) {
    const auto b = static_cast<std::uint8_t>(c);
    out.push_back(digits[b >> 4]);
    out.push_back(digits[b & 0x0F]);
  }
  return out;
}

std::string from_hex(std::string_view hex) {
  auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  int pending = -1;
  for (const char c : hex) {
    if (c == ' ' || c == '\n' || c == '\r' || c == '\t') continue;
    const int n = nibble(c);
    if (n < 0) throw std::invalid_argument("from_hex: non-hex character");
    if (pending < 0) {
      pending = n;
    } else {
      out.push_back(static_cast<char>((pending << 4) | n));
      pending = -1;
    }
  }
  if (pending >= 0) throw std::invalid_argument("from_hex: odd digit count");
  return out;
}

}  // namespace fvn::net
