// fvn::net wire format — the versioned binary codec that carries NDlog
// tuples between distributed nodes (DESIGN.md §12). The simulator never
// needed one (tuples crossed "links" as in-process objects); real transports
// need bytes, and bytes need a format that is
//
//   * deterministic: one tuple has exactly one encoding (varints are
//     minimal-length, doubles are fixed little-endian), so golden hex dumps
//     pin the format and message byte counts are comparable across runs;
//   * self-delimiting: every frame starts with magic + version, every string
//     and list is length-prefixed;
//   * fuzz-resistant: decode never trusts a length or count before checking
//     it against the bytes actually present, never recurses past a fixed
//     depth, and rejects any malformed input with a typed WireError instead
//     of allocating, crashing, or silently truncating.
//
// Layout (version 2, all multi-byte integers as LEB128 varints unless noted):
//
//   frame     := 0x46 0x56 ('F' 'V')  version(2)  kind  payload
//   kind      := 0x01 Ack | 0x02 DataBatch   (0x00, version 1's single-tuple
//                                             frame, is retired: BadKind)
//   Ack       := varint(seq) str(src) str(dst)      // src = acker; seq is the
//                                                   // *cumulative* highest
//                                                   // in-order batch delivered
//   DataBatch := varint(seq) str(src) str(dst) varint(count) tuple*
//   tuple     := str(predicate) varint(arity) value*
//   value   := tag payload
//     tag 0 Nil     (no payload)
//     tag 1 Bool    one byte, 0x00 or 0x01 (anything else is BadBool)
//     tag 2 Int     zigzag varint (INT64_MIN round-trips)
//     tag 3 Double  8 bytes, IEEE-754 little-endian
//     tag 4 Str     str
//     tag 5 Addr    str
//     tag 6 List    varint(count) value*   (nesting capped at kMaxDepth)
//   str     := varint(len) raw bytes (embedded NUL and non-ASCII preserved)
//
// tests/golden/wire/ holds hex dumps of representative encodings; the format
// cannot change silently without failing those goldens.
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "ndlog/tuple.hpp"

namespace fvn::net {

inline constexpr std::uint8_t kWireMagic0 = 0x46;  // 'F'
inline constexpr std::uint8_t kWireMagic1 = 0x56;  // 'V'
/// Version 2 added DataBatch (one frame carrying a whole delta round per
/// channel); version-1 decoders reject it, so the version byte was bumped.
inline constexpr std::uint8_t kWireVersion = 2;
/// Maximum List nesting decode() accepts (encode of deeper values throws too,
/// so the limit is symmetric and round trips stay total).
inline constexpr std::size_t kMaxDepth = 32;

/// Why a decode (or, for DepthExceeded, an encode) was rejected.
enum class WireErrorKind : std::uint8_t {
  Truncated,       ///< input ended before the announced structure did
  BadMagic,        ///< frame does not start with 'F' 'V'
  BadVersion,      ///< version byte is not kWireVersion
  BadKind,         ///< frame kind byte is neither Ack nor DataBatch
  BadTag,          ///< value tag is not a ValueKind
  BadBool,         ///< bool payload byte is neither 0 nor 1
  VarintOverflow,  ///< varint longer than 10 bytes or overflowing 64 bits
  LengthOverflow,  ///< announced length/count exceeds the remaining bytes
  DepthExceeded,   ///< list nesting beyond kMaxDepth
  TrailingBytes,   ///< well-formed prefix followed by extra bytes
};

std::string_view to_string(WireErrorKind kind) noexcept;

/// Typed decode failure. The transports treat every WireError as a corrupt
/// frame: counted, dropped, never delivered.
class WireError : public std::runtime_error {
 public:
  WireError(WireErrorKind kind, const std::string& what)
      : std::runtime_error(what), kind_(kind) {}
  WireErrorKind kind() const noexcept { return kind_; }

 private:
  WireErrorKind kind_;
};

/// One transport frame: the cumulative ack for a channel, or a batch
/// carrying one delta round's worth of tuples. `seq` numbers are per
/// directed (sender, receiver) channel and count *frames* (a batch consumes
/// one seq regardless of how many tuples it carries).
struct Frame {
  enum class Kind : std::uint8_t { Ack = 1, DataBatch = 2 };
  Kind kind = Kind::DataBatch;
  std::uint64_t seq = 0;
  std::string src;  ///< DataBatch: sending node. Ack: the acking node.
  std::string dst;  ///< DataBatch: receiving node. Ack: the original sender.
  std::vector<ndlog::Tuple> tuples;  ///< DataBatch only; in-order payload.

  bool operator==(const Frame& other) const {
    return kind == other.kind && seq == other.seq && src == other.src &&
           dst == other.dst && (kind == Kind::Ack || tuples == other.tuples);
  }
};

// --- Low-level building blocks (exposed for tests and goldens) --------------

/// Append a LEB128 varint / zigzag-encoded signed varint.
void append_varint(std::string& out, std::uint64_t v);
void append_signed_varint(std::string& out, std::int64_t v);

/// Append one value / tuple in the layout above. Throws WireError
/// (DepthExceeded) for lists nested beyond kMaxDepth.
void append_value(std::string& out, const ndlog::Value& value);
void append_tuple(std::string& out, const ndlog::Tuple& tuple);

// --- Whole-message codecs ---------------------------------------------------

std::string encode_tuple(const ndlog::Tuple& tuple);
std::string encode_value(const ndlog::Value& value);
std::string encode_frame(const Frame& frame);

/// Strict decoders: consume the whole input or throw (TrailingBytes).
ndlog::Tuple decode_tuple(std::string_view bytes);
ndlog::Value decode_value(std::string_view bytes);
Frame decode_frame(std::string_view bytes);

// --- Hex helpers (goldens, debugging) ---------------------------------------

/// Lowercase hex, no separators ("4656...").
std::string to_hex(std::string_view bytes);
/// Inverse of to_hex; ignores ASCII whitespace; throws std::invalid_argument
/// on non-hex characters or odd digit counts.
std::string from_hex(std::string_view hex);

}  // namespace fvn::net
