// FVN — Formally Verifiable Networking (HotNets 2009 reproduction).
//
// NDlog value system. Every attribute of an NDlog tuple is a Value: a
// dynamically-typed, immutable datum. The dialect in the paper manipulates
// integers (metrics), node addresses ("@S"), booleans (f_inPath(P,S)=false),
// strings, doubles and path vectors (lists built by f_init / f_concatPath).
//
// Values form a total order (kind-major, then value; Int and Double share
// one rank and order by value) so they can key std::map-based indices and
// drive aggregate selection deterministically.
//
// Texts are interned: every Str and Addr value points at the one immutable
// Symbol of its text, and a list shares one payload that carries its hash,
// so equality compares a kind and one word, hash() is one load, and a copy
// touches no text (DESIGN.md §18).
#pragma once

#include <compare>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace fvn::ndlog {

/// Discriminator for Value. Order matters: it defines the kind-major total
/// order used when heterogeneous values are compared.
enum class ValueKind : std::uint8_t {
  Nil = 0,  ///< absent / uninitialized
  Bool,
  Int,
  Double,
  Str,
  Addr,  ///< a network node address (location-specifier domain)
  List,  ///< a path vector (sequence of values)
};

/// Human-readable kind name ("int", "addr", ...).
std::string_view to_string(ValueKind kind) noexcept;

/// Thrown on ill-typed value operations (e.g. adding a list to a bool).
class TypeError : public std::runtime_error {
 public:
  explicit TypeError(const std::string& what) : std::runtime_error(what) {}
};

/// The interned payload of every Str and Addr value with one text. Symbols
/// live in one process-wide, append-only table and are never freed, so equal
/// texts share one Symbol and its address stands for the text. It also
/// holds Value::hash() of str(text) and of addr(text), computed once.
class Symbol {
 public:
  /// The symbol of `text`, created on first use. Safe from any thread; a
  /// text the calling thread interned before is found without a lock.
  static const Symbol& intern(std::string_view text);

  const std::string& text() const noexcept { return text_; }
  /// Value::hash() of the Str (kind Str) or Addr (kind Addr) of this text.
  std::size_t hash(ValueKind kind) const noexcept { return hashes_[kind == ValueKind::Addr]; }

  Symbol(const Symbol&) = delete;
  Symbol& operator=(const Symbol&) = delete;

 private:
  explicit Symbol(std::string_view text);

  std::string text_;
  std::size_t hashes_[2];  // Str, Addr
};

/// An immutable dynamically-typed datum. Cheap to copy: scalars and symbols
/// are inline, lists share ownership of their payload.
class Value {
 public:
  Value() noexcept : kind_(ValueKind::Nil) {}

  static Value nil() noexcept { return Value{}; }
  static Value boolean(bool b) noexcept;
  static Value integer(std::int64_t i) noexcept;
  static Value real(double d) noexcept;
  static Value str(std::string_view s);
  static Value addr(std::string_view node);
  static Value list(std::vector<Value> items);

  ValueKind kind() const noexcept { return kind_; }
  bool is_nil() const noexcept { return kind_ == ValueKind::Nil; }
  bool is_bool() const noexcept { return kind_ == ValueKind::Bool; }
  bool is_int() const noexcept { return kind_ == ValueKind::Int; }
  bool is_double() const noexcept { return kind_ == ValueKind::Double; }
  bool is_str() const noexcept { return kind_ == ValueKind::Str; }
  bool is_addr() const noexcept { return kind_ == ValueKind::Addr; }
  bool is_list() const noexcept { return kind_ == ValueKind::List; }
  /// Int or Double.
  bool is_numeric() const noexcept { return is_int() || is_double(); }

  /// Accessors throw TypeError when the kind does not match.
  bool as_bool() const;
  std::int64_t as_int() const;
  double as_double() const;  ///< accepts Int (widening) and Double
  const std::string& as_str() const;
  const std::string& as_addr() const;
  const std::vector<Value>& as_list() const;

  /// String payload of either a Str or an Addr.
  const std::string& as_text() const;
  /// The interned symbol of either a Str or an Addr: one per text, so its
  /// address stands for the text.
  const Symbol& as_symbol() const;

  /// Total order: kind-major, then payload; an Int and a Double compare by
  /// value, exactly, the Int first at equal values. Texts compare by their
  /// characters (never by symbol address), lists lexicographically.
  std::strong_ordering operator<=>(const Value& other) const;
  /// Same as `(*this <=> other) == 0` (NaN aside, DESIGN §18), in one
  /// word compare for texts.
  bool operator==(const Value& other) const noexcept;

  /// Arithmetic (Int/Int stays Int; any Double operand promotes).
  Value add(const Value& rhs) const;
  Value sub(const Value& rhs) const;
  Value mul(const Value& rhs) const;
  Value div(const Value& rhs) const;  ///< throws TypeError on division by zero
  Value mod(const Value& rhs) const;  ///< Int only

  /// Rendering as NDlog literal text ("[n1,n2]", "\"abc\"", "17", "n3") that
  /// ndlog::tokenize reads back: a string escapes `\`, `"`, newline and tab.
  std::string to_string() const;

  /// FNV-1a style hash, consistent with operator== (-0.0 and 0.0 hash
  /// alike) except for NaN, which the order calls equal to every double.
  std::size_t hash() const noexcept;

 private:
  struct List;
  std::size_t scalar_hash() const noexcept;
  static bool list_equal(const List& a, const List& b) noexcept;

  ValueKind kind_;
  union Scalar {
    bool b;
    std::int64_t i;
    double d;
    const Symbol* sym;  // Str / Addr
    Scalar() : i(0) {}
  } scalar_{};
  std::shared_ptr<const List> list_;  // List
};

/// A list payload, shared by every copy of the list value.
struct Value::List {
  std::vector<Value> items;
  std::size_t hash;  ///< Value::hash() of the list, computed once
};

inline bool Value::operator==(const Value& other) const noexcept {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case ValueKind::Nil: return true;
    case ValueKind::Bool: return scalar_.b == other.scalar_.b;
    case ValueKind::Int: return scalar_.i == other.scalar_.i;
    case ValueKind::Double:  // as operator<=>: -0.0 == 0.0
      return !(scalar_.d < other.scalar_.d) && !(scalar_.d > other.scalar_.d);
    case ValueKind::Str:
    case ValueKind::Addr: return scalar_.sym == other.scalar_.sym;
    case ValueKind::List: return list_equal(*list_, *other.list_);
  }
  return true;
}

inline std::size_t Value::hash() const noexcept {
  switch (kind_) {
    case ValueKind::Str:
    case ValueKind::Addr: return scalar_.sym->hash(kind_);
    case ValueKind::List: return list_->hash;
    default: return scalar_hash();
  }
}

struct ValueHash {
  std::size_t operator()(const Value& v) const noexcept { return v.hash(); }
};

/// The order NDlog's `<`, `<=`, `>` and `>=` read: operator<=>, except
/// that an Int and a Double of equal value are equivalent, so `3 <= 3.0`
/// and `3 >= 3.0` hold and `3 < 3.0` does not.
std::weak_ordering order_by_value(const Value& lhs, const Value& rhs);

/// Hash of a value sequence (tuple bodies, keys).
std::size_t hash_values(const std::vector<Value>& values) noexcept;

struct ValuesHash {
  std::size_t operator()(const std::vector<Value>& values) const noexcept {
    return hash_values(values);
  }
};

}  // namespace fvn::ndlog
