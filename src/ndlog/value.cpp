#include "ndlog/value.hpp"

#include <functional>
#include <limits>
#include <mutex>
#include <sstream>
#include <unordered_map>

namespace fvn::ndlog {

namespace {

constexpr std::size_t kFnvOffset = 1469598103934665603ULL;
constexpr std::size_t kFnvPrime = 1099511628211ULL;

constexpr std::size_t fnv_mix(std::size_t h, std::size_t x) noexcept {
  return (h ^ x) * kFnvPrime;
}

constexpr std::size_t fnv_start(ValueKind kind) noexcept {
  return fnv_mix(kFnvOffset, static_cast<std::size_t>(kind));
}

std::size_t text_hash(ValueKind kind, std::string_view text) noexcept {
  std::size_t h = fnv_start(kind);
  for (char c : text) h = fnv_mix(h, static_cast<unsigned char>(c));
  return h;
}

/// Every symbol of the process, by text (views of the symbols' own text).
/// Append-only and never destroyed: a Value in static storage may name a
/// symbol until the process ends.
struct SymbolTable {
  std::mutex mu;
  std::unordered_map<std::string_view, const Symbol*> by_text;
};

SymbolTable& symbol_table() {
  static auto* table = new SymbolTable;
  return *table;
}

}  // namespace

Symbol::Symbol(std::string_view text)
    : text_(text),
      hashes_{text_hash(ValueKind::Str, text), text_hash(ValueKind::Addr, text)} {}

const Symbol& Symbol::intern(std::string_view text) {
  // Direct-mapped cache of symbols this thread already got: a known text
  // costs one string hash and compare, no lock and no allocation.
  constexpr std::size_t kCacheSlots = 1024;
  thread_local const Symbol* cache[kCacheSlots] = {};
  const Symbol*& slot = cache[std::hash<std::string_view>{}(text) % kCacheSlots];
  if (slot != nullptr && slot->text_ == text) return *slot;
  SymbolTable& table = symbol_table();
  const std::lock_guard lock(table.mu);
  auto it = table.by_text.find(text);
  if (it == table.by_text.end()) {
    const auto* symbol = new Symbol(text);
    it = table.by_text.emplace(symbol->text_, symbol).first;
  }
  slot = it->second;
  return *slot;
}

std::string_view to_string(ValueKind kind) noexcept {
  switch (kind) {
    case ValueKind::Nil: return "nil";
    case ValueKind::Bool: return "bool";
    case ValueKind::Int: return "int";
    case ValueKind::Double: return "double";
    case ValueKind::Str: return "str";
    case ValueKind::Addr: return "addr";
    case ValueKind::List: return "list";
  }
  return "?";
}

Value Value::boolean(bool b) noexcept {
  Value v;
  v.kind_ = ValueKind::Bool;
  v.scalar_.b = b;
  return v;
}

Value Value::integer(std::int64_t i) noexcept {
  Value v;
  v.kind_ = ValueKind::Int;
  v.scalar_.i = i;
  return v;
}

Value Value::real(double d) noexcept {
  Value v;
  v.kind_ = ValueKind::Double;
  v.scalar_.d = d;
  return v;
}

Value Value::str(std::string_view s) {
  Value v;
  v.kind_ = ValueKind::Str;
  v.scalar_.sym = &Symbol::intern(s);
  return v;
}

Value Value::addr(std::string_view node) {
  Value v;
  v.kind_ = ValueKind::Addr;
  v.scalar_.sym = &Symbol::intern(node);
  return v;
}

Value Value::list(std::vector<Value> items) {
  std::size_t h = fnv_start(ValueKind::List);
  for (const auto& item : items) h = fnv_mix(h, item.hash());
  Value v;
  v.kind_ = ValueKind::List;
  v.list_ = std::make_shared<const List>(List{std::move(items), h});
  return v;
}

namespace {
[[noreturn]] void bad_kind(const char* want, ValueKind got) {
  std::ostringstream os;
  os << "value type error: expected " << want << ", got " << to_string(got);
  throw TypeError(os.str());
}
}  // namespace

bool Value::as_bool() const {
  if (!is_bool()) bad_kind("bool", kind_);
  return scalar_.b;
}

std::int64_t Value::as_int() const {
  if (!is_int()) bad_kind("int", kind_);
  return scalar_.i;
}

double Value::as_double() const {
  if (is_int()) return static_cast<double>(scalar_.i);
  if (!is_double()) bad_kind("double", kind_);
  return scalar_.d;
}

const std::string& Value::as_str() const {
  if (!is_str()) bad_kind("str", kind_);
  return scalar_.sym->text();
}

const std::string& Value::as_addr() const {
  if (!is_addr()) bad_kind("addr", kind_);
  return scalar_.sym->text();
}

const std::string& Value::as_text() const { return as_symbol().text(); }

const Symbol& Value::as_symbol() const {
  if (!is_str() && !is_addr()) bad_kind("str|addr", kind_);
  return *scalar_.sym;
}

const std::vector<Value>& Value::as_list() const {
  if (!is_list()) bad_kind("list", kind_);
  return list_->items;
}

namespace {

/// Two numbers by value, exactly: a long double holds every int64 and every
/// double, so neither is rounded. NaN, unordered, counts as equivalent, as
/// operator<=> makes it equal to every double.
std::weak_ordering numbers_by_value(const Value& a, const Value& b) {
  static_assert(std::numeric_limits<long double>::digits >= 64);
  const auto exact = [](const Value& v) -> long double {
    return v.is_int() ? static_cast<long double>(v.as_int()) : v.as_double();
  };
  const auto c = exact(a) <=> exact(b);
  if (c < 0) return std::weak_ordering::less;
  if (c > 0) return std::weak_ordering::greater;
  return std::weak_ordering::equivalent;
}

}  // namespace

std::weak_ordering order_by_value(const Value& lhs, const Value& rhs) {
  if (lhs.kind() != rhs.kind() && lhs.is_numeric() && rhs.is_numeric()) {
    return numbers_by_value(lhs, rhs);
  }
  return lhs <=> rhs;
}

std::strong_ordering Value::operator<=>(const Value& other) const {
  if (kind_ != other.kind_) {
    if (is_numeric() && other.is_numeric()) {
      const auto by_value = numbers_by_value(*this, other);
      if (by_value < 0) return std::strong_ordering::less;
      if (by_value > 0) return std::strong_ordering::greater;
    }
    return kind_ <=> other.kind_;
  }
  switch (kind_) {
    case ValueKind::Nil: return std::strong_ordering::equal;
    case ValueKind::Bool: return scalar_.b <=> other.scalar_.b;
    case ValueKind::Int: return scalar_.i <=> other.scalar_.i;
    case ValueKind::Double: {
      // Doubles only flow from user programs with finite metrics; order by
      // bit-faithful partial order collapsed to strong ordering.
      if (scalar_.d < other.scalar_.d) return std::strong_ordering::less;
      if (scalar_.d > other.scalar_.d) return std::strong_ordering::greater;
      return std::strong_ordering::equal;
    }
    case ValueKind::Str:
    case ValueKind::Addr: {
      if (scalar_.sym == other.scalar_.sym) return std::strong_ordering::equal;
      // Distinct symbols have distinct texts.
      return scalar_.sym->text().compare(other.scalar_.sym->text()) < 0
                 ? std::strong_ordering::less
                 : std::strong_ordering::greater;
    }
    case ValueKind::List: {
      if (list_ == other.list_) return std::strong_ordering::equal;
      const auto& a = list_->items;
      const auto& b = other.list_->items;
      const std::size_t n = std::min(a.size(), b.size());
      for (std::size_t i = 0; i < n; ++i) {
        const auto c = a[i] <=> b[i];
        if (c != std::strong_ordering::equal) return c;
      }
      return a.size() <=> b.size();
    }
  }
  return std::strong_ordering::equal;
}

bool Value::list_equal(const List& a, const List& b) noexcept {
  if (&a == &b) return true;
  if (a.hash != b.hash) return false;  // equal lists hash alike
  return a.items == b.items;
}

namespace {
bool both_numeric(const Value& a, const Value& b) {
  return a.is_numeric() && b.is_numeric();
}
}  // namespace

Value Value::add(const Value& rhs) const {
  if (is_list() && rhs.is_list()) {  // list concatenation
    std::vector<Value> out = as_list();
    const auto& r = rhs.as_list();
    out.insert(out.end(), r.begin(), r.end());
    return Value::list(std::move(out));
  }
  if ((is_str() && rhs.is_str())) return Value::str(as_str() + rhs.as_str());
  if (!both_numeric(*this, rhs)) bad_kind("numeric", kind_);
  if (is_int() && rhs.is_int()) return Value::integer(as_int() + rhs.as_int());
  return Value::real(as_double() + rhs.as_double());
}

Value Value::sub(const Value& rhs) const {
  if (!both_numeric(*this, rhs)) bad_kind("numeric", kind_);
  if (is_int() && rhs.is_int()) return Value::integer(as_int() - rhs.as_int());
  return Value::real(as_double() - rhs.as_double());
}

Value Value::mul(const Value& rhs) const {
  if (!both_numeric(*this, rhs)) bad_kind("numeric", kind_);
  if (is_int() && rhs.is_int()) return Value::integer(as_int() * rhs.as_int());
  return Value::real(as_double() * rhs.as_double());
}

Value Value::div(const Value& rhs) const {
  if (!both_numeric(*this, rhs)) bad_kind("numeric", kind_);
  if (is_int() && rhs.is_int()) {
    if (rhs.as_int() == 0) throw TypeError("integer division by zero");
    return Value::integer(as_int() / rhs.as_int());
  }
  if (rhs.as_double() == 0.0) throw TypeError("division by zero");
  return Value::real(as_double() / rhs.as_double());
}

Value Value::mod(const Value& rhs) const {
  if (!is_int() || !rhs.is_int()) bad_kind("int", kind_);
  if (rhs.as_int() == 0) throw TypeError("modulo by zero");
  return Value::integer(as_int() % rhs.as_int());
}

std::string Value::to_string() const {
  switch (kind_) {
    case ValueKind::Nil: return "nil";
    case ValueKind::Bool: return scalar_.b ? "true" : "false";
    case ValueKind::Int: return std::to_string(scalar_.i);
    case ValueKind::Double: {
      std::ostringstream os;
      os << scalar_.d;
      return os.str();
    }
    case ValueKind::Str: {
      std::string out = "\"";
      for (const char c : scalar_.sym->text()) {
        switch (c) {
          case '\\': out += "\\\\"; break;
          case '"': out += "\\\""; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default: out += c; break;
        }
      }
      return out + "\"";
    }
    case ValueKind::Addr: return scalar_.sym->text();
    case ValueKind::List: {
      std::string out = "[";
      bool first = true;
      for (const auto& v : list_->items) {
        if (!first) out += ",";
        first = false;
        out += v.to_string();
      }
      out += "]";
      return out;
    }
  }
  return "?";
}

std::size_t Value::scalar_hash() const noexcept {
  const std::size_t h = fnv_start(kind_);
  switch (kind_) {
    case ValueKind::Bool: return fnv_mix(h, scalar_.b ? 1u : 0u);
    case ValueKind::Int: return fnv_mix(h, static_cast<std::size_t>(scalar_.i));
    case ValueKind::Double: {
      // -0.0 == 0.0, so both hash as +0.0; every other double by its bits.
      const double d = scalar_.d == 0.0 ? 0.0 : scalar_.d;
      std::size_t bits = 0;
      static_assert(sizeof(bits) >= sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(d));
      return fnv_mix(h, bits);
    }
    default: return h;  // Nil; texts and lists carry their hash
  }
}

std::size_t hash_values(const std::vector<Value>& values) noexcept {
  std::size_t h = 0x9e3779b97f4a7c15ULL;
  for (const auto& v : values) {
    h ^= v.hash() + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  }
  return h;
}

}  // namespace fvn::ndlog
