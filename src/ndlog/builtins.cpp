#include "ndlog/builtins.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

namespace fvn::ndlog {

namespace {

bool contains(const Value& list, const Value& item) {
  const auto& items = list.as_list();
  return std::find(items.begin(), items.end(), item) != items.end();
}

const std::vector<Value>& nonempty(const Value& list, const char* fn) {
  const auto& items = list.as_list();
  if (items.empty()) throw TypeError(std::string(fn) + ": empty list");
  return items;
}

Value f_abs(std::span<const Value> a) {
  if (a[0].is_int()) return Value::integer(std::abs(a[0].as_int()));
  return Value::real(std::abs(a[0].as_double()));
}

Value f_append(std::span<const Value> a) {
  std::vector<Value> out = a[0].as_list();
  out.push_back(a[1]);
  return Value::list(std::move(out));
}

Value f_concat_path(std::span<const Value> a) {
  const auto& rest = a[1].as_list();
  std::vector<Value> out;
  out.reserve(rest.size() + 1);
  out.push_back(a[0]);
  out.insert(out.end(), rest.begin(), rest.end());
  return Value::list(std::move(out));
}

Value f_head(std::span<const Value> a) { return nonempty(a[0], "f_head").front(); }

Value f_in_path(std::span<const Value> a) { return Value::boolean(contains(a[0], a[1])); }

Value f_init(std::span<const Value> a) { return Value::list({a[0], a[1]}); }

Value f_last(std::span<const Value> a) { return nonempty(a[0], "f_last").back(); }

Value f_list(std::span<const Value> a) {
  return Value::list(std::vector<Value>(a.begin(), a.end()));
}

Value f_max(std::span<const Value> a) { return a[0] < a[1] ? a[1] : a[0]; }

Value f_min(std::span<const Value> a) { return a[0] < a[1] ? a[0] : a[1]; }

Value f_reverse(std::span<const Value> a) {
  std::vector<Value> out = a[0].as_list();
  std::reverse(out.begin(), out.end());
  return Value::list(std::move(out));
}

Value f_size(std::span<const Value> a) {
  return Value::integer(static_cast<std::int64_t>(a[0].as_list().size()));
}

Value f_tail(std::span<const Value> a) {
  const auto& items = nonempty(a[0], "f_tail");
  return Value::list(std::vector<Value>(items.begin() + 1, items.end()));
}

constexpr Builtin kTable[] = {
    {.name = "f_abs", .arity = 1, .fn = f_abs},
    {.name = "f_append", .arity = 2, .fn = f_append, .builds_list = true,
     .grows_list = true},
    {.name = "f_concatPath", .arity = 2, .fn = f_concat_path, .builds_list = true,
     .grows_list = true},
    {.name = "f_head", .arity = 1, .fn = f_head},
    {.name = "f_inPath", .arity = 2, .fn = f_in_path, .membership = true},
    {.name = "f_init", .arity = 2, .fn = f_init, .builds_list = true},
    {.name = "f_last", .arity = 1, .fn = f_last},
    {.name = "f_list", .arity = Builtin::kVariadic, .fn = f_list, .builds_list = true},
    {.name = "f_max", .arity = 2, .fn = f_max},
    {.name = "f_member", .arity = 2, .fn = f_in_path, .membership = true},
    {.name = "f_min", .arity = 2, .fn = f_min},
    {.name = "f_reverse", .arity = 1, .fn = f_reverse},
    {.name = "f_size", .arity = 1, .fn = f_size, .length = true},
    {.name = "f_tail", .arity = 1, .fn = f_tail},
};

}  // namespace

Value Builtin::call(std::span<const Value> args) const {
  if (!accepts(args.size())) {
    throw TypeError(std::string(name) + ": expected " + std::to_string(arity) +
                    " arguments, got " + std::to_string(args.size()));
  }
  return fn(args);
}

std::span<const Builtin> builtin_table() noexcept { return kTable; }

const Builtin* find_builtin(std::string_view name) noexcept {
  for (const Builtin& fn : kTable) {
    if (fn.name == name) return &fn;
  }
  return nullptr;
}

Value call_builtin(std::string_view name, std::span<const Value> args) {
  const Builtin* fn = find_builtin(name);
  if (fn == nullptr) {
    throw TypeError("unknown built-in function '" + std::string(name) + "'");
  }
  return fn->call(args);
}

}  // namespace fvn::ndlog
