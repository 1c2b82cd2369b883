// The NDlog builtin library: the paper's `f_*` path functions plus P2's list
// and arithmetic helpers, in one fixed table of pure functions, so the
// checker's cached local step and the runtimes' strands compute the same
// function (DESIGN §14.3). dataflow::compile_term binds each call to its
// entry; check_safety reports an unknown name or a wrong argument count as
// ND0004. Each entry carries the properties the analyzers ask about, so no
// pass keeps a list of names of its own.
#pragma once

#include <cstddef>
#include <span>
#include <string_view>

#include "ndlog/value.hpp"

namespace fvn::ndlog {

/// One builtin function: its name, arity, implementation, and the
/// properties the static analyzers read.
struct Builtin {
  static constexpr int kVariadic = -1;

  std::string_view name;
  int arity = 0;  ///< argument count, or kVariadic (f_list)
  Value (*fn)(std::span<const Value> args) = nullptr;

  // What the cost model, ND0015 and ND0017 read. The call returns:
  bool builds_list = false;  ///< a list that determines each argument (f_init)
  bool grows_list = false;   ///< its list argument grown by one element
  bool membership = false;   ///< whether its first argument, a list, holds its second
  bool length = false;       ///< the length of a list

  bool accepts(std::size_t argc) const noexcept {
    return arity == kVariadic || argc == static_cast<std::size_t>(arity);
  }
  /// Apply the function. Throws TypeError on a wrong argument count (for a
  /// caller that skipped check_safety) and on ill-typed arguments.
  Value call(std::span<const Value> args) const;
};

/// Every builtin, in name order.
std::span<const Builtin> builtin_table() noexcept;

/// The builtin named `name`, or nullptr when there is none.
const Builtin* find_builtin(std::string_view name) noexcept;

/// find_builtin(name)->call(args); throws TypeError for an unknown name.
Value call_builtin(std::string_view name, std::span<const Value> args);

}  // namespace fvn::ndlog
