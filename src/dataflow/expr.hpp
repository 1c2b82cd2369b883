// Register-compiled NDlog terms. The planner resolves every variable of a
// rule strand to a slot in a flat register file at compile time, so the
// per-tuple hot path of the dataflow engine never touches a name-keyed
// binding map (the generic evaluator's Bindings) — slot reads are array
// indexing. This is the per-element analogue of P2's compiled element
// configuration.
#pragma once

#include <string>
#include <unordered_map>
#include <vector>

#include "ndlog/ast.hpp"
#include "ndlog/builtins.hpp"

namespace fvn::dataflow {

/// A Term with variables resolved to register slots. Mirrors Term::Kind but
/// is self-contained so plans can outlive the AST they were compiled from.
struct CompiledExpr {
  enum class Kind : std::uint8_t { Slot, Const, Func, Binary };

  Kind kind = Kind::Const;
  int slot = -1;                   // Slot payload
  ndlog::Value constant;           // Const payload
  ndlog::BinOp op = ndlog::BinOp::Add;  // Binary payload
  const ndlog::Builtin* fn = nullptr;   // Func payload, bound by compile_term
  std::vector<CompiledExpr> args;  // Func arguments / Binary operands

  static CompiledExpr of_slot(int s);
  static CompiledExpr of_const(ndlog::Value v);

  /// Evaluate against a register file. The planner only emits an expression
  /// once every slot it reads is bound, so evaluation is total.
  ndlog::Value eval(const std::vector<ndlog::Value>& regs) const;

  /// "$3", "f_concatPath($0,$2)", "$1+$2" — used by DOT/JSON plan dumps.
  std::string to_string() const;
};

/// Variable-name → register-slot mapping built while planning one strand.
class SlotMap {
 public:
  /// Slot of `var`, or -1 when the variable is not yet bound.
  int lookup(const std::string& var) const;
  /// Allocate a slot for `var` (must not be bound yet).
  int bind(const std::string& var);
  std::size_t size() const noexcept { return names_.size(); }
  /// Slot index → variable name (plan dumps).
  const std::vector<std::string>& names() const noexcept { return names_; }

 private:
  std::unordered_map<std::string, int> slots_;
  std::vector<std::string> names_;
};

/// Compile `term` against `slots`, binding each function call to its
/// builtin. Throws ndlog::AnalysisError when the term mentions a variable
/// without a slot — the planner's scheduling guarantees boundness for
/// well-formed (safe) rules, so this indicates a planner bug or an unsafe
/// rule that bypassed check_safety — or calls a function with no builtin.
CompiledExpr compile_term(const ndlog::Term& term, const SlotMap& slots);

}  // namespace fvn::dataflow
