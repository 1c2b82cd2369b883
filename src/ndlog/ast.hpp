// Abstract syntax for the NDlog dialect used in the paper (§2.2):
//
//   r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2),
//                        C=C1+C2, P=f_concatPath(S,P2),
//                        f_inPath(P2,S)=false.
//   r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
//
// plus P2-style `materialize(pred, lifetime, size, keys(...)).` declarations
// for soft-state tables, ground facts, and stratified negation (`!p(...)`).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "ndlog/diagnostics.hpp"
#include "ndlog/value.hpp"

namespace fvn::ndlog {

// ---------------------------------------------------------------------------
// Terms
// ---------------------------------------------------------------------------

enum class BinOp : std::uint8_t { Add, Sub, Mul, Div, Mod };
enum class CmpOp : std::uint8_t { Eq, Ne, Lt, Le, Gt, Ge };
enum class AggKind : std::uint8_t { Min, Max, Count, Sum };

std::string_view to_string(BinOp op) noexcept;
std::string_view to_string(CmpOp op) noexcept;
std::string_view to_string(AggKind kind) noexcept;
/// Negation of a comparison (used by the logic translator).
CmpOp negate(CmpOp op) noexcept;

/// `lhs op rhs`: `=`/`!=` by Value equality, the others by order_by_value
/// (numbers by value). Inline: dataflow::Engine's Select elements call it on
/// every candidate tuple.
inline bool compare(CmpOp op, const Value& lhs, const Value& rhs) {
  switch (op) {
    case CmpOp::Eq: return lhs == rhs;
    case CmpOp::Ne: return !(lhs == rhs);
    case CmpOp::Lt: return order_by_value(lhs, rhs) < 0;
    case CmpOp::Le: return order_by_value(lhs, rhs) <= 0;
    case CmpOp::Gt: return order_by_value(lhs, rhs) > 0;
    case CmpOp::Ge: return order_by_value(lhs, rhs) >= 0;
  }
  return false;
}

struct Term;
using TermPtr = std::shared_ptr<const Term>;

/// A term expression: variable, constant, built-in function application, or
/// arithmetic. Immutable and shared.
struct Term {
  enum class Kind : std::uint8_t { Var, Const, Func, Binary };

  Kind kind;
  std::string name;          // Var: variable name; Func: function name
  Value constant;            // Const payload
  BinOp op = BinOp::Add;     // Binary payload
  std::vector<TermPtr> args; // Func arguments / Binary operands (exactly 2)

  static TermPtr var(std::string name);
  static TermPtr constant_of(Value v);
  static TermPtr func(std::string name, std::vector<TermPtr> args);
  static TermPtr binary(BinOp op, TermPtr lhs, TermPtr rhs);

  /// Collect variable names (in first-occurrence order) into `out`.
  void collect_vars(std::vector<std::string>& out) const;
  std::string to_string() const;
};

// ---------------------------------------------------------------------------
// Atoms, rules, programs
// ---------------------------------------------------------------------------

/// One head argument: a plain term or an aggregate over a variable
/// (e.g. `min<C>`). Aggregates only appear in rule heads.
struct HeadArg {
  TermPtr term;                 // nullptr iff aggregate
  std::optional<AggKind> agg;   // engaged iff aggregate
  std::string agg_var;          // the variable under the aggregate

  static HeadArg plain(TermPtr t) { return HeadArg{std::move(t), std::nullopt, {}}; }
  static HeadArg aggregate(AggKind k, std::string var) {
    return HeadArg{nullptr, k, std::move(var)};
  }
  bool is_agg() const noexcept { return agg.has_value(); }
  std::string to_string() const;
};

/// A predicate atom `pred(@X, Y, Z)`. `loc_index` is the position of the
/// location-specifier argument (-1 when the atom carries no '@'; the catalog
/// supplies a default of 0 for distributed execution).
struct Atom {
  std::string predicate;
  std::vector<TermPtr> args;
  int loc_index = -1;
  SourceLoc loc;  // position of the predicate name (line 0 when synthetic)

  std::string to_string() const;
  void collect_vars(std::vector<std::string>& out) const;
  /// Span covering the predicate name (invalid when the atom is synthetic).
  SourceSpan span() const noexcept { return SourceSpan::token(loc, predicate.size()); }
};

/// Rule-head atom: like Atom but each argument may be an aggregate.
struct HeadAtom {
  std::string predicate;
  std::vector<HeadArg> args;
  int loc_index = -1;
  SourceLoc loc;  // position of the predicate name (line 0 when synthetic)

  bool has_aggregate() const noexcept;
  std::string to_string() const;
  SourceSpan span() const noexcept { return SourceSpan::token(loc, predicate.size()); }
};

/// Body element: a (possibly negated) relational atom.
struct BodyAtom {
  Atom atom;
  bool negated = false;
  std::string to_string() const;
};

/// Body element: `Var = expr` assignment or `lhs op rhs` constraint. NDlog
/// overloads `=`: if one side is a single unbound variable it binds it,
/// otherwise it tests equality. The evaluator resolves this per binding
/// environment, matching the paper's usage (`C=C1+C2` binds,
/// `f_inPath(P2,S)=false` tests).
struct Comparison {
  CmpOp op = CmpOp::Eq;
  TermPtr lhs;
  TermPtr rhs;
  SourceLoc loc;  // position of the first token of the comparison
  std::string to_string() const;
};

using BodyElem = std::variant<BodyAtom, Comparison>;

std::string to_string(const BodyElem& elem);

/// One NDlog rule (`name head :- body.`). A rule with an empty body is a
/// ground fact.
struct Rule {
  std::string name;  // "r1", "r2", ... (optional label in source)
  HeadAtom head;
  std::vector<BodyElem> body;
  SourceLoc loc;  // position of the rule's first token (label or head)

  bool is_fact() const noexcept { return body.empty(); }
  std::string to_string() const;
  /// Span anchored at the rule's first token (invalid when synthetic).
  SourceSpan span() const noexcept {
    return SourceSpan::token(loc, name.empty() ? head.predicate.size() : name.size());
  }
  /// "r2" when labelled, otherwise the head predicate — for messages.
  const std::string& display_name() const noexcept {
    return name.empty() ? head.predicate : name;
  }
};

/// P2-style materialization declaration:
///   materialize(link, infinity, infinity, keys(1,2)).
///   materialize(neighbor, 10, infinity, keys(1,2)).   -- 10s soft state
struct Materialize {
  std::string predicate;
  std::optional<double> lifetime_seconds;  // nullopt = infinity (hard state)
  std::optional<std::size_t> max_size;     // nullopt = unbounded
  std::vector<std::size_t> key_fields;     // 1-based, as in P2
  SourceLoc loc;  // position of the `materialize` keyword

  std::string to_string() const;
};

/// A parsed NDlog program: declarations and rules (ground facts are rules
/// with an empty body).
struct Program {
  std::string name = "program";
  std::vector<Materialize> materializations;
  std::vector<Rule> rules;

  const Materialize* materialization_of(const std::string& pred) const;
  std::string to_string() const;
};

}  // namespace fvn::ndlog
