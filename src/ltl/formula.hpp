// fvn::ltl — linear temporal logic over network states (DESIGN.md §14).
//
// The formula language closes the gap between the paper's static
// verification story and the runtime: the *same* declarative temporal
// property is (a) model-checked over fvn::mc's transition system across all
// message interleavings and (b) compiled into an online monitor over the
// live tuple-event stream of the simulator / fvn::net cluster.
//
// Syntax (see DESIGN.md §14.1 for the full table):
//
//   spec      := property*
//   property  := [name ':'] formula '.'
//   formula   := '!' f | 'G' f | 'F' f | 'X' f          (unary, tightest)
//              | f 'U' f | f 'R' f                       (right-assoc)
//              | f '&&' f | f '||' f | f '->' f          (loosest, -> right)
//              | '(' f ')' | atom
//   atom      := 'true' | 'false'
//              | 'stable' '(' predicate ')'              (state predicate)
//              | predicate '(' pattern-args ')'          (tuple pattern)
//
// Tuple-pattern atoms hold in a network state iff *some* node stores a
// matching tuple: `bestPath(@n0, n3, _, _)` — lowercase identifiers and
// numbers are constants, `_`, upper-case identifiers and `@N` are wildcards,
// and missing trailing arguments are wildcards too. `stable(p)` holds in a
// state iff relation p did not change in the step that produced it (true in
// the initial state), so `F G stable(bestPath)` is "bestPath eventually
// converges and stays converged".
//
// A spec shares NDlog's lexical syntax: it is read with ndlog::tokenize, so
// comments, identifiers, string escapes and numbers (int64 integers, doubles,
// a negative constant as '-' then a number) read as they do in a program or
// a fact line. Errors throw ndlog::ParseError with 1-based positions (the
// CLI reports them as LT0001), every formula carries a SourceSpan, and
// check_spec() reports pattern/catalog mismatches (LT0002..) through a
// DiagnosticSink.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "ndlog/catalog.hpp"
#include "ndlog/diagnostics.hpp"
#include "ndlog/parser.hpp"
#include "ndlog/tuple.hpp"

namespace fvn::ltl {

/// One argument of a tuple-pattern atom: a ground constant or a wildcard.
struct PatternArg {
  bool wildcard = true;
  /// When !wildcard: number / quoted-string constants carry the exact Value;
  /// bare lowercase identifiers carry an Addr that also matches a Str with
  /// the same text (patterns cannot see the catalog's column kinds). A list
  /// constant (`[a,b]`, read as a fact line reads it) matches an equal list.
  ndlog::Value value;

  bool matches(const ndlog::Value& v) const;
  std::string to_string() const;
};

/// A predicate-tuple pattern (`bestPath(@n0, D, _)`). Matches a tuple with
/// the same predicate whose values match argument-wise; arguments beyond
/// `args.size()` are unconstrained.
struct Pattern {
  std::string predicate;
  std::vector<PatternArg> args;

  bool matches(const ndlog::Tuple& tuple) const;
  /// Canonical rendering — also the atomic-proposition identity (all
  /// wildcards render as `_`, so `p(X,_)` and `p(_,_)` are the same AP).
  std::string to_string() const;
};

enum class Op : std::uint8_t {
  True,
  False,
  Atom,        ///< tuple pattern (exists a matching stored tuple)
  Stable,      ///< stable(pred): relation unchanged by the last step
  Not,
  And,
  Or,
  Implies,
  Next,        ///< X
  Eventually,  ///< F
  Always,      ///< G
  Until,       ///< U (strong)
  Release,     ///< R
};

std::string_view to_string(Op op) noexcept;

struct Formula;
using FormulaPtr = std::shared_ptr<const Formula>;

/// Immutable formula tree. `pattern` is set for Atom, `pred` for Stable;
/// unary operators use `lhs` only.
struct Formula {
  Op op = Op::True;
  Pattern pattern;       // Atom
  std::string pred;      // Stable
  FormulaPtr lhs;
  FormulaPtr rhs;
  ndlog::SourceSpan span;

  std::string to_string() const;
};

FormulaPtr make_atom(Pattern pattern, ndlog::SourceSpan span = {});
FormulaPtr make_stable(std::string pred, ndlog::SourceSpan span = {});
FormulaPtr make_const(bool truth, ndlog::SourceSpan span = {});
FormulaPtr make_unary(Op op, FormulaPtr operand, ndlog::SourceSpan span = {});
FormulaPtr make_binary(Op op, FormulaPtr lhs, FormulaPtr rhs,
                       ndlog::SourceSpan span = {});

/// One named temporal property of a spec file.
struct Property {
  std::string name;  // "p3" for unnamed properties (1-based index)
  FormulaPtr formula;
  ndlog::SourceSpan span;
};

struct Spec {
  std::string name;  // file name, for diagnostics
  std::vector<Property> properties;
};

/// Parse a `.ltl` spec. Throws ndlog::ParseError (1-based line/column) on
/// malformed input; the CLI renders it as an LT0001 diagnostic.
Spec parse_spec(std::string_view source, std::string name = "spec");

/// Parse a single formula (tests / ad-hoc properties).
FormulaPtr parse_formula(std::string_view source);

/// Spec/program consistency, reported through the ndlog diagnostics sink:
///   LT0002 warning  pattern predicate not declared/used by the program
///   LT0003 warning  pattern has more arguments than the predicate's arity
///   LT0004 note     X is not stutter-invariant: the model checker steps
///                   per message delivery, the monitor per tuple event, so
///                   mc ↔ monitor agreement is not guaranteed under X
///   LT0005 warning  stable() names a predicate the program never stores
/// Warnings do not block checking (exit-code convention matches lint).
void check_spec(const Spec& spec, const ndlog::Catalog& catalog,
                ndlog::DiagnosticSink& sink);

// ---------------------------------------------------------------------------
// Atomic propositions & negation normal form — the checker/monitor interface.
// ---------------------------------------------------------------------------

/// The atomic propositions of one property, deduplicated by canonical
/// rendering. Valuations are bitsets over their indices (≤ 64 APs).
struct ApSet {
  struct Ap {
    bool is_stable = false;
    Pattern pattern;    // !is_stable
    std::string pred;   // is_stable
    std::string text;   // canonical rendering (identity)
  };
  std::vector<Ap> aps;

  /// Index of the AP (inserting if new). Throws std::runtime_error past 64.
  std::size_t intern(const Ap& ap);
};

using Valuation = std::uint64_t;

/// NNF formula over AP indices: operators True/False/Lit/And/Or/Next/Until/
/// Release only (G, F, ->, ! are rewritten away).
struct Nnf;
using NnfPtr = std::shared_ptr<const Nnf>;

struct Nnf {
  enum class Kind : std::uint8_t { True, False, Lit, And, Or, Next, Until, Release };
  Kind kind = Kind::True;
  std::size_t ap = 0;      // Lit
  bool positive = true;    // Lit
  NnfPtr lhs;
  NnfPtr rhs;

  std::string to_string(const ApSet& aps) const;
};

/// Rewrite into negation normal form, interning atoms into `aps`.
/// `negated` pushes an outer negation through the whole formula (the model
/// checker builds the automaton for ¬φ this way).
NnfPtr to_nnf(const FormulaPtr& formula, ApSet& aps, bool negated = false);

}  // namespace fvn::ltl
