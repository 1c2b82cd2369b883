// Hand-written lexer + recursive-descent parser for the NDlog dialect.
//
// Conventions (matching the paper and P2):
//   * identifiers starting with an upper-case letter or '_' are variables;
//   * lower-case identifiers are predicate/function names in call position,
//     and node-address constants in argument position (`link(@n1,n2,1)`);
//   * `@Arg` marks the location specifier;
//   * `min<C>` / `max<C>` / `count<C>` / `sum<C>` are head aggregates;
//   * `X = expr` is assignment-or-test, other comparators are tests;
//   * `!p(...)` is stratified negation;
//   * `materialize(pred, lifetime, size, keys(...)).` declares tables
//     (lifetime `infinity` or seconds).
#pragma once

#include <stdexcept>
#include <string>
#include <vector>

#include "ndlog/ast.hpp"
#include "ndlog/tuple.hpp"

namespace fvn::ndlog {

/// Syntax error: what() is the message alone, line() and column() its
/// 1-based position (a reader that names the source prints
/// `<source>:<line>:<col>: <message>`).
class ParseError : public std::runtime_error {
 public:
  ParseError(const std::string& message, int line, int column);
  int line() const noexcept { return line_; }
  int column() const noexcept { return column_; }

 private:
  int line_;
  int column_;
};

/// Token kinds produced by the lexer.
enum class TokenKind : std::uint8_t {
  Ident,     // lower-case initial
  Variable,  // upper-case initial or '_'
  Number,
  String,
  At,        // @
  Comma,
  LParen,
  RParen,
  LBracket,
  RBracket,
  Period,
  If,        // :-
  Assign,    // :=
  Eq,        // =  (also ==)
  Ne,        // !=
  Lt,
  Le,
  Gt,
  Ge,
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Bang,      // !
  Colon,     // :  (an .ltl property name)
  AndAnd,    // && (.ltl)
  OrOr,      // || (.ltl)
  Arrow,     // -> (.ltl)
  End,
};

struct Token {
  TokenKind kind = TokenKind::End;
  std::string text;
  double number = 0.0;
  bool number_is_int = true;
  std::int64_t int_value = 0;
  int line = 1;
  int column = 1;
};

/// Tokenize NDlog text: programs, fact lines, query goals and `.ltl` specs
/// all read this one token set, and each parser rejects the tokens it does
/// not use. Comments are `//` to end of line and `/* ... */` blocks; an
/// integer literal must fit int64; `\n` and `\t` escape in strings.
std::vector<Token> tokenize(std::string_view source);

/// Parse a full NDlog program. Throws ParseError on malformed input.
Program parse_program(std::string_view source, std::string program_name = "program");

/// Parse one atom, e.g. the query goal `bestPath(@n0, D, P, C)`: the atom,
/// an optional `.`, then the end of input.
Atom parse_atom(std::string_view source);

/// Parse a single ground fact like `link(@n1,n2,3)`: parse_atom, whose
/// arguments must all be constants.
Tuple parse_fact(std::string_view source);

}  // namespace fvn::ndlog
