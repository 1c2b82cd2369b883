#include "ltl/formula.hpp"

#include <algorithm>
#include <stdexcept>

namespace fvn::ltl {

using ndlog::ParseError;
using ndlog::SourceLoc;
using ndlog::SourceSpan;
using ndlog::Value;

// ---------------------------------------------------------------------------
// Patterns
// ---------------------------------------------------------------------------

bool PatternArg::matches(const Value& v) const {
  if (wildcard) return true;
  if (value.is_addr()) {
    // Bare identifier constant: matches an Addr or a Str with the same text.
    return (v.is_addr() || v.is_str()) && v.as_text() == value.as_addr();
  }
  if (value.is_numeric() && v.is_numeric()) {
    return value.as_double() == v.as_double();
  }
  return value == v;
}

std::string PatternArg::to_string() const {
  return wildcard ? "_" : value.to_string();
}

bool Pattern::matches(const ndlog::Tuple& tuple) const {
  if (tuple.predicate() != predicate) return false;
  if (args.size() > tuple.arity()) return false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (!args[i].matches(tuple.at(i))) return false;
  }
  return true;
}

std::string Pattern::to_string() const {
  std::string out = predicate + "(";
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (i != 0) out += ",";
    out += args[i].to_string();
  }
  return out + ")";
}

// ---------------------------------------------------------------------------
// Formula construction / rendering
// ---------------------------------------------------------------------------

namespace {

/// `op` directly before `operand`.
std::string prefixed(std::string_view op, const std::string& operand) {
  std::string out(op);
  out += operand;
  return out;
}

/// "(lhs op rhs)".
std::string infix(const std::string& lhs, std::string_view op, const std::string& rhs) {
  std::string out = "(";
  out += lhs;
  out += ' ';
  out += op;
  out += ' ';
  out += rhs;
  out += ')';
  return out;
}

}  // namespace

std::string_view to_string(Op op) noexcept {
  switch (op) {
    case Op::True: return "true";
    case Op::False: return "false";
    case Op::Atom: return "atom";
    case Op::Stable: return "stable";
    case Op::Not: return "!";
    case Op::And: return "&&";
    case Op::Or: return "||";
    case Op::Implies: return "->";
    case Op::Next: return "X";
    case Op::Eventually: return "F";
    case Op::Always: return "G";
    case Op::Until: return "U";
    case Op::Release: return "R";
  }
  return "?";
}

FormulaPtr make_atom(Pattern pattern, SourceSpan span) {
  auto f = std::make_shared<Formula>();
  f->op = Op::Atom;
  f->pattern = std::move(pattern);
  f->span = span;
  return f;
}

FormulaPtr make_stable(std::string pred, SourceSpan span) {
  auto f = std::make_shared<Formula>();
  f->op = Op::Stable;
  f->pred = std::move(pred);
  f->span = span;
  return f;
}

FormulaPtr make_const(bool truth, SourceSpan span) {
  auto f = std::make_shared<Formula>();
  f->op = truth ? Op::True : Op::False;
  f->span = span;
  return f;
}

FormulaPtr make_unary(Op op, FormulaPtr operand, SourceSpan span) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->lhs = std::move(operand);
  f->span = span;
  return f;
}

FormulaPtr make_binary(Op op, FormulaPtr lhs, FormulaPtr rhs, SourceSpan span) {
  auto f = std::make_shared<Formula>();
  f->op = op;
  f->lhs = std::move(lhs);
  f->rhs = std::move(rhs);
  f->span = span;
  return f;
}

std::string Formula::to_string() const {
  switch (op) {
    case Op::True: return "true";
    case Op::False: return "false";
    case Op::Atom: return pattern.to_string();
    case Op::Stable: return "stable(" + pred + ")";
    case Op::Not: return prefixed("!", lhs->to_string());
    case Op::Next: return prefixed("X ", lhs->to_string());
    case Op::Eventually: return prefixed("F ", lhs->to_string());
    case Op::Always: return prefixed("G ", lhs->to_string());
    case Op::And:
    case Op::Or:
    case Op::Implies:
    case Op::Until:
    case Op::Release:
      return infix(lhs->to_string(), ltl::to_string(op), rhs->to_string());
  }
  return "?";
}

// ---------------------------------------------------------------------------
// Parser over NDlog's tokens (recursive descent; precedence
// ->  <  ||  <  &&  <  U/R  <  unary)
// ---------------------------------------------------------------------------

namespace {

using ndlog::Token;
using ndlog::TokenKind;

class Parser {
 public:
  explicit Parser(std::string_view source) : toks_(ndlog::tokenize(source)) {}

  Spec parse_spec(std::string name) {
    Spec spec;
    spec.name = std::move(name);
    while (peek().kind != TokenKind::End) {
      Property prop;
      prop.span = span_of(peek());
      // Optional `name :` prefix (the name is a lowercase identifier that is
      // immediately followed by a colon; otherwise it starts a pattern).
      if (peek().kind == TokenKind::Ident && peek(1).kind == TokenKind::Colon) {
        prop.name = get().text;
        get();  // ':'
      } else {
        prop.name = "p";
        prop.name += std::to_string(spec.properties.size() + 1);
      }
      prop.formula = parse_formula();
      expect(TokenKind::Period, "'.' after property");
      spec.properties.push_back(std::move(prop));
    }
    return spec;
  }

  FormulaPtr parse_single() {
    FormulaPtr f = parse_formula();
    if (peek().kind == TokenKind::Period) get();
    expect(TokenKind::End, "end of input");
    return f;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : toks_.back();
  }
  const Token& get() { return toks_[std::min(pos_++, toks_.size() - 1)]; }
  static SourceSpan span_of(const Token& t) {
    return SourceSpan::token({t.line, t.column}, t.text.empty() ? 1 : t.text.size());
  }
  static ParseError err(const std::string& message, const Token& at) {
    return ParseError(message, at.line, at.column);
  }
  void expect(TokenKind kind, const std::string& what) {
    if (peek().kind != kind) throw err("expected " + what, peek());
    get();
  }

  FormulaPtr parse_formula() { return parse_implies(); }

  FormulaPtr parse_implies() {
    FormulaPtr lhs = parse_or();
    if (peek().kind == TokenKind::Arrow) {
      const Token& t = get();
      FormulaPtr rhs = parse_implies();  // right-assoc
      return make_binary(Op::Implies, std::move(lhs), std::move(rhs), span_of(t));
    }
    return lhs;
  }

  FormulaPtr parse_or() {
    FormulaPtr lhs = parse_and();
    while (peek().kind == TokenKind::OrOr) {
      const Token& t = get();
      lhs = make_binary(Op::Or, std::move(lhs), parse_and(), span_of(t));
    }
    return lhs;
  }

  FormulaPtr parse_and() {
    FormulaPtr lhs = parse_until();
    while (peek().kind == TokenKind::AndAnd) {
      const Token& t = get();
      lhs = make_binary(Op::And, std::move(lhs), parse_until(), span_of(t));
    }
    return lhs;
  }

  FormulaPtr parse_until() {
    FormulaPtr lhs = parse_unary();
    if (peek().kind == TokenKind::Variable && (peek().text == "U" || peek().text == "R")) {
      const Token& t = get();
      const Op op = t.text == "U" ? Op::Until : Op::Release;
      return make_binary(op, std::move(lhs), parse_until(), span_of(t));  // right-assoc
    }
    return lhs;
  }

  FormulaPtr parse_unary() {
    const Token& t = peek();
    if (t.kind == TokenKind::Bang) {
      get();
      return make_unary(Op::Not, parse_unary(), span_of(t));
    }
    if (t.kind == TokenKind::Variable && t.text.size() == 1) {
      Op op = Op::True;
      switch (t.text[0]) {
        case 'G': op = Op::Always; break;
        case 'F': op = Op::Eventually; break;
        case 'X': op = Op::Next; break;
        default: op = Op::True;
      }
      if (op != Op::True) {
        get();
        return make_unary(op, parse_unary(), span_of(t));
      }
    }
    return parse_atom();
  }

  FormulaPtr parse_atom() {
    const Token& t = peek();
    if (t.kind == TokenKind::LParen) {
      get();
      FormulaPtr f = parse_formula();
      expect(TokenKind::RParen, "')'");
      return f;
    }
    if (t.kind != TokenKind::Ident) {
      throw err("expected an atom (pattern, stable(pred), true or false)", t);
    }
    if (t.text == "true") {
      get();
      return make_const(true, span_of(t));
    }
    if (t.text == "false") {
      get();
      return make_const(false, span_of(t));
    }
    if (t.text == "stable") {
      get();
      expect(TokenKind::LParen, "'(' after stable");
      const Token& pred = peek();
      if (pred.kind != TokenKind::Ident) throw err("expected a predicate name", pred);
      get();
      expect(TokenKind::RParen, "')'");
      return make_stable(pred.text, span_of(t));
    }
    // Tuple pattern.
    Pattern pattern;
    pattern.predicate = get().text;
    expect(TokenKind::LParen, "'(' after predicate " + pattern.predicate);
    if (peek().kind != TokenKind::RParen) {
      for (;;) {
        pattern.args.push_back(parse_pattern_arg());
        if (peek().kind != TokenKind::Comma) break;
        get();
      }
    }
    expect(TokenKind::RParen, "')'");
    return make_atom(std::move(pattern), span_of(t));
  }

  PatternArg parse_pattern_arg() {
    if (peek().kind == TokenKind::At) get();  // '@' location marker: ignored
    const Token& t = peek();
    PatternArg arg;
    switch (t.kind) {
      case TokenKind::Variable:  // uppercase / '_': wildcard
        get();
        return arg;
      case TokenKind::Ident:
        get();
        arg.wildcard = false;
        arg.value = Value::addr(t.text);  // matches Addr or Str text
        return arg;
      default:
        arg.wildcard = false;
        arg.value = parse_constant("expected a pattern argument");
        return arg;
    }
  }

  /// A number, a quoted string or a list constant `[...]`. A list reads as
  /// a fact line reads it: its items are constants, a bare identifier is an
  /// address and `true`/`false` a bool, and lists nest.
  Value parse_constant(const char* expected) {
    const Token& t = peek();
    switch (t.kind) {
      case TokenKind::Minus:
      case TokenKind::Number: {
        // A negative constant is '-' then a number, as in an NDlog program.
        const bool negative = t.kind == TokenKind::Minus;
        if (negative) get();
        const Token& n = peek();
        expect(TokenKind::Number, "number after unary minus");
        return n.number_is_int ? Value::integer(negative ? -n.int_value : n.int_value)
                               : Value::real(negative ? -n.number : n.number);
      }
      case TokenKind::String:
        get();
        return Value::str(t.text);
      case TokenKind::LBracket: {
        get();
        std::vector<Value> items;
        while (peek().kind != TokenKind::RBracket) {
          if (!items.empty()) expect(TokenKind::Comma, "',' or ']'");
          const Token& item = peek();
          if (item.kind == TokenKind::Ident) {
            get();
            items.push_back(item.text == "true" || item.text == "false"
                                ? Value::boolean(item.text == "true")
                                : Value::addr(item.text));
          } else {
            items.push_back(parse_constant("expected a constant list item"));
          }
        }
        get();  // ']'
        return Value::list(std::move(items));
      }
      default:
        throw err(expected, t);
    }
  }

  std::vector<Token> toks_;
  std::size_t pos_ = 0;
};

}  // namespace

Spec parse_spec(std::string_view source, std::string name) {
  return Parser(source).parse_spec(std::move(name));
}

FormulaPtr parse_formula(std::string_view source) { return Parser(source).parse_single(); }

// ---------------------------------------------------------------------------
// Spec / catalog consistency
// ---------------------------------------------------------------------------

namespace {

void check_formula(const FormulaPtr& f, const ndlog::Catalog& catalog,
                   ndlog::DiagnosticSink& sink, bool& warned_next) {
  if (!f) return;
  switch (f->op) {
    case Op::Atom: {
      if (!catalog.contains(f->pattern.predicate)) {
        sink.warning("LT0002",
                     "pattern predicate '" + f->pattern.predicate +
                         "' is not declared or derived by the program",
                     f->span);
      } else {
        const auto& info = catalog.info(f->pattern.predicate);
        if (info.arity != 0 && f->pattern.args.size() > info.arity) {
          sink.warning("LT0003",
                       "pattern " + f->pattern.to_string() + " has " +
                           std::to_string(f->pattern.args.size()) +
                           " arguments but '" + f->pattern.predicate +
                           "' has arity " + std::to_string(info.arity),
                       f->span);
        }
      }
      break;
    }
    case Op::Stable:
      if (!catalog.contains(f->pred)) {
        sink.warning("LT0005",
                     "stable() names predicate '" + f->pred +
                         "' which the program never stores",
                     f->span);
      }
      break;
    case Op::Next:
      if (!warned_next) {
        warned_next = true;
        sink.note("LT0004",
                  "X is not stutter-invariant: the model checker steps per "
                  "message delivery but the monitor steps per tuple event, so "
                  "mc and monitor verdicts may disagree under X",
                  f->span);
      }
      break;
    default:
      break;
  }
  check_formula(f->lhs, catalog, sink, warned_next);
  check_formula(f->rhs, catalog, sink, warned_next);
}

}  // namespace

void check_spec(const Spec& spec, const ndlog::Catalog& catalog,
                ndlog::DiagnosticSink& sink) {
  for (const auto& prop : spec.properties) {
    bool warned_next = false;
    check_formula(prop.formula, catalog, sink, warned_next);
  }
}

// ---------------------------------------------------------------------------
// Atomic propositions & NNF
// ---------------------------------------------------------------------------

std::size_t ApSet::intern(const Ap& ap) {
  for (std::size_t i = 0; i < aps.size(); ++i) {
    if (aps[i].text == ap.text) return i;
  }
  if (aps.size() >= 64) {
    throw std::runtime_error("ltl: a property may use at most 64 distinct "
                             "atomic propositions");
  }
  aps.push_back(ap);
  return aps.size() - 1;
}

std::string Nnf::to_string(const ApSet& aps) const {
  switch (kind) {
    case Kind::True: return "true";
    case Kind::False: return "false";
    case Kind::Lit:
      return (positive ? "" : "!") + aps.aps.at(ap).text;
    case Kind::And: return infix(lhs->to_string(aps), "&&", rhs->to_string(aps));
    case Kind::Or: return infix(lhs->to_string(aps), "||", rhs->to_string(aps));
    case Kind::Next: return prefixed("X ", lhs->to_string(aps));
    case Kind::Until: return infix(lhs->to_string(aps), "U", rhs->to_string(aps));
    case Kind::Release: return infix(lhs->to_string(aps), "R", rhs->to_string(aps));
  }
  return "?";
}

namespace {

NnfPtr nnf_node(Nnf::Kind kind, NnfPtr lhs = nullptr, NnfPtr rhs = nullptr) {
  auto n = std::make_shared<Nnf>();
  n->kind = kind;
  n->lhs = std::move(lhs);
  n->rhs = std::move(rhs);
  return n;
}

NnfPtr nnf_lit(std::size_t ap, bool positive) {
  auto n = std::make_shared<Nnf>();
  n->kind = Nnf::Kind::Lit;
  n->ap = ap;
  n->positive = positive;
  return n;
}

NnfPtr nnf_const(bool truth) {
  return nnf_node(truth ? Nnf::Kind::True : Nnf::Kind::False);
}

}  // namespace

NnfPtr to_nnf(const FormulaPtr& f, ApSet& aps, bool negated) {
  using K = Nnf::Kind;
  switch (f->op) {
    case Op::True: return nnf_const(!negated);
    case Op::False: return nnf_const(negated);
    case Op::Atom: {
      ApSet::Ap ap;
      ap.is_stable = false;
      ap.pattern = f->pattern;
      ap.text = f->pattern.to_string();
      return nnf_lit(aps.intern(ap), !negated);
    }
    case Op::Stable: {
      ApSet::Ap ap;
      ap.is_stable = true;
      ap.pred = f->pred;
      ap.text = "stable(" + f->pred + ")";
      return nnf_lit(aps.intern(ap), !negated);
    }
    case Op::Not: return to_nnf(f->lhs, aps, !negated);
    case Op::And:
      return nnf_node(negated ? K::Or : K::And, to_nnf(f->lhs, aps, negated),
                      to_nnf(f->rhs, aps, negated));
    case Op::Or:
      return nnf_node(negated ? K::And : K::Or, to_nnf(f->lhs, aps, negated),
                      to_nnf(f->rhs, aps, negated));
    case Op::Implies:
      // a -> b == !a || b; negated: a && !b.
      return nnf_node(negated ? K::And : K::Or, to_nnf(f->lhs, aps, !negated),
                      to_nnf(f->rhs, aps, negated));
    case Op::Next:
      return nnf_node(K::Next, to_nnf(f->lhs, aps, negated));
    case Op::Eventually:
      // F a == true U a; !F a == false R !a.
      return negated ? nnf_node(K::Release, nnf_const(false), to_nnf(f->lhs, aps, true))
                     : nnf_node(K::Until, nnf_const(true), to_nnf(f->lhs, aps, false));
    case Op::Always:
      // G a == false R a; !G a == true U !a.
      return negated ? nnf_node(K::Until, nnf_const(true), to_nnf(f->lhs, aps, true))
                     : nnf_node(K::Release, nnf_const(false), to_nnf(f->lhs, aps, false));
    case Op::Until:
      return nnf_node(negated ? K::Release : K::Until, to_nnf(f->lhs, aps, negated),
                      to_nnf(f->rhs, aps, negated));
    case Op::Release:
      return nnf_node(negated ? K::Until : K::Release, to_nnf(f->lhs, aps, negated),
                      to_nnf(f->rhs, aps, negated));
  }
  return nnf_const(true);
}

}  // namespace fvn::ltl
