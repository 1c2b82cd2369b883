#include "ndlog/parser.hpp"

#include <cctype>
#include <charconv>

namespace fvn::ndlog {

ParseError::ParseError(const std::string& message, int line, int column)
    : std::runtime_error(message), line_(line), column_(column) {}

namespace {

bool is_ident_start(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

std::vector<Token> tokenize(std::string_view src) {
  std::vector<Token> out;
  int line = 1;
  int col = 1;
  std::size_t i = 0;
  auto advance = [&](std::size_t n = 1) {
    for (std::size_t k = 0; k < n && i < src.size(); ++k) {
      if (src[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
      ++i;
    }
  };
  // Start position of the token currently being lexed (multi-character
  // tokens advance line/col past their end before the Token is built).
  int tok_line = 1;
  int tok_col = 1;
  auto make = [&](TokenKind kind, std::string text) {
    Token t;
    t.kind = kind;
    t.text = std::move(text);
    t.line = tok_line;
    t.column = tok_col;
    return t;
  };

  while (i < src.size()) {
    const char c = src[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance();
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') advance();
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      const int open_line = line;
      const int open_col = col;
      advance(2);
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) advance();
      if (i + 1 >= src.size()) {
        throw ParseError("unterminated block comment", open_line, open_col);
      }
      advance(2);
      continue;
    }
    tok_line = line;
    tok_col = col;
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < src.size() &&
         std::isdigit(static_cast<unsigned char>(src[i + 1])))) {
      std::size_t start = i;
      bool is_double = false;
      while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) advance();
      if (i + 1 < src.size() && src[i] == '.' &&
          std::isdigit(static_cast<unsigned char>(src[i + 1]))) {
        is_double = true;
        advance();
        while (i < src.size() && std::isdigit(static_cast<unsigned char>(src[i]))) advance();
      }
      Token t = make(TokenKind::Number, std::string(src.substr(start, i - start)));
      t.number_is_int = !is_double;
      if (is_double) {
        try {
          t.number = std::stod(t.text);
        } catch (const std::exception&) {
          throw ParseError("bad number literal '" + t.text + "'", tok_line, tok_col);
        }
      } else {
        std::int64_t v = 0;
        auto [ptr, ec] = std::from_chars(t.text.data(), t.text.data() + t.text.size(), v);
        (void)ptr;
        if (ec != std::errc{}) {
          throw ParseError("bad integer literal '" + t.text + "'", tok_line, tok_col);
        }
        t.int_value = v;
        t.number = static_cast<double>(v);
      }
      out.push_back(std::move(t));
      continue;
    }
    if (is_ident_start(c)) {
      std::size_t start = i;
      while (i < src.size() && is_ident_char(src[i])) advance();
      std::string text(src.substr(start, i - start));
      const bool is_var = std::isupper(static_cast<unsigned char>(text[0])) || text[0] == '_';
      out.push_back(make(is_var ? TokenKind::Variable : TokenKind::Ident, std::move(text)));
      continue;
    }
    if (c == '"') {
      advance();
      std::string text;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\\' && i + 1 < src.size()) {
          advance();
          switch (src[i]) {
            case 'n': text += '\n'; break;
            case 't': text += '\t'; break;
            default: text += src[i]; break;
          }
          advance();
          continue;
        }
        text += src[i];
        advance();
      }
      if (i >= src.size()) {
        throw ParseError("unterminated string literal", tok_line, tok_col);
      }
      advance();  // closing quote
      out.push_back(make(TokenKind::String, std::move(text)));
      continue;
    }
    auto two = (i + 1 < src.size()) ? src.substr(i, 2) : std::string_view{};
    if (two == ":-") { out.push_back(make(TokenKind::If, ":-")); advance(2); continue; }
    if (two == ":=") { out.push_back(make(TokenKind::Assign, ":=")); advance(2); continue; }
    if (two == "==") { out.push_back(make(TokenKind::Eq, "==")); advance(2); continue; }
    if (two == "!=") { out.push_back(make(TokenKind::Ne, "!=")); advance(2); continue; }
    if (two == "<=") { out.push_back(make(TokenKind::Le, "<=")); advance(2); continue; }
    if (two == ">=") { out.push_back(make(TokenKind::Ge, ">=")); advance(2); continue; }
    if (two == "&&") { out.push_back(make(TokenKind::AndAnd, "&&")); advance(2); continue; }
    if (two == "||") { out.push_back(make(TokenKind::OrOr, "||")); advance(2); continue; }
    if (two == "->") { out.push_back(make(TokenKind::Arrow, "->")); advance(2); continue; }
    switch (c) {
      case '@': out.push_back(make(TokenKind::At, "@")); advance(); continue;
      case ',': out.push_back(make(TokenKind::Comma, ",")); advance(); continue;
      case '(': out.push_back(make(TokenKind::LParen, "(")); advance(); continue;
      case ')': out.push_back(make(TokenKind::RParen, ")")); advance(); continue;
      case '[': out.push_back(make(TokenKind::LBracket, "[")); advance(); continue;
      case ']': out.push_back(make(TokenKind::RBracket, "]")); advance(); continue;
      case '.': out.push_back(make(TokenKind::Period, ".")); advance(); continue;
      case '=': out.push_back(make(TokenKind::Eq, "=")); advance(); continue;
      case '<': out.push_back(make(TokenKind::Lt, "<")); advance(); continue;
      case '>': out.push_back(make(TokenKind::Gt, ">")); advance(); continue;
      case '+': out.push_back(make(TokenKind::Plus, "+")); advance(); continue;
      case '-': out.push_back(make(TokenKind::Minus, "-")); advance(); continue;
      case '*': out.push_back(make(TokenKind::Star, "*")); advance(); continue;
      case '/': out.push_back(make(TokenKind::Slash, "/")); advance(); continue;
      case '%': out.push_back(make(TokenKind::Percent, "%")); advance(); continue;
      case '!': out.push_back(make(TokenKind::Bang, "!")); advance(); continue;
      case ':': out.push_back(make(TokenKind::Colon, ":")); advance(); continue;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", line, col);
    }
  }
  out.push_back(Token{TokenKind::End, "", 0.0, true, 0, line, col});
  return out;
}

namespace {

/// Recursive-descent parser over the token stream.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Program parse_program(std::string name) {
    Program prog;
    prog.name = std::move(name);
    while (!at(TokenKind::End)) {
      if (at(TokenKind::Ident) && peek().text == "materialize") {
        prog.materializations.push_back(parse_materialize());
      } else {
        prog.rules.push_back(parse_rule());
      }
    }
    return prog;
  }

  Atom parse_single_atom() {
    Atom atom = parse_atom();
    if (at(TokenKind::Period)) next();
    expect(TokenKind::End, "end of input");
    return atom;
  }

 private:
  const Token& peek(std::size_t ahead = 0) const {
    const std::size_t idx = std::min(pos_ + ahead, tokens_.size() - 1);
    return tokens_[idx];
  }
  bool at(TokenKind k) const { return peek().kind == k; }
  Token next() { return tokens_[std::min(pos_++, tokens_.size() - 1)]; }
  Token expect(TokenKind k, const char* what) {
    if (!at(k)) {
      throw ParseError(std::string("expected ") + what + ", found '" + peek().text + "'",
                       peek().line, peek().column);
    }
    return next();
  }

  Materialize parse_materialize() {
    const Token kw = next();  // 'materialize'
    expect(TokenKind::LParen, "'('");
    Materialize m;
    m.loc = SourceLoc{kw.line, kw.column};
    m.predicate = expect(TokenKind::Ident, "predicate name").text;
    expect(TokenKind::Comma, "','");
    if (auto n = parse_inf_or_number()) m.lifetime_seconds = n->number;
    expect(TokenKind::Comma, "','");
    if (auto n = parse_inf_or_number()) m.max_size = integer_at_least(*n, 0, "table size");
    expect(TokenKind::Comma, "','");
    Token keys = expect(TokenKind::Ident, "'keys'");
    if (keys.text != "keys") throw ParseError("expected 'keys'", keys.line, keys.column);
    expect(TokenKind::LParen, "'('");
    if (!at(TokenKind::RParen)) {
      for (;;) {
        const Token n = expect(TokenKind::Number, "key field index");
        m.key_fields.push_back(integer_at_least(n, 1, "key field index"));
        if (!at(TokenKind::Comma)) break;
        next();
      }
    }
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::RParen, "')'");
    expect(TokenKind::Period, "'.'");
    return m;
  }

  /// The number token next, or nullopt for `infinity`.
  std::optional<Token> parse_inf_or_number() {
    if (at(TokenKind::Ident) && peek().text == "infinity") {
      next();
      return std::nullopt;
    }
    return expect(TokenKind::Number, "number or 'infinity'");
  }

  /// The integer literal `n` when it is at least `min`; a ParseError at the
  /// token for any other number (1.5, or 0 when `min` is 1).
  static std::size_t integer_at_least(const Token& n, std::int64_t min, const char* what) {
    if (!n.number_is_int || n.int_value < min) {
      throw ParseError(std::string(what) + " must be an integer of at least " +
                           std::to_string(min) + ", found '" + n.text + "'",
                       n.line, n.column);
    }
    return static_cast<std::size_t>(n.int_value);
  }

  Rule parse_rule() {
    Rule rule;
    rule.loc = SourceLoc{peek().line, peek().column};
    // Optional rule label: an identifier immediately followed by another
    // identifier that begins the head atom ("r1 path(...) :- ...").
    if (at(TokenKind::Ident) && peek(1).kind == TokenKind::Ident) {
      rule.name = next().text;
    }
    rule.head = parse_head_atom();
    if (at(TokenKind::If)) {
      next();
      for (;;) {
        rule.body.push_back(parse_body_elem());
        if (at(TokenKind::Comma)) {
          next();
          continue;
        }
        break;
      }
    }
    expect(TokenKind::Period, "'.' at end of rule");
    return rule;
  }

  HeadAtom parse_head_atom() {
    HeadAtom head;
    const Token name = expect(TokenKind::Ident, "predicate name");
    head.predicate = name.text;
    head.loc = SourceLoc{name.line, name.column};
    expect(TokenKind::LParen, "'('");
    std::size_t index = 0;
    if (!at(TokenKind::RParen)) {
      for (;;) {
        bool located = false;
        if (at(TokenKind::At)) {
          next();
          located = true;
        }
        head.args.push_back(parse_head_arg());
        if (located) head.loc_index = static_cast<int>(index);
        ++index;
        if (!at(TokenKind::Comma)) break;
        next();
      }
    }
    expect(TokenKind::RParen, "')'");
    return head;
  }

  HeadArg parse_head_arg() {
    if (at(TokenKind::Ident)) {
      const std::string& t = peek().text;
      if ((t == "min" || t == "max" || t == "count" || t == "sum") &&
          peek(1).kind == TokenKind::Lt) {
        AggKind kind = t == "min"   ? AggKind::Min
                       : t == "max" ? AggKind::Max
                       : t == "count" ? AggKind::Count
                                      : AggKind::Sum;
        next();  // agg name
        next();  // '<'
        std::string var = expect(TokenKind::Variable, "aggregate variable").text;
        expect(TokenKind::Gt, "'>'");
        return HeadArg::aggregate(kind, std::move(var));
      }
    }
    return HeadArg::plain(parse_expr());
  }

  Atom parse_atom() {
    Atom atom;
    const Token name = expect(TokenKind::Ident, "predicate name");
    atom.predicate = name.text;
    atom.loc = SourceLoc{name.line, name.column};
    expect(TokenKind::LParen, "'('");
    std::size_t index = 0;
    if (!at(TokenKind::RParen)) {
      for (;;) {
        if (at(TokenKind::At)) {
          next();
          atom.loc_index = static_cast<int>(index);
        }
        atom.args.push_back(parse_expr());
        ++index;
        if (!at(TokenKind::Comma)) break;
        next();
      }
    }
    expect(TokenKind::RParen, "')'");
    return atom;
  }

  BodyElem parse_body_elem() {
    const SourceLoc elem_loc{peek().line, peek().column};
    if (at(TokenKind::Bang)) {
      next();
      BodyAtom ba;
      ba.negated = true;
      ba.atom = parse_atom();
      return ba;
    }
    // A relational atom begins with `ident (` and is not followed by a
    // comparison operator (which would make it a function-call expression,
    // e.g. `f_inPath(P2,S)=false`).
    if (at(TokenKind::Ident) && peek(1).kind == TokenKind::LParen) {
      const std::size_t save = pos_;
      Atom atom = parse_atom();
      if (!is_cmp(peek().kind) && peek().kind != TokenKind::Assign) {
        BodyAtom ba;
        ba.atom = std::move(atom);
        return ba;
      }
      pos_ = save;  // it was an expression; reparse as comparison
    }
    TermPtr lhs = parse_expr();
    if (at(TokenKind::Assign)) {
      next();
      Comparison cmp;
      cmp.op = CmpOp::Eq;
      cmp.lhs = std::move(lhs);
      cmp.rhs = parse_expr();
      cmp.loc = elem_loc;
      return cmp;
    }
    if (!is_cmp(peek().kind)) {
      throw ParseError("expected comparison operator after expression", peek().line,
                       peek().column);
    }
    Comparison cmp;
    cmp.op = cmp_op(next().kind);
    cmp.lhs = std::move(lhs);
    cmp.rhs = parse_expr();
    cmp.loc = elem_loc;
    return cmp;
  }

  static bool is_cmp(TokenKind k) {
    switch (k) {
      case TokenKind::Eq:
      case TokenKind::Ne:
      case TokenKind::Lt:
      case TokenKind::Le:
      case TokenKind::Gt:
      case TokenKind::Ge:
        return true;
      default:
        return false;
    }
  }
  static CmpOp cmp_op(TokenKind k) {
    switch (k) {
      case TokenKind::Eq: return CmpOp::Eq;
      case TokenKind::Ne: return CmpOp::Ne;
      case TokenKind::Lt: return CmpOp::Lt;
      case TokenKind::Le: return CmpOp::Le;
      case TokenKind::Gt: return CmpOp::Gt;
      case TokenKind::Ge: return CmpOp::Ge;
      default: return CmpOp::Eq;
    }
  }

  TermPtr parse_expr() {
    TermPtr lhs = parse_term();
    while (at(TokenKind::Plus) || at(TokenKind::Minus)) {
      BinOp op = at(TokenKind::Plus) ? BinOp::Add : BinOp::Sub;
      next();
      lhs = Term::binary(op, std::move(lhs), parse_term());
    }
    return lhs;
  }

  TermPtr parse_term() {
    TermPtr lhs = parse_factor();
    while (at(TokenKind::Star) || at(TokenKind::Slash) || at(TokenKind::Percent)) {
      BinOp op = at(TokenKind::Star)    ? BinOp::Mul
                 : at(TokenKind::Slash) ? BinOp::Div
                                        : BinOp::Mod;
      next();
      lhs = Term::binary(op, std::move(lhs), parse_factor());
    }
    return lhs;
  }

  TermPtr parse_factor() {
    if (at(TokenKind::Number)) {
      Token n = next();
      return Term::constant_of(n.number_is_int ? Value::integer(n.int_value)
                                               : Value::real(n.number));
    }
    if (at(TokenKind::Minus)) {
      next();
      Token n = expect(TokenKind::Number, "number after unary minus");
      return Term::constant_of(n.number_is_int ? Value::integer(-n.int_value)
                                               : Value::real(-n.number));
    }
    if (at(TokenKind::String)) return Term::constant_of(Value::str(next().text));
    if (at(TokenKind::Variable)) return Term::var(next().text);
    if (at(TokenKind::LParen)) {
      next();
      TermPtr inner = parse_expr();
      expect(TokenKind::RParen, "')'");
      return inner;
    }
    if (at(TokenKind::LBracket)) {
      next();
      std::vector<TermPtr> items;
      if (!at(TokenKind::RBracket)) {
        for (;;) {
          items.push_back(parse_expr());
          if (!at(TokenKind::Comma)) break;
          next();
        }
      }
      expect(TokenKind::RBracket, "']'");
      // Constant-fold fully-constant list literals; otherwise a list
      // constructor function.
      bool all_const = true;
      for (const auto& t : items) all_const = all_const && t->kind == Term::Kind::Const;
      if (all_const) {
        std::vector<Value> values;
        values.reserve(items.size());
        for (const auto& t : items) values.push_back(t->constant);
        return Term::constant_of(Value::list(std::move(values)));
      }
      return Term::func("f_list", std::move(items));
    }
    if (at(TokenKind::Ident)) {
      Token id = next();
      if (id.text == "true") return Term::constant_of(Value::boolean(true));
      if (id.text == "false") return Term::constant_of(Value::boolean(false));
      if (at(TokenKind::LParen)) {
        next();
        std::vector<TermPtr> args;
        if (!at(TokenKind::RParen)) {
          for (;;) {
            args.push_back(parse_expr());
            if (!at(TokenKind::Comma)) break;
            next();
          }
        }
        expect(TokenKind::RParen, "')'");
        return Term::func(id.text, std::move(args));
      }
      // Bare lower-case identifier in expression position: an address constant.
      return Term::constant_of(Value::addr(id.text));
    }
    throw ParseError("expected expression, found '" + peek().text + "'", peek().line,
                     peek().column);
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Program parse_program(std::string_view source, std::string program_name) {
  Parser parser(tokenize(source));
  return parser.parse_program(std::move(program_name));
}

Atom parse_atom(std::string_view source) {
  Parser parser(tokenize(source));
  return parser.parse_single_atom();
}

Tuple parse_fact(std::string_view source) {
  const Atom atom = parse_atom(source);
  std::vector<Value> values;
  values.reserve(atom.args.size());
  for (const auto& t : atom.args) {
    if (t->kind != Term::Kind::Const) {
      throw ParseError("fact arguments must be constants", atom.loc.line, atom.loc.column);
    }
    values.push_back(t->constant);
  }
  return Tuple(atom.predicate, std::move(values));
}

}  // namespace fvn::ndlog
