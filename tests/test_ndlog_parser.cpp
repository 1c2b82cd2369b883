// Unit tests for the NDlog lexer/parser: the paper's concrete syntax, error
// positions, materialize declarations, aggregates, negation, facts.
#include <gtest/gtest.h>

#include "ndlog/parser.hpp"

namespace fvn::ndlog {
namespace {

TEST(Lexer, TokenKinds) {
  auto tokens = tokenize("r1 path(@S,D) :- link(@S,D,C), C >= 2.5, X != \"abc\".");
  ASSERT_GT(tokens.size(), 5u);
  EXPECT_EQ(tokens[0].kind, TokenKind::Ident);
  EXPECT_EQ(tokens[0].text, "r1");
  EXPECT_EQ(tokens[1].kind, TokenKind::Ident);  // path
  EXPECT_EQ(tokens[2].kind, TokenKind::LParen);
  EXPECT_EQ(tokens[3].kind, TokenKind::At);
  EXPECT_EQ(tokens[4].kind, TokenKind::Variable);
}

TEST(Lexer, NumbersIntAndDouble) {
  auto tokens = tokenize("42 2.75");
  EXPECT_TRUE(tokens[0].number_is_int);
  EXPECT_EQ(tokens[0].int_value, 42);
  EXPECT_FALSE(tokens[1].number_is_int);
  EXPECT_DOUBLE_EQ(tokens[1].number, 2.75);
}

TEST(Lexer, CommentsSkipped) {
  auto tokens = tokenize("a // comment\n/* block\ncomment */ b");
  ASSERT_EQ(tokens.size(), 3u);  // a, b, End
  EXPECT_EQ(tokens[0].text, "a");
  EXPECT_EQ(tokens[1].text, "b");
}

TEST(Lexer, StringEscapes) {
  auto tokens = tokenize(R"("a\nb")");
  EXPECT_EQ(tokens[0].text, "a\nb");
}

TEST(Lexer, ErrorCarriesPosition) {
  try {
    tokenize("abc\n  #");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_EQ(e.column(), 3);
  }
}

TEST(Parser, PaperRuleR2RoundTrips) {
  auto program = parse_program(
      "r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2, "
      "P=f_concatPath(S,P2), f_inPath(P2,S)=false.");
  ASSERT_EQ(program.rules.size(), 1u);
  const Rule& r = program.rules[0];
  EXPECT_EQ(r.name, "r2");
  EXPECT_EQ(r.head.predicate, "path");
  EXPECT_EQ(r.head.loc_index, 0);
  EXPECT_EQ(r.body.size(), 5u);
  EXPECT_EQ(r.to_string(),
            "r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=(C1+C2), "
            "P=f_concatPath(S,P2), f_inPath(P2,S)=false.");
}

TEST(Parser, AggregateHead) {
  auto program = parse_program("r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).");
  const Rule& r = program.rules[0];
  ASSERT_TRUE(r.head.has_aggregate());
  const HeadArg& agg = r.head.args[2];
  EXPECT_TRUE(agg.is_agg());
  EXPECT_EQ(*agg.agg, AggKind::Min);
  EXPECT_EQ(agg.agg_var, "C");
}

TEST(Parser, AllAggregateKinds) {
  for (const char* src : {"a(@X,min<Y>) :- b(@X,Y).", "a(@X,max<Y>) :- b(@X,Y).",
                          "a(@X,count<Y>) :- b(@X,Y).", "a(@X,sum<Y>) :- b(@X,Y)."}) {
    EXPECT_NO_THROW(parse_program(src)) << src;
  }
}

TEST(Parser, NegatedAtom) {
  auto program = parse_program("a(@X) :- b(@X,Y), !c(@X,Y).");
  const auto* ba = std::get_if<BodyAtom>(&program.rules[0].body[1]);
  ASSERT_NE(ba, nullptr);
  EXPECT_TRUE(ba->negated);
}

TEST(Parser, MaterializeDeclaration) {
  auto program = parse_program("materialize(link, 120, 500, keys(1,2)).");
  ASSERT_EQ(program.materializations.size(), 1u);
  const Materialize& m = program.materializations[0];
  EXPECT_EQ(m.predicate, "link");
  ASSERT_TRUE(m.lifetime_seconds.has_value());
  EXPECT_DOUBLE_EQ(*m.lifetime_seconds, 120.0);
  ASSERT_TRUE(m.max_size.has_value());
  EXPECT_EQ(*m.max_size, 500u);
  EXPECT_EQ(m.key_fields, (std::vector<std::size_t>{1, 2}));
}

TEST(Parser, MaterializeInfinity) {
  auto program = parse_program("materialize(p, infinity, infinity, keys(1)).");
  EXPECT_FALSE(program.materializations[0].lifetime_seconds.has_value());
  EXPECT_FALSE(program.materializations[0].max_size.has_value());
}

TEST(Parser, FactParsing) {
  Tuple t = parse_fact("link(@n1,n2,3)");
  EXPECT_EQ(t.predicate(), "link");
  EXPECT_EQ(t.at(0).as_addr(), "n1");
  EXPECT_EQ(t.at(1).as_addr(), "n2");
  EXPECT_EQ(t.at(2).as_int(), 3);
}

TEST(Parser, FactWithVariableRejected) {
  EXPECT_THROW(parse_fact("link(@n1,X,3)"), ParseError);
}

TEST(Parser, GroundFactRuleInProgram) {
  auto program = parse_program("link(@n1,n2,1).");
  ASSERT_EQ(program.rules.size(), 1u);
  EXPECT_TRUE(program.rules[0].is_fact());
}

TEST(Parser, ArithmeticPrecedence) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), Y = Z + 2 * 3.");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  ASSERT_NE(cmp, nullptr);
  // Renders as (Z+(2*3)): multiplication binds tighter.
  EXPECT_EQ(cmp->rhs->to_string(), "(Z+(2*3))");
}

TEST(Parser, ListLiteralConstantFolded) {
  auto program = parse_program("a(@X,Y) :- b(@X), Y = [1,2,3].");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  ASSERT_NE(cmp, nullptr);
  EXPECT_EQ(cmp->rhs->kind, Term::Kind::Const);
  EXPECT_EQ(cmp->rhs->constant.as_list().size(), 3u);
}

TEST(Parser, ListLiteralWithVariablesBecomesFList) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), Y = [X,Z].");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  EXPECT_EQ(cmp->rhs->kind, Term::Kind::Func);
  EXPECT_EQ(cmp->rhs->name, "f_list");
}

TEST(Parser, UnaryMinus) {
  auto program = parse_program("a(@X,Y) :- b(@X), Y = -5.");
  const auto* cmp = std::get_if<Comparison>(&program.rules[0].body[1]);
  EXPECT_EQ(cmp->rhs->constant.as_int(), -5);
}

TEST(Parser, BooleanLiterals) {
  auto program = parse_program("a(@X) :- b(@X,Y), Y = true, f_inPath(Y,X) = false.");
  EXPECT_EQ(program.rules[0].body.size(), 3u);
}

TEST(Parser, MissingPeriodIsError) {
  EXPECT_THROW(parse_program("a(@X) :- b(@X)"), ParseError);
}

TEST(Parser, DanglingCommaIsError) {
  EXPECT_THROW(parse_program("a(@X) :- b(@X), ."), ParseError);
}

TEST(Parser, ProgramToStringReparses) {
  const char* source = R"(
    materialize(link, infinity, infinity, keys(1,2)).
    r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
    r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
  )";
  auto program = parse_program(source);
  auto reparsed = parse_program(program.to_string());
  EXPECT_EQ(program.to_string(), reparsed.to_string());
}

// ---------------------------------------------------------------------------
// Every error path must carry a real source position (never line 0 / the
// end-of-input fallback), so diagnostics built from ParseError locate.
// ---------------------------------------------------------------------------

/// Expect a ParseError from parsing `source` and return its position.
std::pair<int, int> error_position(const std::string& source) {
  try {
    parse_program(source);
  } catch (const ParseError& e) {
    EXPECT_GT(e.line(), 0) << e.what();
    EXPECT_GT(e.column(), 0) << e.what();
    return {e.line(), e.column()};
  }
  ADD_FAILURE() << "expected ParseError from: " << source;
  return {0, 0};
}

TEST(ParserSpans, UnterminatedBlockCommentPointsAtOpening) {
  const auto [line, col] = error_position("a(@X) :- b(@X).\n  /* never closed");
  EXPECT_EQ(line, 2);
  EXPECT_EQ(col, 3);
}

TEST(ParserSpans, UnterminatedStringPointsAtOpeningQuote) {
  const auto [line, col] = error_position("f(@n1, \"oops).\n");
  EXPECT_EQ(line, 1);
  EXPECT_EQ(col, 8);
}

TEST(ParserSpans, BadIntegerLiteralPointsAtToken) {
  struct Case {
    const char* source;
    int line;
    int column;
  };
  for (const Case& c : {
           // Exceeds int64: from_chars reports out-of-range.
           Case{"f(@n1,\n   99999999999999999999999).\n", 2, 4},
           // A key index is a positive integer; a size a non-negative one
           // (a double past 2^64 would not fit size_t).
           Case{"materialize(link, infinity, infinity, keys(1.5)).", 1, 44},
           Case{"materialize(link, infinity, infinity, keys(1,0)).", 1, 46},
           Case{"materialize(link, infinity, 2.5, keys(1)).", 1, 29},
           Case{"materialize(link, 10, 99999999999999999999.0, keys(1)).", 1, 23},
       }) {
    const auto [line, col] = error_position(c.source);
    EXPECT_EQ(line, c.line) << c.source;
    EXPECT_EQ(col, c.column) << c.source;
  }
}

TEST(ParserSpans, NonConstantFactArgumentPointsAtAtom) {
  try {
    parse_fact("link(@n1,X,3)");
    FAIL() << "expected ParseError";
  } catch (const ParseError& e) {
    EXPECT_EQ(e.line(), 1);
    EXPECT_EQ(e.column(), 1);  // the atom, not the end of input
  }
}

}  // namespace
}  // namespace fvn::ndlog
