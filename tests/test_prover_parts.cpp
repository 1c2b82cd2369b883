// Unit tests for the prover's components: rationals, linear constraints,
// Fourier–Motzkin, the path-theory rewriter (including the property-style
// agreement check against the concrete built-ins), and the logic AST.
#include <gtest/gtest.h>

#include <random>

#include "logic/finite_model.hpp"
#include "ndlog/builtins.hpp"
#include "prover/linear.hpp"
#include "prover/rewrite.hpp"

namespace fvn {
namespace {

using logic::Formula;
using logic::LTerm;
using logic::LTermPtr;
using logic::Value;
using ndlog::CmpOp;
using prover::infeasible;
using prover::LinearConstraint;
using prover::linearize;
using prover::Rational;

TEST(Rational, Normalization) {
  EXPECT_EQ(Rational(2, 4).num(), 1);
  EXPECT_EQ(Rational(2, 4).den(), 2);
  EXPECT_EQ(Rational(1, -2).num(), -1);
  EXPECT_EQ(Rational(1, -2).den(), 2);
  EXPECT_THROW(Rational(1, 0), std::invalid_argument);
}

TEST(Rational, Arithmetic) {
  EXPECT_EQ(Rational(1, 2) + Rational(1, 3), Rational(5, 6));
  EXPECT_EQ(Rational(1, 2) * Rational(2, 3), Rational(1, 3));
  EXPECT_EQ(Rational(1) - Rational(3, 2), Rational(-1, 2));
  EXPECT_TRUE(Rational(1, 3) < Rational(1, 2));
}

TEST(Linearize, VariablesAndConstants) {
  auto expr = linearize(*LTerm::arith(
      ndlog::BinOp::Add, LTerm::var("x"),
      LTerm::arith(ndlog::BinOp::Mul, LTerm::constant_of(Value::integer(3)),
                   LTerm::var("y"))));
  EXPECT_EQ(expr.coeffs.at("x"), Rational(1));
  EXPECT_EQ(expr.coeffs.at("y"), Rational(3));
  EXPECT_TRUE(expr.constant.is_zero());
}

TEST(Linearize, NonLinearBecomesOpaque) {
  auto expr = linearize(
      *LTerm::arith(ndlog::BinOp::Mul, LTerm::var("x"), LTerm::var("y")));
  EXPECT_EQ(expr.coeffs.size(), 1u);  // one opaque atom for x*y
  EXPECT_EQ(expr.coeffs.begin()->first, "(x*y)");
}

TEST(FourierMotzkin, DetectsSimpleContradiction) {
  // x <= 2 and x >= 5.
  auto c1 = prover::constraint_of(
      *Formula::cmp(CmpOp::Le, LTerm::var("x"), LTerm::constant_of(Value::integer(2))));
  auto c2 = prover::constraint_of(
      *Formula::cmp(CmpOp::Ge, LTerm::var("x"), LTerm::constant_of(Value::integer(5))));
  std::vector<LinearConstraint> all;
  all.insert(all.end(), c1->begin(), c1->end());
  all.insert(all.end(), c2->begin(), c2->end());
  EXPECT_TRUE(infeasible(all));
}

TEST(FourierMotzkin, StrictVsNonStrictBoundary) {
  // x <= 3 and x >= 3 is feasible; x < 3 and x >= 3 is not.
  auto le = prover::constraint_of(
      *Formula::cmp(CmpOp::Le, LTerm::var("x"), LTerm::constant_of(Value::integer(3))));
  auto lt = prover::constraint_of(
      *Formula::cmp(CmpOp::Lt, LTerm::var("x"), LTerm::constant_of(Value::integer(3))));
  auto ge = prover::constraint_of(
      *Formula::cmp(CmpOp::Ge, LTerm::var("x"), LTerm::constant_of(Value::integer(3))));
  std::vector<LinearConstraint> feasible_set(*le);
  feasible_set.insert(feasible_set.end(), ge->begin(), ge->end());
  EXPECT_FALSE(infeasible(feasible_set));
  std::vector<LinearConstraint> infeasible_set(*lt);
  infeasible_set.insert(infeasible_set.end(), ge->begin(), ge->end());
  EXPECT_TRUE(infeasible(infeasible_set));
}

TEST(FourierMotzkin, ChainElimination) {
  // x <= y, y <= z, z <= x - 1: infeasible.
  auto mk = [](const char* a, const char* b, std::int64_t offset) {
    return prover::constraint_of(*Formula::cmp(
        CmpOp::Le, LTerm::var(a),
        LTerm::arith(ndlog::BinOp::Add, LTerm::var(b),
                     LTerm::constant_of(Value::integer(offset)))));
  };
  std::vector<LinearConstraint> all;
  for (const auto& cs : {mk("x", "y", 0), mk("y", "z", 0), mk("z", "x", -1)}) {
    all.insert(all.end(), cs->begin(), cs->end());
  }
  EXPECT_TRUE(infeasible(all));
  // Relaxing the last constraint to offset 0 makes it satisfiable (all equal).
  all.clear();
  for (const auto& cs : {mk("x", "y", 0), mk("y", "z", 0), mk("z", "x", 0)}) {
    all.insert(all.end(), cs->begin(), cs->end());
  }
  EXPECT_FALSE(infeasible(all));
}

TEST(FourierMotzkin, EqualityExpansion) {
  // x = 4 and x <= 3: infeasible.
  auto eq = prover::constraint_of(
      *Formula::eq(LTerm::var("x"), LTerm::constant_of(Value::integer(4))));
  auto le = prover::constraint_of(
      *Formula::cmp(CmpOp::Le, LTerm::var("x"), LTerm::constant_of(Value::integer(3))));
  std::vector<LinearConstraint> all(*eq);
  all.insert(all.end(), le->begin(), le->end());
  EXPECT_TRUE(infeasible(all));
}

TEST(FourierMotzkin, NeYieldsNoConstraint) {
  EXPECT_FALSE(prover::constraint_of(
                   *Formula::cmp(CmpOp::Ne, LTerm::var("x"), LTerm::var("y")))
                   .has_value());
}

// ---------------------------------------------------------------------------
// Path-theory rewriting
// ---------------------------------------------------------------------------

TEST(Rewrite, HeadOfInitAndConcat) {
  auto init = LTerm::func("f_init", {LTerm::var("X"), LTerm::var("Y")});
  EXPECT_EQ(prover::rewrite_term(LTerm::func("f_head", {init}))->to_string(), "X");
  auto cat = LTerm::func("f_concatPath", {LTerm::var("Z"), LTerm::var("P")});
  EXPECT_EQ(prover::rewrite_term(LTerm::func("f_head", {cat}))->to_string(), "Z");
}

TEST(Rewrite, LastPushesThroughConcat) {
  auto init = LTerm::func("f_init", {LTerm::var("X"), LTerm::var("Y")});
  auto cat = LTerm::func("f_concatPath", {LTerm::var("Z"), init});
  EXPECT_EQ(prover::rewrite_term(LTerm::func("f_last", {cat}))->to_string(), "Y");
}

TEST(Rewrite, SizeComputesSymbolically) {
  auto init = LTerm::func("f_init", {LTerm::var("X"), LTerm::var("Y")});
  auto cat = LTerm::func("f_concatPath", {LTerm::var("Z"), init});
  // f_size(Z::[X,Y]) -> f_size([X,Y]) + 1 -> 2 + 1 -> 3.
  EXPECT_EQ(prover::rewrite_term(LTerm::func("f_size", {cat}))->constant.as_int(), 3);
}

TEST(Rewrite, InPathSelfMembership) {
  auto init = LTerm::func("f_init", {LTerm::var("X"), LTerm::var("Y")});
  auto in_x = LTerm::func("f_inPath", {init, LTerm::var("X")});
  EXPECT_EQ(prover::rewrite_term(in_x)->constant.as_bool(), true);
  auto cat = LTerm::func("f_concatPath", {LTerm::var("Z"), LTerm::var("P")});
  auto in_z = LTerm::func("f_inPath", {cat, LTerm::var("Z")});
  EXPECT_EQ(prover::rewrite_term(in_z)->constant.as_bool(), true);
  // Unknown membership stays symbolic.
  auto in_w = LTerm::func("f_inPath", {cat, LTerm::var("W")});
  EXPECT_EQ(prover::rewrite_term(in_w)->kind, LTerm::Kind::Func);
}

TEST(Rewrite, GroundConstantFolding) {
  auto t = LTerm::func("f_size", {LTerm::constant_of(Value::list(
                                     {Value::addr("a"), Value::addr("b")}))});
  EXPECT_EQ(prover::rewrite_term(t)->constant.as_int(), 2);
  auto sum = LTerm::arith(ndlog::BinOp::Add, LTerm::constant_of(Value::integer(2)),
                          LTerm::constant_of(Value::integer(3)));
  EXPECT_EQ(prover::rewrite_term(sum)->constant.as_int(), 5);
}

TEST(Rewrite, FormulaLevelReflexivityAndGroundCmp) {
  auto refl = Formula::eq(LTerm::var("x"), LTerm::var("x"));
  EXPECT_EQ(prover::rewrite_formula(refl)->kind, Formula::Kind::True);
  auto ground = Formula::cmp(CmpOp::Lt, LTerm::constant_of(Value::integer(1)),
                             LTerm::constant_of(Value::integer(2)));
  EXPECT_EQ(prover::rewrite_formula(ground)->kind, Formula::Kind::True);
  auto false_ground = Formula::cmp(CmpOp::Gt, LTerm::constant_of(Value::integer(1)),
                                   LTerm::constant_of(Value::integer(2)));
  EXPECT_EQ(prover::rewrite_formula(false_ground)->kind, Formula::Kind::False);
}

/// Property test: every rewrite rule agrees with the concrete built-in
/// implementations on random ground instances.
class RewriteSoundness : public ::testing::TestWithParam<int> {};

TEST_P(RewriteSoundness, RulesAgreeWithBuiltins) {
  std::mt19937_64 rng(static_cast<std::uint64_t>(GetParam()));
  const auto call = [](std::string_view name, const std::vector<Value>& args) {
    return ndlog::call_builtin(name, args);
  };
  std::uniform_int_distribution<int> node(0, 5);
  std::uniform_int_distribution<int> len(0, 4);
  auto random_addr = [&] { return Value::addr("n" + std::to_string(node(rng))); };

  for (int round = 0; round < 50; ++round) {
    const Value x = random_addr();
    const Value y = random_addr();
    const Value z = random_addr();
    std::vector<Value> items;
    const int n = len(rng);
    for (int i = 0; i < n; ++i) items.push_back(random_addr());
    items.push_back(y);  // non-empty tail so f_last is defined
    const Value p = Value::list(items);

    // Symbolic terms over constants: rewriting must equal direct evaluation.
    auto init = LTerm::func("f_init", {LTerm::constant_of(x), LTerm::constant_of(y)});
    auto cat = LTerm::func("f_concatPath", {LTerm::constant_of(z), LTerm::constant_of(p)});
    for (const auto& [symbolic, direct] :
         std::vector<std::pair<LTermPtr, Value>>{
             {LTerm::func("f_head", {init}), call("f_head", {call("f_init", {x, y})})},
             {LTerm::func("f_last", {init}), call("f_last", {call("f_init", {x, y})})},
             {LTerm::func("f_size", {cat}),
              call("f_size", {call("f_concatPath", {z, p})})},
             {LTerm::func("f_inPath", {cat, LTerm::constant_of(z)}),
              call("f_inPath", {call("f_concatPath", {z, p}), z})},
         }) {
      auto rewritten = prover::rewrite_term(symbolic);
      ASSERT_EQ(rewritten->kind, LTerm::Kind::Const) << symbolic->to_string();
      EXPECT_EQ(rewritten->constant, direct) << symbolic->to_string();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RewriteSoundness, ::testing::Values(1, 2, 3, 4, 5));

// ---------------------------------------------------------------------------
// Logic AST basics
// ---------------------------------------------------------------------------

TEST(FormulaAst, SmartConstructorsSimplify) {
  auto t = Formula::truth();
  auto f = Formula::falsity();
  EXPECT_EQ(Formula::conj({t, t})->kind, Formula::Kind::True);
  EXPECT_EQ(Formula::conj({t, f})->kind, Formula::Kind::False);
  EXPECT_EQ(Formula::disj({f, f})->kind, Formula::Kind::False);
  EXPECT_EQ(Formula::negate(Formula::negate(Formula::pred("p", {})))->kind,
            Formula::Kind::Pred);
}

TEST(FormulaAst, QuantifierMerging) {
  auto inner = Formula::forall({logic::TypedVar{"y", logic::Sort::Node}},
                               Formula::pred("p", {LTerm::var("x"), LTerm::var("y")}));
  auto outer = Formula::forall({logic::TypedVar{"x", logic::Sort::Node}}, inner);
  EXPECT_EQ(outer->binders.size(), 2u);
}

TEST(FormulaAst, SubstitutionRespectsBinders) {
  // (FORALL x: p(x,y))[y := c] changes y; [x := c] is a no-op.
  auto f = Formula::forall({logic::TypedVar{"x", logic::Sort::Node}},
                           Formula::pred("p", {LTerm::var("x"), LTerm::var("y")}));
  auto c = LTerm::constant_of(Value::addr("n0"));
  EXPECT_NE(f->substitute("y", c)->to_string().find("n0"), std::string::npos);
  EXPECT_EQ(f->substitute("x", c)->to_string(), f->to_string());
}

TEST(FormulaAst, FreeVars) {
  auto f = Formula::forall({logic::TypedVar{"x", logic::Sort::Node}},
                           Formula::pred("p", {LTerm::var("x"), LTerm::var("y")}));
  std::set<std::string> vars;
  f->free_vars(vars);
  EXPECT_EQ(vars, (std::set<std::string>{"y"}));
}

TEST(FiniteModelEval, QuantifiersOverSortedDomains) {
  logic::FiniteModel model;
  model.add_tuple(ndlog::Tuple("p", {Value::addr("n0"), Value::integer(1)}));
  model.add_tuple(ndlog::Tuple("p", {Value::addr("n1"), Value::integer(2)}));
  // FORALL (N:Node): EXISTS (C:Metric): p(N,C)
  auto f = Formula::forall(
      {logic::TypedVar{"N", logic::Sort::Node}},
      Formula::exists({logic::TypedVar{"C", logic::Sort::Metric}},
                      Formula::pred("p", {LTerm::var("N"), LTerm::var("C")})));
  EXPECT_TRUE(model.eval(*f));
  // FORALL (N:Node)(C:Metric): p(N,C) is false (p(n0,2) missing).
  auto g = Formula::forall(
      {logic::TypedVar{"N", logic::Sort::Node}, logic::TypedVar{"C", logic::Sort::Metric}},
      Formula::pred("p", {LTerm::var("N"), LTerm::var("C")}));
  EXPECT_FALSE(model.eval(*g));
}

}  // namespace
}  // namespace fvn
