// Unit tests for static analysis: safety, arity checking, dependency graph,
// stratification (negation/aggregation placement), the catalog, and the
// builtin function table.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "ndlog/analysis.hpp"
#include "ndlog/builtins.hpp"
#include "ndlog/catalog.hpp"
#include "ndlog/parser.hpp"

namespace fvn::ndlog {
namespace {

TEST(Safety, UnboundHeadVariableRejected) {
  auto program = parse_program("a(@X,Y) :- b(@X).");
  EXPECT_THROW(check_safety(program), AnalysisError);
}

TEST(Safety, BoundThroughAssignmentChainAccepted) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), W = Z + 1, Y = W * 2.");
  EXPECT_NO_THROW(check_safety(program));
}

TEST(Safety, UnboundNegatedAtomRejected) {
  auto program = parse_program("a(@X) :- b(@X), !c(@X,Y).");
  EXPECT_THROW(check_safety(program), AnalysisError);
}

TEST(Safety, UnknownFunctionRejected) {
  auto program = parse_program("a(@X,Y) :- b(@X,Z), Y = f_bogus(Z).");
  EXPECT_THROW(check_safety(program), AnalysisError);
}

TEST(Safety, ComparisonOverUnboundVarsRejected) {
  auto program = parse_program("a(@X) :- b(@X), Y < 3.");
  EXPECT_THROW(check_safety(program), AnalysisError);
}

TEST(Arity, ConflictRejected) {
  auto program = parse_program("a(@X) :- b(@X,Y). c(@X) :- b(@X).");
  EXPECT_THROW(check_arities(program), AnalysisError);
}

TEST(Dependencies, BaseAndDerivedPredicates) {
  auto program = core::path_vector_program();
  auto base = base_predicates(program);
  auto derived = derived_predicates(program);
  EXPECT_TRUE(base.count("link"));
  EXPECT_TRUE(derived.count("path"));
  EXPECT_TRUE(derived.count("bestPath"));
  EXPECT_TRUE(derived.count("bestPathCost"));
  EXPECT_FALSE(derived.count("link"));
}

TEST(Stratification, PathVectorHasAggAboveRecursion) {
  auto program = core::path_vector_program();
  auto strat = stratify(program);
  EXPECT_LT(strat.stratum_of.at("path"), strat.stratum_of.at("bestPathCost"));
  EXPECT_LE(strat.stratum_of.at("bestPathCost"), strat.stratum_of.at("bestPath"));
  EXPECT_GE(strat.stratum_count, 2);
}

TEST(Stratification, RecursionThroughAggregateRejected) {
  // p depends on its own aggregate: unstratifiable.
  auto program = parse_program(R"(
    p(@X,C) :- q(@X,C).
    q(@X,min<C>) :- p(@X,C).
  )");
  EXPECT_THROW(stratify(program), AnalysisError);
}

TEST(Stratification, RecursionThroughNegationRejected) {
  auto program = parse_program(R"(
    win(@X) :- move(@X,Y), !win(@Y).
  )");
  EXPECT_THROW(stratify(program), AnalysisError);
}

TEST(Stratification, NegationAcrossStrataAccepted) {
  auto program = parse_program(R"(
    reach(@X,Y) :- edge(@X,Y).
    reach(@X,Y) :- edge(@X,Z), reach(@Z,Y).
    unreach(@X,Y) :- node(@X), node(@Y), !reach(@X,Y).
  )");
  auto strat = stratify(program);
  EXPECT_GT(strat.stratum_of.at("unreach"), strat.stratum_of.at("reach"));
}

TEST(Stratification, PolicyProgramStratifies) {
  EXPECT_NO_THROW(analyze(core::policy_path_vector_program()));
}

TEST(Catalog, LocationIndexAndKeys) {
  auto program = core::path_vector_program();
  auto catalog = Catalog::from_program(program);
  EXPECT_EQ(catalog.loc_index("path"), 0u);
  EXPECT_EQ(catalog.info("link").key_fields, (std::vector<std::size_t>{1, 2}));
  EXPECT_FALSE(catalog.info("link").lifetime_seconds.has_value());
}

TEST(Catalog, SoftStateLifetime) {
  auto program = parse_program("materialize(hb, 30, infinity, keys(1)). a(@X) :- hb(@X).");
  auto catalog = Catalog::from_program(program);
  ASSERT_TRUE(catalog.info("hb").lifetime_seconds.has_value());
  EXPECT_DOUBLE_EQ(*catalog.info("hb").lifetime_seconds, 30.0);
}

TEST(Catalog, ConflictingLocationPositionsRejected) {
  auto program = parse_program(R"(
    a(@X,Y) :- b(@X,Y).
    c(@X,Y) :- a(X,@Y).
  )");
  EXPECT_THROW(Catalog::from_program(program), AnalysisError);
}

Value call(std::string_view name, const std::vector<Value>& args) {
  return call_builtin(name, args);
}

TEST(Builtins, PathFunctions) {
  auto n1 = Value::addr("n1");
  auto n2 = Value::addr("n2");
  auto n3 = Value::addr("n3");
  auto path = call("f_init", {n1, n2});
  EXPECT_EQ(path.to_string(), "[n1,n2]");
  auto longer = call("f_concatPath", {n3, path});
  EXPECT_EQ(longer.to_string(), "[n3,n1,n2]");
  EXPECT_TRUE(call("f_inPath", {longer, n1}).as_bool());
  EXPECT_FALSE(call("f_inPath", {path, n3}).as_bool());
  EXPECT_EQ(call("f_size", {longer}).as_int(), 3);
  EXPECT_EQ(call("f_head", {longer}), n3);
  EXPECT_EQ(call("f_last", {longer}), n2);
  EXPECT_EQ(call("f_tail", {longer}).as_list().size(), 2u);
  EXPECT_EQ(call("f_reverse", {path}).to_string(), "[n2,n1]");
  EXPECT_EQ(call("f_append", {path, n3}).as_list().size(), 3u);
}

TEST(Builtins, MinMaxAbs) {
  EXPECT_EQ(call("f_min", {Value::integer(3), Value::integer(5)}).as_int(), 3);
  EXPECT_EQ(call("f_max", {Value::integer(3), Value::integer(5)}).as_int(), 5);
  EXPECT_EQ(call("f_abs", {Value::integer(-4)}).as_int(), 4);
}

TEST(Builtins, ArityErrors) {
  EXPECT_THROW(call("f_init", {Value::integer(1)}), TypeError);
  EXPECT_THROW(call("f_head", {Value::list({})}), TypeError);
  EXPECT_THROW(call("f_nope", {}), TypeError);
}

}  // namespace
}  // namespace fvn::ndlog
