// Provenance tests: derivation trees as concrete proof-theoretic semantics
// (paper footnote 1). Every derivation step must satisfy the corresponding
// clause of the arc-4 translated theory — checked mechanically against the
// finite model of the evaluated database.
#include <gtest/gtest.h>

#include "core/protocols.hpp"
#include "crossval_instances.hpp"
#include "logic/finite_model.hpp"
#include "ndlog/provenance.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace fvn {
namespace {

using ndlog::Derivation;
using ndlog::DerivationPtr;
using ndlog::eval_with_provenance;
using ndlog::Tuple;
using ndlog::Value;

TEST(Provenance, MatchesPlainEvaluation) {
  auto program = core::path_vector_program();
  auto links = core::link_facts(core::random_topology(6, 4, 11));
  ndlog::Evaluator plain;
  auto expected = plain.run(program, links);
  auto traced = eval_with_provenance(program, links);
  EXPECT_EQ(expected.database.dump(), traced.database.dump());
}

TEST(Provenance, StoresWhatTheEvaluatorStoresOnExamplesAndCountSum) {
  // eval_with_provenance runs Evaluator's fixpoint, so it stores exactly
  // what run() stores, count and sum over a repeated value included
  // (distinct values: cnt(a,2), tot(a,3)), and derives every stored tuple.
  std::vector<std::pair<std::string, crossval::Instance>> cases;
  for (const auto& [name, facts] : crossval::example_facts()) {
    cases.push_back({name, {crossval::example_program(name), facts}});
  }
  const auto link = [](const char* d, int c) {
    return Tuple("link", {Value::addr("a"), Value::addr(d), Value::integer(c)});
  };
  const std::vector<Tuple> links = {link("b", 1), link("c", 1), link("d", 2)};
  cases.push_back({"count",
                   {ndlog::parse_program("materialize(link, infinity, infinity, keys(1,2)).\n"
                                         "c1 cnt(@S,count<C>) :- link(@S,_D,C).\n"),
                    links}});
  cases.push_back({"sum",
                   {ndlog::parse_program("materialize(link, infinity, infinity, keys(1,2)).\n"
                                         "s1 tot(@S,sum<C>) :- link(@S,_D,C).\n"),
                    links}});
  for (const auto& [name, instance] : cases) {
    SCOPED_TRACE(name);
    const auto expected = ndlog::Evaluator().run(instance.program, instance.facts);
    const auto traced = eval_with_provenance(instance.program, instance.facts);
    EXPECT_EQ(traced.database.dump(), expected.database.dump());
    EXPECT_GT(traced.database.total_size(), instance.facts.size());
    for (const auto& pred : traced.database.predicates()) {
      for (const auto& t : traced.database.relation(pred)) {
        EXPECT_NE(traced.derivation_of(t), nullptr) << t.to_string();
      }
    }
  }
}

TEST(Provenance, EveryTupleHasADerivation) {
  auto program = core::path_vector_program();
  auto links = core::link_facts(core::line_topology(4));
  auto result = eval_with_provenance(program, links);
  for (const auto& row : result.database.dump()) {
    (void)row;
  }
  for (const auto& pred : result.database.predicates()) {
    for (const auto& t : result.database.relation(pred)) {
      EXPECT_NE(result.derivation_of(t), nullptr) << t.to_string();
    }
  }
}

TEST(Provenance, BaseFactsAreLeaves) {
  auto links = core::link_facts(core::line_topology(3));
  auto result = eval_with_provenance(core::path_vector_program(), links);
  for (const auto& link : links) {
    auto d = result.derivation_of(link);
    ASSERT_NE(d, nullptr);
    EXPECT_TRUE(d->is_base_fact());
    EXPECT_EQ(d->height(), 1u);
  }
}

TEST(Provenance, TransitivePathCitesRuleR2) {
  auto result = eval_with_provenance(core::path_vector_program(),
                                     core::link_facts(core::line_topology(3)));
  // The 2-hop path n0->n2 must be derived by r2 from a link and a 1-hop path.
  Tuple two_hop("path", {Value::addr("n0"), Value::addr("n2"),
                         Value::list({Value::addr("n0"), Value::addr("n1"),
                                      Value::addr("n2")}),
                         Value::integer(2)});
  auto d = result.derivation_of(two_hop);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule, "r2");
  ASSERT_EQ(d->premises.size(), 2u);
  EXPECT_EQ(d->premises[0]->tuple.predicate(), "link");
  EXPECT_EQ(d->premises[1]->tuple.predicate(), "path");
  EXPECT_EQ(d->premises[1]->rule, "r1");
  // Side conditions recorded (C=C1+C2, P=f_concatPath, f_inPath=false).
  EXPECT_GE(d->side_conditions.size(), 3u);
  EXPECT_EQ(d->height(), 3u);  // link leaf -> r1 path -> r2 path
}

TEST(Provenance, AggregateCitesWinningSolution) {
  auto result = eval_with_provenance(core::path_vector_program(),
                                     core::link_facts(core::line_topology(3)));
  Tuple best_cost("bestPathCost",
                  {Value::addr("n0"), Value::addr("n2"), Value::integer(2)});
  auto d = result.derivation_of(best_cost);
  ASSERT_NE(d, nullptr);
  EXPECT_EQ(d->rule, "r3");
  ASSERT_EQ(d->premises.size(), 1u);
  EXPECT_EQ(d->premises[0]->tuple.at(3).as_int(), 2);  // the winning path
}

TEST(Provenance, RenderingShowsTree) {
  auto result = eval_with_provenance(core::path_vector_program(),
                                     core::link_facts(core::line_topology(3)));
  Tuple best("bestPath", {Value::addr("n0"), Value::addr("n2"),
                          Value::list({Value::addr("n0"), Value::addr("n1"),
                                       Value::addr("n2")}),
                          Value::integer(2)});
  auto d = result.derivation_of(best);
  ASSERT_NE(d, nullptr);
  const std::string text = d->to_string();
  EXPECT_NE(text.find("[by r4"), std::string::npos) << text;
  EXPECT_NE(text.find("[base fact]"), std::string::npos) << text;
}

TEST(Provenance, FootnoteOne_DerivationStepsSatisfyTranslatedClauses) {
  // The operational/proof-theoretic equivalence: for every derivation node,
  // the translated inductive definition of its predicate is satisfied at the
  // node's tuple in the finite model of the final database.
  auto program = core::path_vector_program();
  auto theory = translate::to_logic(program);
  auto result = eval_with_provenance(program, core::link_facts(core::line_topology(3)));
  logic::FiniteModel model;
  model.load_database(result.database);

  std::size_t checked = 0;
  for (const auto& [tuple, derivation] : result.derivations) {
    if (derivation->is_base_fact()) continue;
    const auto* def = theory.find_definition(tuple.predicate());
    ASSERT_NE(def, nullptr) << tuple.to_string();
    std::map<std::string, Value> env;
    for (std::size_t i = 0; i < def->params.size(); ++i) {
      env[def->params[i].name] = tuple.at(i);
    }
    EXPECT_TRUE(model.eval(*def->body(), env)) << tuple.to_string();
    if (++checked >= 30) break;  // quantified bodies are costly to enumerate
  }
  EXPECT_GT(checked, 5u);
}

TEST(Provenance, PolicyProgramWithNegationRecordsAbsenceConditions) {
  auto program = core::policy_path_vector_program();
  std::vector<Tuple> facts;
  for (std::size_t i = 0; i < 2; ++i) {
    facts.emplace_back("node", std::vector<Value>{Value::addr(core::node_name(i))});
  }
  for (const auto& t : core::link_facts(core::line_topology(2))) facts.push_back(t);
  for (const char* a : {"n0", "n1"}) {
    for (const char* b : {"n0", "n1"}) {
      if (std::string(a) != b) {
        facts.emplace_back("importPref", std::vector<Value>{Value::addr(a), Value::addr(b),
                                                            Value::integer(100)});
      }
    }
  }
  auto result = eval_with_provenance(program, facts);
  // Some export derivation cites the absence of an exportDeny tuple.
  bool saw_absence = false;
  for (const auto& [tuple, d] : result.derivations) {
    if (tuple.predicate() != "export") continue;
    for (const auto& sc : d->side_conditions) {
      if (sc.rfind("absent exportDeny", 0) == 0) saw_absence = true;
    }
  }
  EXPECT_TRUE(saw_absence);
}

TEST(Provenance, DerivationSizesAreReasonable) {
  auto result = eval_with_provenance(core::path_vector_program(),
                                     core::link_facts(core::line_topology(5)));
  // The longest best path on a 5-line has height ~ O(n).
  std::size_t max_height = 0;
  for (const auto& [tuple, d] : result.derivations) {
    max_height = std::max(max_height, d->height());
  }
  EXPECT_GE(max_height, 5u);
  EXPECT_LE(max_height, 12u);
}

}  // namespace
}  // namespace fvn
