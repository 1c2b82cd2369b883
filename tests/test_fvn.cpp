// End-to-end tests of the Fvn facade: the full Figure-1 pipeline — design
// (meta-model / components), specification (NDlog + logic), verification
// (prover, finite model, model checker, runtime monitors), implementation
// (distributed execution).
#include <gtest/gtest.h>

#include "bgp/component_model.hpp"
#include "core/fvn.hpp"
#include "core/protocols.hpp"

namespace fvn {
namespace {

using core::Fvn;
using logic::Formula;
using logic::LTerm;
using logic::Sort;
using logic::TypedVar;
using ndlog::CmpOp;
using ndlog::Value;

logic::Theorem route_optimality() {
  auto S = LTerm::var("S");
  auto D = LTerm::var("D");
  auto C = LTerm::var("C");
  auto P = LTerm::var("P");
  auto C2 = LTerm::var("C2");
  auto P2 = LTerm::var("P2");
  return logic::Theorem{
      "bestPathStrong",
      Formula::forall(
          {TypedVar{"S", Sort::Node}, TypedVar{"D", Sort::Node},
           TypedVar{"C", Sort::Metric}, TypedVar{"P", Sort::Path}},
          Formula::implies(
              Formula::pred("bestPath", {S, D, P, C}),
              Formula::negate(Formula::exists(
                  {TypedVar{"C2", Sort::Metric}, TypedVar{"P2", Sort::Path}},
                  Formula::conj({Formula::pred("path", {S, D, P2, C2}),
                                 Formula::cmp(CmpOp::Lt, C2, C)})))))};
}

TEST(FvnPipeline, FullPathVectorWorkflow) {
  Fvn fvn = Fvn::from_ndlog(core::path_vector_program());
  fvn.attach_meta_model(algebra::add_algebra());
  ASSERT_TRUE(fvn.meta_model_report().has_value());
  EXPECT_TRUE(fvn.meta_model_report()->convergent());

  fvn.add_property(route_optimality());
  auto statics = fvn.verify_statically();
  ASSERT_EQ(statics.size(), 1u);
  EXPECT_TRUE(statics[0].verified) << statics[0].detail;
  EXPECT_EQ(statics[0].backend, "prover");

  auto links = core::link_facts(core::line_topology(4));
  auto cex = fvn.search_counterexamples(links);
  ASSERT_EQ(cex.size(), 1u);
  EXPECT_TRUE(cex[0].verified) << cex[0].detail;

  ndlog::Database merged;
  auto stats = fvn.execute(links, {}, &merged);
  EXPECT_TRUE(stats.quiesced);
  EXPECT_GT(merged.size("bestPath"), 0u);
}

TEST(FvnPipeline, ComponentDesignFlowsToExecution) {
  Fvn fvn = Fvn::from_components(bgp::pt_model(100, 2), bgp::pt_location_schema());
  // The generated program evaluates under the simulator with distributed
  // placement (bestRoute/activeAS at w, ptOut at u).
  std::vector<ndlog::Tuple> facts;
  facts.emplace_back("bestRoute", std::vector<Value>{Value::addr("w"), Value::integer(1),
                                                     Value::integer(7)});
  facts.emplace_back("activeAS", std::vector<Value>{Value::addr("u"), Value::addr("w"),
                                                    Value::integer(1)});
  ndlog::Database merged;
  auto stats = fvn.execute(facts, {}, &merged);
  EXPECT_TRUE(stats.quiesced);
  ASSERT_EQ(merged.size("ptOut"), 1u);
  EXPECT_EQ(merged.relation("ptOut").begin()->at(2).as_int(), 10);  // 7+1+2
  // And the logic spec carries the composite definition.
  EXPECT_NE(fvn.theory().find_definition("pt"), nullptr);
}

TEST(FvnPipeline, ModelCheckBackend) {
  Fvn fvn = Fvn::from_ndlog(core::path_vector_program());
  auto outcome = fvn.model_check(
      "costPositivity", core::link_facts(core::line_topology(3)),
      [](const mc::NetState& s) {
        for (const auto& [node, tuples] : s.stored) {
          for (const auto& t : tuples) {
            if (t.predicate() == "path" && t.at(3).as_int() < 1) return false;
          }
        }
        return true;
      });
  EXPECT_TRUE(outcome.verified) << outcome.detail;
  EXPECT_EQ(outcome.backend, "model-checker");
}

TEST(FvnPipeline, RuntimeMonitorBackend) {
  Fvn fvn = Fvn::from_ndlog(core::path_vector_program());
  std::size_t violations = 0;
  runtime::SimOptions options;
  options.tuple_events = [&violations](std::string_view kind, const std::string&,
                                       const ndlog::Tuple& t, double) {
    if (kind == "install" && t.predicate() == "path" && t.at(3).as_int() < 1) ++violations;
  };
  fvn.execute(core::link_facts(core::line_topology(4)), std::move(options));
  EXPECT_EQ(violations, 0u);
}

TEST(FvnPipeline, FalsePropertyCaughtByBothBackends) {
  Fvn fvn = Fvn::from_ndlog(core::path_vector_program());
  auto S = LTerm::var("S");
  auto D = LTerm::var("D");
  auto P = LTerm::var("P");
  auto C = LTerm::var("C");
  fvn.add_property(logic::Theorem{
      "allPathsCostOne",
      Formula::forall({TypedVar{"S", Sort::Node}, TypedVar{"D", Sort::Node},
                       TypedVar{"P", Sort::Path}, TypedVar{"C", Sort::Metric}},
                      Formula::implies(Formula::pred("path", {S, D, P, C}),
                                       Formula::eq(C, LTerm::constant_of(
                                                          Value::integer(1)))))});
  auto statics = fvn.verify_statically();
  EXPECT_FALSE(statics[0].verified);
  auto cex = fvn.search_counterexamples(core::link_facts(core::line_topology(3)));
  EXPECT_FALSE(cex[0].verified);
  EXPECT_NE(cex[0].detail.find("counterexample"), std::string::npos);
}

}  // namespace
}  // namespace fvn
