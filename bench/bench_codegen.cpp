// E4 — paper §3.2.2: property-preserving generation of NDlog programs from
// verified component-based specifications (the tc example and the Figure-2
// BGP pipeline).
//
// Benchmarks generation throughput as the component pipeline grows, the
// generated program's evaluation, and the property-preservation check
// (generated logic vs generated NDlog agreement on concrete inputs).
#include <benchmark/benchmark.h>

#include <iostream>

#include "bench_util.hpp"
#include "bgp/component_model.hpp"
#include "logic/finite_model.hpp"
#include "ndlog/eval.hpp"
#include "translate/components.hpp"

namespace {

using namespace fvn;
using ndlog::Tuple;
using ndlog::Value;
using translate::AtomicComponent;
using translate::CompositeComponent;
using translate::PortSchema;

/// `stem` followed by `i` ("s3").
std::string numbered(std::string_view stem, std::size_t i) {
  std::string out(stem);
  out += std::to_string(i);
  return out;
}

/// A chain of n "+1" components: stage_i consumes stage_{i-1}'s output.
CompositeComponent chain(std::size_t n) {
  CompositeComponent out;
  out.name = numbered("chain", n);
  for (std::size_t i = 0; i < n; ++i) {
    AtomicComponent c;
    c.name = numbered("stage", i);
    const std::string in = i == 0 ? "chain_in" : numbered("s", i - 1);
    const std::string out_pred = i + 1 == n ? "chain_out" : numbered("s", i);
    const std::string in_var = numbered("X", i);
    const std::string out_var = numbered("X", i + 1);
    c.inputs = {PortSchema{in, {in_var}}};
    c.outputs = {PortSchema{out_pred, {out_var}}};
    ndlog::Comparison step;
    step.op = ndlog::CmpOp::Eq;
    step.lhs = ndlog::Term::var(out_var);
    step.rhs = ndlog::Term::binary(ndlog::BinOp::Add, ndlog::Term::var(in_var),
                                   ndlog::Term::constant_of(Value::integer(1)));
    c.constraints = {step};
    out.parts.push_back(std::move(c));
  }
  return out;
}

void GenerateNdlogFromChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = chain(n);
  for (auto _ : state) {
    auto program = translate::generate_ndlog(model);
    benchmark::DoNotOptimize(program);
  }
  state.counters["components"] = static_cast<double>(n);
}
BENCHMARK(GenerateNdlogFromChain)->Arg(3)->Arg(10)->Arg(30)->Arg(100);

void GenerateLogicFromChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto model = chain(n);
  for (auto _ : state) {
    auto theory = translate::generate_logic(model);
    benchmark::DoNotOptimize(theory);
  }
}
BENCHMARK(GenerateLogicFromChain)->Arg(3)->Arg(10)->Arg(30)->Arg(100);

void EvaluateGeneratedChain(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  auto program = translate::generate_ndlog(chain(n));
  ndlog::Evaluator eval;
  std::vector<Tuple> facts = {Tuple("chain_in", {Value::integer(0)})};
  std::int64_t result_value = 0;
  for (auto _ : state) {
    auto db = eval.run(program, facts).database;
    result_value = db.relation("chain_out").begin()->at(0).as_int();
    benchmark::DoNotOptimize(db);
  }
  state.counters["output"] = static_cast<double>(result_value);  // == n
}
BENCHMARK(EvaluateGeneratedChain)->Arg(3)->Arg(10)->Arg(30);

void GenerateBgpPtModel(benchmark::State& state) {
  for (auto _ : state) {
    auto program = translate::generate_ndlog(bgp::pt_model(), bgp::pt_location_schema());
    auto theory = translate::generate_logic(bgp::pt_model());
    benchmark::DoNotOptimize(program);
    benchmark::DoNotOptimize(theory);
  }
}
BENCHMARK(GenerateBgpPtModel);

void PropertyPreservationCheck(benchmark::State& state) {
  // tc: generated-logic vs generated-NDlog agreement over a small input grid.
  auto tc = translate::example_tc();
  auto program = translate::generate_ndlog(tc);
  auto theory = translate::generate_logic(tc);
  ndlog::Evaluator eval;
  std::size_t agreements = 0;
  for (auto _ : state) {
    agreements = 0;
    for (std::int64_t i1 = 0; i1 <= 3; ++i1) {
      for (std::int64_t i2 = 0; i2 <= 3; ++i2) {
        auto db = eval.run(program, {Tuple("t1_in", {Value::integer(i1)}),
                                     Tuple("t2_in", {Value::integer(i2)})})
                      .database;
        logic::FiniteModel model;
        model.load_database(db);
        model.add_metric_range(0, 12);
        std::vector<logic::FormulaPtr> parts;
        for (const auto& def : theory.definitions) {
          if (def.pred_name == "tc") continue;
          parts.push_back(def.body());
        }
        auto combined = logic::Formula::exists(
            {logic::TypedVar{"O1", logic::Sort::Metric},
             logic::TypedVar{"O2", logic::Sort::Metric}},
            logic::Formula::conj(std::move(parts)));
        for (std::int64_t o3 = 0; o3 <= 12; ++o3) {
          std::map<std::string, Value> env = {{"I1", Value::integer(i1)},
                                              {"I2", Value::integer(i2)},
                                              {"O3", Value::integer(o3)}};
          const bool logic_says = model.eval(*combined, env);
          const bool ndlog_says =
              db.contains(Tuple("t3_out", {Value::integer(o3)}));
          if (logic_says == ndlog_says) ++agreements;
        }
      }
    }
    benchmark::DoNotOptimize(agreements);
  }
  state.counters["agreements"] = static_cast<double>(agreements);
  state.counters["checked"] = 4.0 * 4.0 * 13.0;
}
BENCHMARK(PropertyPreservationCheck);

}  // namespace

int main(int argc, char** argv) {
  fvn::bench::Harness harness(argc, argv, "codegen");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();

  auto program = translate::generate_ndlog(translate::example_tc());
  if (!harness.smoke()) {
    std::cout << "\n=== E4: component -> NDlog generation (paper section 3.2.2) ===\n"
              << "paper:    tc = {t1,t2,t3} generates three NDlog rules; translation\n"
              << "          is property-preserving\n"
              << "measured: generated rules for tc:\n";
    for (const auto& rule : program.rules) std::cout << "  " << rule.to_string() << "\n";
  }

  // Metrics JSON: size of the generated program (trajectory of the tc
  // example's codegen output).
  harness.metrics().counter("codegen/tc/rules").add(program.rules.size());
  return harness.finish();
}
