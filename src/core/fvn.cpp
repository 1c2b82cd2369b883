#include "core/fvn.hpp"

#include <sstream>

namespace fvn::core {

Fvn Fvn::from_ndlog(ndlog::Program program) {
  Fvn fvn;
  fvn.program_ = std::move(program);
  fvn.theory_ = translate::to_logic(fvn.program_);
  return fvn;
}

Fvn Fvn::from_components(const translate::CompositeComponent& model,
                         const translate::LocationSchema& locations) {
  Fvn fvn;
  fvn.program_ = translate::generate_ndlog(model, locations);
  // Arc 2: the component model's own logical specification; arc 4 would give
  // an equivalent rule-level theory — we keep the component-level one because
  // it matches the paper's §3.2.1 rendering.
  fvn.theory_ = translate::generate_logic(model);
  return fvn;
}

void Fvn::attach_meta_model(const algebra::RoutingAlgebra& alg) {
  meta_report_ = algebra::discharge(alg);
}

void Fvn::add_property(logic::Theorem theorem, std::vector<prover::Command> script) {
  properties_.push_back(Property{std::move(theorem), std::move(script)});
}

void Fvn::add_axiom(logic::Theorem axiom) { axioms_.push_back(std::move(axiom)); }

std::vector<VerificationOutcome> Fvn::verify_statically() {
  std::vector<VerificationOutcome> out;
  prover::Prover prover(theory_);
  for (const auto& ax : axioms_) prover.add_axiom(ax);
  for (const auto& prop : properties_) {
    auto result = prover.prove(prop.theorem, prop.script);
    VerificationOutcome outcome;
    outcome.property = prop.theorem.name;
    outcome.backend = "prover";
    outcome.verified = result.proved;
    std::ostringstream os;
    if (result.proved) {
      os << result.scripted_steps << " scripted steps, " << result.automated_steps()
         << " automated, " << result.elapsed_seconds << "s";
    } else {
      os << result.failure_reason;
    }
    outcome.detail = os.str();
    out.push_back(std::move(outcome));
  }
  return out;
}

std::vector<VerificationOutcome> Fvn::search_counterexamples(
    const std::vector<ndlog::Tuple>& facts) {
  std::vector<VerificationOutcome> out;
  ndlog::Evaluator eval;
  auto result = eval.run(program_, facts);
  logic::FiniteModel model;
  model.load_database(result.database);
  prover::Prover prover(theory_);
  for (const auto& prop : properties_) {
    VerificationOutcome outcome;
    outcome.property = prop.theorem.name;
    outcome.backend = "finite-model";
    auto cex = prover.find_counterexample(prop.theorem, model);
    outcome.verified = !cex.has_value();
    outcome.detail = cex.value_or("no counterexample in the evaluated instance");
    out.push_back(std::move(outcome));
  }
  return out;
}

VerificationOutcome Fvn::model_check(
    const std::string& property_name, const std::vector<ndlog::Tuple>& facts,
    const std::function<bool(const mc::NetState&)>& invariant, std::size_t max_states) {
  mc::NdlogTransitionSystem ts(program_);
  auto result = ts.check_invariant_all_interleavings(ts.initial(facts), invariant, max_states);
  VerificationOutcome outcome;
  outcome.property = property_name;
  outcome.backend = "model-checker";
  outcome.verified = result.property_holds;
  std::ostringstream os;
  os << result.states_explored << " states, " << result.transitions << " transitions";
  if (!result.property_holds) os << "; counterexample of " << result.counterexample.size()
                                 << " steps";
  if (!result.exhausted) os << " (bounded)";
  outcome.detail = os.str();
  return outcome;
}

runtime::SimStats Fvn::execute(const std::vector<ndlog::Tuple>& facts,
                               runtime::SimOptions options,
                               ndlog::Database* merged_out) {
  runtime::Simulator sim(program_, std::move(options));
  sim.inject_all(facts);
  auto stats = sim.run();
  if (merged_out != nullptr) *merged_out = sim.merged_database();
  return stats;
}

}  // namespace fvn::core
