// The FVN facade — the paper's Figure 1 as an object. One `Fvn` instance
// carries a protocol through the four phases:
//
//   design         — attach a network meta-model (metarouting algebra with
//                    discharged obligations, §3.3) or a component model
//                    (§3.2), or start directly from NDlog (§2.2);
//   specification  — the NDlog program and its logical theory, kept in sync
//                    by the arc-3/arc-4 translators;
//   verification   — theorem proving (arc 5), finite-model counterexample
//                    search, model checking over the transition-system view
//                    (arcs 6/8), and runtime monitors;
//   implementation — distributed execution on the simulator (arc 7).
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "algebra/routing_algebra.hpp"
#include "logic/finite_model.hpp"
#include "logic/formula.hpp"
#include "mc/ndlog_ts.hpp"
#include "prover/prover.hpp"
#include "runtime/simulator.hpp"
#include "translate/components.hpp"
#include "translate/ndlog_to_logic.hpp"

namespace fvn::core {

/// Result of verifying one property through a chosen back-end.
struct VerificationOutcome {
  std::string property;
  std::string backend;  // "prover", "finite-model", "model-checker", "runtime"
  bool verified = false;
  std::string detail;  // step counts / counterexample / trace summary
};

/// The unifying pipeline object.
class Fvn {
 public:
  /// Start from an NDlog specification (arc 4 flows downstream).
  static Fvn from_ndlog(ndlog::Program program);
  /// Start from a component-based design (arc 2 + arc 3: the logic spec and
  /// the NDlog program are both generated).
  static Fvn from_components(const translate::CompositeComponent& model,
                             const translate::LocationSchema& locations = {});

  /// Attach a metarouting meta-model; its proof obligations are discharged
  /// immediately (the §3.3.2 typecheck analogue) and the report retained.
  void attach_meta_model(const algebra::RoutingAlgebra& algebra);
  const std::optional<algebra::DischargeReport>& meta_model_report() const {
    return meta_report_;
  }

  const ndlog::Program& program() const noexcept { return program_; }
  const logic::Theory& theory() const noexcept { return theory_; }

  /// Register a named property for verification.
  void add_property(logic::Theorem theorem,
                    std::vector<prover::Command> script = {prover::Command::grind()});
  /// Add an axiom available to every proof (e.g. link-cost positivity).
  void add_axiom(logic::Theorem axiom);

  /// Arc 5: run every registered property through the theorem prover.
  std::vector<VerificationOutcome> verify_statically();

  /// Counterexample search: evaluate the program on the given facts and test
  /// each property in the resulting finite model.
  std::vector<VerificationOutcome> search_counterexamples(
      const std::vector<ndlog::Tuple>& facts);

  /// Arc 8: model-check an invariant over all message interleavings.
  VerificationOutcome model_check(const std::string& property_name,
                                  const std::vector<ndlog::Tuple>& facts,
                                  const std::function<bool(const mc::NetState&)>& invariant,
                                  std::size_t max_states = 50000);

  /// Arc 7: distributed execution. Runtime verification watches the run
  /// through `options.tuple_events`.
  runtime::SimStats execute(const std::vector<ndlog::Tuple>& facts,
                            runtime::SimOptions options = {},
                            ndlog::Database* merged_out = nullptr);

 private:
  ndlog::Program program_;
  logic::Theory theory_;
  std::optional<algebra::DischargeReport> meta_report_;
  std::vector<logic::Theorem> axioms_;
  struct Property {
    logic::Theorem theorem;
    std::vector<prover::Command> script;
  };
  std::vector<Property> properties_;
};

}  // namespace fvn::core
