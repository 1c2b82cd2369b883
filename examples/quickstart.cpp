// Quickstart: the complete FVN loop on the paper's running example (§2.2 +
// §3.1) in ~60 lines of user code.
//
//   1. Specify the path-vector protocol in NDlog.
//   2. Translate it to a logical theory (arc 4) and print the PVS-style spec.
//   3. Prove route optimality (bestPathStrong) — the paper's 7-step proof.
//   4. Execute the same program distributed over a simulated network (arc 7).
//
// Build & run:  ./build/examples/quickstart
#include <iostream>

#include "core/fvn.hpp"
#include "core/protocols.hpp"

int main() {
  using namespace fvn;
  using logic::Formula;
  using logic::LTerm;
  using logic::Sort;
  using logic::TypedVar;

  // 1. Specification: NDlog straight from the paper.
  std::cout << "=== NDlog specification (paper section 2.2) ===\n"
            << core::path_vector_source() << "\n";
  core::Fvn fvn = core::Fvn::from_ndlog(core::path_vector_program());

  // 2. Arc 4: the generated logical theory.
  std::cout << "=== Generated logical specification (arc 4) ===\n"
            << fvn.theory().to_string() << "\n";

  // 3. Arc 5: prove route optimality.
  auto S = LTerm::var("S");
  auto D = LTerm::var("D");
  auto C = LTerm::var("C");
  auto P = LTerm::var("P");
  auto C2 = LTerm::var("C2");
  auto P2 = LTerm::var("P2");
  fvn.add_property(logic::Theorem{
      "bestPathStrong",
      Formula::forall(
          {TypedVar{"S", Sort::Node}, TypedVar{"D", Sort::Node},
           TypedVar{"C", Sort::Metric}, TypedVar{"P", Sort::Path}},
          Formula::implies(
              Formula::pred("bestPath", {S, D, P, C}),
              Formula::negate(Formula::exists(
                  {TypedVar{"C2", Sort::Metric}, TypedVar{"P2", Sort::Path}},
                  Formula::conj({Formula::pred("path", {S, D, P2, C2}),
                                 Formula::cmp(ndlog::CmpOp::Lt, C2, C)})))))});
  for (const auto& outcome : fvn.verify_statically()) {
    std::cout << "=== Verification (arc 5) ===\n"
              << outcome.property << " [" << outcome.backend << "] "
              << (outcome.verified ? "PROVED" : "FAILED") << " — " << outcome.detail
              << "\n\n";
  }

  // 4. Arc 7: distributed execution on a 5-node random topology.
  auto links = core::link_facts(core::random_topology(5, 3, /*seed=*/7));
  ndlog::Database merged;
  auto stats = fvn.execute(links, {}, &merged);
  std::cout << "=== Distributed execution (arc 7) ===\n"
            << "events=" << stats.events_processed << " messages=" << stats.messages_sent
            << " converged_at=" << stats.last_change_time << "s\n"
            << "best paths computed:\n";
  for (const auto& row : ndlog::sorted_strings(merged.relation("bestPath"))) {
    std::cout << "  " << row << "\n";
  }
  return 0;
}
