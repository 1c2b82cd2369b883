// Metarouting (§3.3): abstract routing algebras A = ⟨Σ, ⪯, L, ⊕, O, φ⟩, the
// four axioms (maximality, absorption, monotonicity, isotonicity), base
// algebras, and composition operators (notably the lexical product used by
// the paper's BGPSystem = lexProduct[LP, RC]).
//
// The FVN analogue of PVS theory interpretation: instantiating an algebra
// generates proof obligations (the axioms); `discharge()` settles them
// automatically by exhaustive checking over the algebra's finite carrier
// samples — the role played by PVS's typechecker + proof engine in §3.3.2.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "ndlog/value.hpp"

namespace fvn::algebra {

using ndlog::Value;

/// An abstract routing algebra with finite carrier samples for automatic
/// obligation discharge. Signatures and labels are NDlog Values so composed
/// algebras can build tuples (lists) of components.
struct RoutingAlgebra {
  std::string name;

  /// Finite sample of Σ (must contain phi and the origins).
  std::vector<Value> signatures;
  /// Finite sample of L.
  std::vector<Value> labels;
  /// φ — the prohibited path (least preferred, absorbing).
  Value phi;
  /// O ⊆ Σ — origination signatures.
  std::vector<Value> origins;

  /// ⪯ : preference; leq(a,b) means a is at least as preferred as b
  /// (the routing protocol selects ⪯-minimal signatures).
  std::function<bool(const Value&, const Value&)> leq;
  /// ⊕ : L × Σ → Σ — label application (path extension).
  std::function<Value(const Value&, const Value&)> apply;

  bool strictly_better(const Value& a, const Value& b) const {
    return leq(a, b) && !leq(b, a);
  }
  bool equivalent(const Value& a, const Value& b) const {
    return leq(a, b) && leq(b, a);
  }
};

/// Result of discharging one obligation.
struct Obligation {
  std::string name;
  bool holds = true;
  std::size_t checks = 0;
  std::string counterexample;  // empty when holds
};

/// The axiom-discharge report for an algebra (the §3.3.2 proof obligations).
struct DischargeReport {
  std::string algebra;
  Obligation totality;        // ⪯ is a total preorder on Σ (pre-condition)
  Obligation maximality;      // ∀s: s ⪯ φ  (φ is least preferred)
  Obligation absorption;      // ∀l: l ⊕ φ = φ
  Obligation monotonicity;    // ∀l,s: s ⪯ l⊕s
  Obligation strict_monotonicity;  // ∀l,s≠φ: s ≺ l⊕s
  Obligation isotonicity;     // ∀l,a,b: a ⪯ b ⇒ l⊕a ⪯ l⊕b
  std::size_t total_checks = 0;
  double elapsed_seconds = 0.0;

  /// The metarouting convergence conditions: monotonicity + isotonicity.
  bool convergent() const { return monotonicity.holds && isotonicity.holds; }
  /// All four paper axioms (strictness is reported separately).
  bool well_formed() const {
    return totality.holds && maximality.holds && absorption.holds;
  }
  std::string to_string() const;
};

/// Exhaustively discharge all obligations over the algebra's samples.
DischargeReport discharge(const RoutingAlgebra& algebra);

// ---------------------------------------------------------------------------
// Base algebras (the metarouting building blocks of §3.3.1)
// ---------------------------------------------------------------------------

/// addA: additive metric (shortest-path). Smaller is better; φ = +∞ (an
/// integer sentinel); labels are positive costs. Strictly monotone, isotone.
RoutingAlgebra add_algebra(std::int64_t max_metric = 20, std::int64_t max_label = 5);

/// hopA: addA restricted to unit labels (hop count).
RoutingAlgebra hop_algebra(std::int64_t max_metric = 12);

/// lpA: local preference as in the paper's LP snippet — labelApply(l,s) = l,
/// prefRel(s1,s2) = s1 <= s2. NOT monotone (the label may be preferred to the
/// signature it replaces): the discharge report documents exactly that.
RoutingAlgebra lp_algebra(std::int64_t levels = 5);

/// bwA: bottleneck bandwidth. Larger is better; ⊕ = min(label, sig);
/// φ = 0. Monotone (non-strictly), isotone.
RoutingAlgebra bandwidth_algebra(std::int64_t max_bw = 10);

/// relA: link reliability in {0, 0.1, ..., 1.0}. Larger is better;
/// ⊕ = l * s; φ = 0. Monotone (non-strictly), isotone.
RoutingAlgebra reliability_algebra();

// ---------------------------------------------------------------------------
// Composition operators
// ---------------------------------------------------------------------------

/// Lexical product A × B: signatures are pairs (2-element lists), preference
/// compares the A component first; φ propagates from either side. This is
/// the paper's `lexProduct` (BGPSystem = lexProduct[LP, RC]).
RoutingAlgebra lex_product(const RoutingAlgebra& a, const RoutingAlgebra& b);

/// Direct (componentwise) product: prefer (a1,b1) over (a2,b2) only when both
/// components agree. The induced preference is a *partial* order in general —
/// the discharge machinery reports the totality failure, which is exactly why
/// metarouting composes with the lexical product instead.
RoutingAlgebra direct_product(const RoutingAlgebra& a, const RoutingAlgebra& b);

/// The paper's BGPSystem: lexProduct[LP, RC] with RC = addA (route cost).
RoutingAlgebra bgp_system();

}  // namespace fvn::algebra
