// Multi-pass NDlog diagnostics engine. On top of the core well-formedness
// checks (arity ND0002, safety ND0003/ND0004, stratification ND0005, see
// analysis.hpp) this runs lint passes for hazards the evaluator, translator
// and codegen have no defense against:
//
//   ND0006  unused predicate      derived but never read and not materialized
//   ND0007  underivable predicate read in a body but never derived/declared
//   ND0008  duplicate rule        rule subsumed by an identical earlier rule
//   ND0009  singleton variable    body variable used exactly once (typo risk)
//   ND0010  cartesian product     body atoms share no join variable
//   ND0011  aggregate over empty  guarded aggregate body: empty groups vanish
//   ND0012  non-localizable rule  body spans > 2 location specifiers (arc 7)
//   ND0013  not link-restricted   two-location body where neither orientation
//                                 ships atoms carrying the join site — the
//                                 runtime localizer would reject it at
//                                 execution time
//
// All passes report through a DiagnosticSink, so one run surfaces every
// finding with its source position. `fvn_cli lint` is the CLI surface.
//
// Codes ND0014–ND0018 (dead rules, divergence prediction, CALM
// order-sensitivity) belong to the semantic analyzer — see semantic.hpp and
// `fvn_cli analyze`. ND0019–ND0021 belong to the cost analyzer (cost.hpp,
// `analyze --cost`). They share this catalog so `diagnostic_catalog()`
// describes every code the toolchain can emit. ND0022–ND0025 are retired
// (docs/DIAGNOSTICS.md) and must never be registered again.
#pragma once

#include <string_view>
#include <vector>

#include "ndlog/analysis.hpp"
#include "ndlog/diagnostics.hpp"

namespace fvn::ndlog {

/// Catalogue entry for one diagnostic code (used by docs and `--codes`).
struct DiagnosticCodeInfo {
  std::string_view code;
  Severity severity;
  std::string_view summary;
};

/// Every code the engine can emit (ND0001 is the CLI's parse-error wrapper).
const std::vector<DiagnosticCodeInfo>& diagnostic_catalog();

// Individual lint passes (each appends to the sink; never throws).
void lint_unused_predicates(const Program& program, DiagnosticSink& sink);       // ND0006
void lint_underivable_predicates(const Program& program, DiagnosticSink& sink);  // ND0007
void lint_duplicate_rules(const Program& program, DiagnosticSink& sink);         // ND0008
void lint_singleton_variables(const Program& program, DiagnosticSink& sink);     // ND0009
void lint_cartesian_products(const Program& program, DiagnosticSink& sink);      // ND0010
void lint_aggregate_empty_groups(const Program& program, DiagnosticSink& sink);  // ND0011
void lint_localizability(const Program& program, DiagnosticSink& sink);          // ND0012
void lint_link_restriction(const Program& program, DiagnosticSink& sink);        // ND0013

/// Fold diagnostics attached to localize()-generated `<pred>_sh_<rule>_<k>`
/// ship rules back onto the originating source rule: the span, rule index
/// and predicate are retargeted to the origin rule, and findings that then
/// duplicate one already reported against that rule (same code) are
/// dropped. No-op for programs without ship rules.
void dedupe_localized_diagnostics(const Program& program, DiagnosticSink& sink);

/// Run the core checks plus every lint pass, collecting all findings into
/// `sink` (localized ship-rule findings folded onto their origin rules,
/// sorted by source location on return).
void lint_program(const Program& program, DiagnosticSink& sink);

}  // namespace fvn::ndlog
