// Static analysis of NDlog programs: rule safety, the predicate dependency
// graph, and stratification (negation and aggregation must not occur inside a
// recursive cycle). The evaluator and the NDlog→logic translator both consume
// the Stratification result.
//
// Every check exists in two forms: a DiagnosticSink-based variant that
// collects *all* located findings (used by the lint engine, see lint.hpp),
// and a thin throwing wrapper that aborts on the first error with the
// historical AnalysisError API.
#pragma once

#include <map>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "ndlog/ast.hpp"
#include "ndlog/diagnostics.hpp"

namespace fvn::ndlog {

/// Violation of a static well-formedness condition (unsafe rule,
/// unstratifiable program, arity mismatch, ...).
class AnalysisError : public std::runtime_error {
 public:
  explicit AnalysisError(const std::string& what) : std::runtime_error(what) {}
};

/// One edge of the predicate dependency graph: `head` depends on `body`.
struct DependencyEdge {
  std::string head;
  std::string body;
  bool negated = false;            // body atom appears under '!'
  bool through_aggregate = false;  // head computes an aggregate
  std::size_t rule_index = 0;      // index into Program::rules
};

/// Result of stratification: a stratum index per predicate, strata listed
/// low-to-high, and the rule indices evaluated in each stratum.
struct Stratification {
  std::map<std::string, int> stratum_of;
  int stratum_count = 0;
  /// rule index (into Program::rules) → stratum of its head predicate.
  std::vector<int> rule_stratum;
  /// For each stratum, the rule indices whose head lives there.
  std::vector<std::vector<std::size_t>> rules_by_stratum;
};

/// All predicates appearing in the program (heads and bodies).
std::set<std::string> predicates_of(const Program& program);

/// Predicates that never appear in any rule head: the program's inputs
/// (base/extensional relations such as `link`).
std::set<std::string> base_predicates(const Program& program);

/// Predicates appearing in at least one rule head (intensional relations).
std::set<std::string> derived_predicates(const Program& program);

/// The dependency edges of the program.
std::vector<DependencyEdge> dependency_edges(const Program& program);

/// Strongly connected components of the predicate dependency graph (one
/// Tarjan pass; stratification and the semantic passes both read it).
struct DependencySccs {
  /// Components in dependency order (callees first); members sorted.
  std::vector<std::vector<std::string>> components;
  /// Predicate → index into `components`.
  std::map<std::string, int> component_of;
  /// Members of every component with more than one predicate or a self-edge.
  std::set<std::string> recursive;
};
DependencySccs dependency_sccs(const Program& program);

/// First-seen arity of every predicate (heads and bodies, in rule order).
std::map<std::string, std::size_t> arities_of(const Program& program);

/// Plain-variable name of a term, or "" when it is not a bare variable.
const std::string& var_name(const TermPtr& term);

/// Location-specifier variable of an atom, or "" when the location argument
/// is not a plain variable (or the atom carries no '@').
std::string location_var_of(const Atom& atom);

/// Distinct location-specifier variables over the body atoms of `rule`.
/// Shared by the runtime localizer (runtime/localize) and the ND0012
/// localizability lint pass: a body spanning more than two location
/// variables cannot be rewritten into link-restricted ship/join pairs.
std::set<std::string> body_location_vars(const Rule& rule);

/// Result of the link-restriction analysis (localizability of one rule).
struct LocalizationCheck {
  enum class Status : std::uint8_t {
    Local,              ///< body names at most one location — nothing to rewrite
    Rewritable,         ///< two locations, at least one feasible orientation
    TooManyLocations,   ///< body spans more than two location specifiers
    NotLinkRestricted,  ///< two locations but neither orientation ships atoms
                        ///< that positively carry the join-site variable
  };
  Status status = Status::Local;
  /// Engaged for Rewritable: the chosen join/ship orientation (the feasible
  /// one shipping fewer atoms, ties broken toward the first location).
  std::string join_site;
  std::string ship_site;
  /// Human-readable reason for the two failure statuses.
  std::string detail;

  bool localizable() const noexcept {
    return status == Status::Local || status == Status::Rewritable;
  }
};

/// Decide whether `rule` can be executed distributedly: local as-is, or
/// rewritable into link-restricted ship/join pairs (the §2.2 localization
/// rewrite). Shared by runtime::localize (which throws on failure at
/// rewrite time) and the ND0013 lint pass (which reports it statically).
LocalizationCheck check_localizable(const Rule& rule);

// ---------------------------------------------------------------------------
// Sink-based checks (collect every finding; never throw).
// ---------------------------------------------------------------------------

/// Arity consistency (code ND0002): each predicate used with one arity.
void check_arities(const Program& program, DiagnosticSink& sink);

/// Rule safety: every head variable bound by a positive body atom or a chain
/// of `=` bindings (ND0003); every variable of a negated atom or comparison
/// bound (ND0003); every function call names a builtin and passes it as many
/// arguments as it takes (ND0004).
void check_safety(const Program& program, DiagnosticSink& sink);

/// Stratify the program, reporting every negation/aggregation edge inside a
/// recursive component as ND0005. Returns nullopt iff any ND0005 was
/// emitted.
std::optional<Stratification> stratify(const Program& program, DiagnosticSink& sink);

// ---------------------------------------------------------------------------
// Throwing wrappers (historical API: abort on the first error).
// ---------------------------------------------------------------------------

/// Check rule safety; throws AnalysisError (with source position when the
/// program was parsed from text) naming the offending rule and variable.
void check_safety(const Program& program);

/// Check arity consistency. Throws AnalysisError on conflict.
void check_arities(const Program& program);

/// Stratify the program. Throws AnalysisError if a negation or aggregation
/// edge occurs within a recursive component.
Stratification stratify(const Program& program);

/// Convenience: run all checks (arities, safety, stratification).
Stratification analyze(const Program& program);

}  // namespace fvn::ndlog
