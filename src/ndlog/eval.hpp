// NDlog evaluation.
//
// * TermEval / match_atom — binding environments, term evaluation, and atom
//   unification.
// * RuleEngine — evaluates a single rule against a Database: full join,
//   semi-naive delta join (one body atom restricted to a delta set), and
//   aggregate rules (group-by + min/max/count/sum). It serves the Evaluator,
//   dataflow::Engine's recompute fallback and the tests.
// * Evaluator — the centralized reference evaluator: stratified, semi-naive
//   (or naive, for the E8 ablation) bottom-up fixpoint. This realizes the
//   declarative (proof-theoretic) semantics the paper's verification story
//   relies on (§3.1 footnote 1: proof-theoretic ≡ operational semantics).
//   run, query, DRed retract and provenance (eval_with_provenance) all run
//   its one fixpoint.
#pragma once

#include <functional>
#include <optional>
#include <unordered_map>

#include "ndlog/analysis.hpp"
#include "ndlog/ast.hpp"
#include "ndlog/database.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fvn::ndlog {

/// A variable-binding environment.
using Bindings = std::unordered_map<std::string, Value>;

/// Statistics accumulated by an evaluation run.
struct EvalStats {
  std::size_t iterations = 0;     // fixpoint rounds across all strata
  std::size_t rule_firings = 0;   // body solutions found
  std::size_t tuples_derived = 0; // inserts that were new
  std::size_t join_probes = 0;    // tuples scanned during joins
};

/// Thrown when the fixpoint exceeds the configured iteration budget — the
/// evaluator-level symptom of a divergent program (e.g. count-to-infinity
/// without a hop bound). Carries the budget, the last round's delta size and
/// an EvalStats snapshot so divergence is diagnosable from the exception.
class DivergenceError : public std::runtime_error {
 public:
  explicit DivergenceError(const std::string& what) : std::runtime_error(what) {}
  DivergenceError(const std::string& context, std::size_t budget,
                  std::size_t last_delta, const EvalStats& stats);

  std::size_t budget() const noexcept { return budget_; }
  /// New tuples produced by the last completed round before the guard fired.
  std::size_t last_delta_size() const noexcept { return last_delta_; }
  const EvalStats& stats() const noexcept { return stats_; }

 private:
  std::size_t budget_ = 0;
  std::size_t last_delta_ = 0;
  EvalStats stats_{};
};

/// Evaluate `term` under `bindings`; nullopt if it mentions an unbound
/// variable. Throws TypeError on ill-typed operations.
std::optional<Value> eval_term(const Term& term, const Bindings& bindings);

/// Unify `atom`'s arguments against `tuple`'s values, extending `bindings`.
/// Restore-on-failure: on mismatch, every binding this call added is rolled
/// back before returning false, so callers can probe many tuples against one
/// environment without copying it. On success, the names of the added
/// bindings are appended to `*added_keys` (when non-null) so the caller can
/// roll them back itself after exploring the match.
bool match_atom(const Atom& atom, const Tuple& tuple, Bindings& bindings,
                std::vector<std::string>* added_keys = nullptr);

/// Instantiate a (non-aggregate) rule head under a binding environment.
/// Throws AnalysisError on unbound head variables.
Tuple instantiate_head_atom(const HeadAtom& head, const Bindings& bindings);

/// Evaluates individual rules against a database.
class RuleEngine {
 public:
  explicit RuleEngine(bool use_index = true) : use_index_(use_index) {}

  using Sink = std::function<void(Tuple)>;

  /// Semi-naive step: emit the head instantiation of every body solution in
  /// which body atom `delta_index` (an index into the rule's *positive
  /// relational atoms*, in body order) ranges over `delta` instead of the
  /// full relation.
  void eval_rule_delta(const Rule& rule, const Database& db, std::size_t delta_index,
                       const TupleSet& delta, const Sink& sink,
                       EvalStats* stats = nullptr) const;

  /// Aggregate rule: full body evaluation, group by the non-aggregate head
  /// arguments, emit one tuple per group.
  void eval_agg_rule(const Rule& rule, const Database& db, const Sink& sink,
                     EvalStats* stats = nullptr) const;

  /// eval_agg_rule, handing each group's row over with its witness: for
  /// min/max the first body solution that reached the winning value, for
  /// count/sum the group's first solution.
  using AggSink = std::function<void(Tuple, const Bindings& witness)>;
  void eval_agg_rule_solutions(const Rule& rule, const Database& db, const AggSink& sink,
                               EvalStats* stats = nullptr) const;

  /// Positive relational atoms of a rule body, in order.
  static std::vector<const BodyAtom*> positive_atoms(const Rule& rule);

  using SolutionSink = std::function<void(const Bindings&)>;
  /// Enumerate body solutions (binding environments) instead of head tuples:
  /// the Evaluator instantiates heads itself, so it can hand each one to its
  /// observer with the solution that derived it.
  void eval_rule_solutions(const Rule& rule, const Database& db,
                           const SolutionSink& sink, EvalStats* stats = nullptr) const;
  void eval_rule_delta_solutions(const Rule& rule, const Database& db,
                                 std::size_t delta_index, const TupleSet& delta,
                                 const SolutionSink& sink,
                                 EvalStats* stats = nullptr) const;

 private:
  void join(const Rule& rule, const Database& db,
            const std::optional<std::pair<std::size_t, const TupleSet*>>& delta,
            const std::function<void(const Bindings&)>& on_solution,
            EvalStats* stats) const;

  bool use_index_;  // probe column indexes instead of scanning (ablation hook)
};

/// Options for the centralized evaluator.
struct EvalOptions {
  bool semi_naive = true;          // false = naive re-derivation (E8 ablation)
  bool use_index = true;           // false = full-scan joins (E8 ablation)
  std::size_t max_iterations = 100000;  // fixpoint-round budget before DivergenceError
  /// Observability sinks (may be null — the default — for zero overhead).
  /// With `metrics`, the evaluator records per-rule and per-stratum series
  /// (eval/rule/<name>/{firings,derived,probes}, eval/stratum/<s>/...,
  /// eval/rounds, eval/round_delta). With `trace`, it emits nested
  /// stratum/round/rule spans in Chrome trace_event form.
  obs::Registry* metrics = nullptr;
  obs::Trace* trace = nullptr;
};

/// Result of a centralized evaluation.
struct EvalResult {
  Database database;
  EvalStats stats;
};

struct ProvenanceResult;

/// Centralized stratified bottom-up evaluator (reference semantics).
class Evaluator {
 public:
  /// Evaluate `program` over `base_facts` to fixpoint. Runs analyze() first;
  /// throws AnalysisError / DivergenceError accordingly.
  EvalResult run(const Program& program, const std::vector<Tuple>& base_facts,
                 const EvalOptions& options = {}) const;

  /// DRed-style incremental deletion (delete-and-rederive): remove a base
  /// fact from an already-evaluated database and restore the fixpoint —
  /// the evaluator-level model of a link failure. Over-deletes everything
  /// transitively derivable through the fact, then re-derives from the
  /// surviving tuples. Aggregate rows are recomputed from scratch in their
  /// strata. Returns the deletion statistics.
  struct RetractStats {
    std::size_t overdeleted = 0;   // tuples removed in the delete phase
    std::size_t rederived = 0;     // tuples restored by re-derivation
    EvalStats eval;
  };
  RetractStats retract(const Program& program, Database& db, const Tuple& fact,
                       const EvalOptions& options = {}) const;

 private:
  /// Told of every tuple a run adds to the database: a base or embedded fact
  /// (rule and bindings null), a rule head with the body solution that
  /// derived it, or an aggregate row with its group's witness solution.
  using InsertObserver =
      std::function<void(const Tuple&, const Rule* rule, const Bindings* bindings)>;

  /// run(), telling `observe` (may be empty) of every tuple it adds.
  EvalResult run(const Program& program, const std::vector<Tuple>& base_facts,
                 const EvalOptions& options, const InsertObserver& observe) const;

  /// Stratified (semi-)naive fixpoint over whatever `db` already contains.
  void fixpoint(const Program& program, const Stratification& strat, Database& db,
                const EvalOptions& options, EvalStats& stats,
                const InsertObserver& observe) const;

  // Records derivations by observing run(); see ndlog/provenance.hpp.
  friend ProvenanceResult eval_with_provenance(const Program&, const std::vector<Tuple>&,
                                               const EvalOptions&);
};

}  // namespace fvn::ndlog
