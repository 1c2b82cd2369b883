#include "ndlog/eval.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <utility>

#include "ndlog/builtins.hpp"

namespace fvn::ndlog {

DivergenceError::DivergenceError(const std::string& context, std::size_t budget,
                                 std::size_t last_delta, const EvalStats& stats)
    : std::runtime_error(context + " (iteration budget=" + std::to_string(budget) +
                         ", last round delta=" + std::to_string(last_delta) +
                         " tuples; stats: iterations=" + std::to_string(stats.iterations) +
                         ", rule_firings=" + std::to_string(stats.rule_firings) +
                         ", tuples_derived=" + std::to_string(stats.tuples_derived) +
                         ", join_probes=" + std::to_string(stats.join_probes) + ")"),
      budget_(budget),
      last_delta_(last_delta),
      stats_(stats) {}

std::optional<Value> eval_term(const Term& term, const Bindings& bindings) {
  switch (term.kind) {
    case Term::Kind::Const:
      return term.constant;
    case Term::Kind::Var: {
      auto it = bindings.find(term.name);
      if (it == bindings.end()) return std::nullopt;
      return it->second;
    }
    case Term::Kind::Func: {
      std::vector<Value> args;
      args.reserve(term.args.size());
      for (const auto& a : term.args) {
        auto v = eval_term(*a, bindings);
        if (!v) return std::nullopt;
        args.push_back(std::move(*v));
      }
      return call_builtin(term.name, args);
    }
    case Term::Kind::Binary: {
      auto lhs = eval_term(*term.args[0], bindings);
      auto rhs = eval_term(*term.args[1], bindings);
      if (!lhs || !rhs) return std::nullopt;
      switch (term.op) {
        case BinOp::Add: return lhs->add(*rhs);
        case BinOp::Sub: return lhs->sub(*rhs);
        case BinOp::Mul: return lhs->mul(*rhs);
        case BinOp::Div: return lhs->div(*rhs);
        case BinOp::Mod: return lhs->mod(*rhs);
      }
      return std::nullopt;
    }
  }
  return std::nullopt;
}

bool match_atom(const Atom& atom, const Tuple& tuple, Bindings& bindings,
                std::vector<std::string>* added_keys) {
  if (atom.predicate != tuple.predicate() || atom.args.size() != tuple.arity()) {
    return false;
  }
  // Record-and-rollback: on mismatch, every binding added by *this call* is
  // erased again, so `bindings` is exactly as the caller passed it. A caller
  // that wants to roll back a *successful* match (the join does, between
  // probed tuples) supplies `added_keys` and erases them itself.
  std::vector<std::string> local_added;
  std::vector<std::string>& added = added_keys != nullptr ? *added_keys : local_added;
  const std::size_t added_base = added.size();
  auto fail = [&]() {
    while (added.size() > added_base) {
      bindings.erase(added.back());
      added.pop_back();
    }
    return false;
  };
  for (std::size_t i = 0; i < atom.args.size(); ++i) {
    const Term& arg = *atom.args[i];
    if (arg.kind == Term::Kind::Var) {
      auto [it, inserted] = bindings.emplace(arg.name, tuple.at(i));
      if (inserted) {
        added.push_back(arg.name);
      } else if (!(it->second == tuple.at(i))) {
        return fail();
      }
      continue;
    }
    auto v = eval_term(arg, bindings);
    if (!v || !(*v == tuple.at(i))) return fail();
  }
  return true;
}

std::vector<const BodyAtom*> RuleEngine::positive_atoms(const Rule& rule) {
  std::vector<const BodyAtom*> out;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      if (!ba->negated) out.push_back(ba);
    }
  }
  return out;
}

void RuleEngine::join(
    const Rule& rule, const Database& db,
    const std::optional<std::pair<std::size_t, const TupleSet*>>& delta,
    const std::function<void(const Bindings&)>& on_solution, EvalStats* stats) const {
  struct Check {
    const Comparison* cmp = nullptr;
    const BodyAtom* neg = nullptr;
  };
  std::vector<const BodyAtom*> atoms;
  std::vector<Check> checks;
  for (const auto& elem : rule.body) {
    if (const auto* ba = std::get_if<BodyAtom>(&elem)) {
      if (ba->negated) {
        checks.push_back(Check{nullptr, ba});
      } else {
        atoms.push_back(ba);
      }
    } else {
      checks.push_back(Check{&std::get<Comparison>(elem), nullptr});
    }
  }

  // Recursive backtracking join: at each step first discharge every ready
  // check (binding `=` assignments eagerly), then scan the next relational
  // atom. `done` flags parallel `checks`.
  std::vector<bool> done(checks.size(), false);
  // Solutions are buffered and delivered after enumeration completes: sinks
  // typically insert into `db`, and inserting while iterating relations (or
  // index buckets) would invalidate the iterators under our feet.
  std::vector<Bindings> solutions;

  std::function<bool(std::size_t, Bindings&, std::vector<bool>&)> run;

  auto term_bound = [&](const Term& t, const Bindings& env) {
    std::vector<std::string> vars;
    t.collect_vars(vars);
    return std::all_of(vars.begin(), vars.end(),
                       [&](const std::string& v) { return env.count(v) != 0; });
  };

  // Returns false if a check failed; true otherwise. Binds variables via Eq.
  std::function<bool(Bindings&, std::vector<bool>&)> discharge =
      [&](Bindings& env, std::vector<bool>& flags) -> bool {
    bool progressed = true;
    while (progressed) {
      progressed = false;
      for (std::size_t i = 0; i < checks.size(); ++i) {
        if (flags[i]) continue;
        if (checks[i].neg != nullptr) {
          const Atom& atom = checks[i].neg->atom;
          bool all_bound = true;
          for (const auto& a : atom.args) all_bound = all_bound && term_bound(*a, env);
          if (!all_bound) continue;
          std::vector<Value> values;
          values.reserve(atom.args.size());
          for (const auto& a : atom.args) values.push_back(*eval_term(*a, env));
          if (db.contains(Tuple(atom.predicate, std::move(values)))) return false;
          flags[i] = true;
          progressed = true;
          continue;
        }
        const Comparison& cmp = *checks[i].cmp;
        const bool lhs_ok = term_bound(*cmp.lhs, env);
        const bool rhs_ok = term_bound(*cmp.rhs, env);
        if (cmp.op == CmpOp::Eq) {
          if (lhs_ok && rhs_ok) {
            if (!compare(CmpOp::Eq, *eval_term(*cmp.lhs, env), *eval_term(*cmp.rhs, env))) {
              return false;
            }
          } else if (!lhs_ok && rhs_ok && cmp.lhs->kind == Term::Kind::Var) {
            env[cmp.lhs->name] = *eval_term(*cmp.rhs, env);
          } else if (lhs_ok && !rhs_ok && cmp.rhs->kind == Term::Kind::Var) {
            env[cmp.rhs->name] = *eval_term(*cmp.lhs, env);
          } else {
            continue;  // not ready yet
          }
          flags[i] = true;
          progressed = true;
          continue;
        }
        if (!lhs_ok || !rhs_ok) continue;
        if (!compare(cmp.op, *eval_term(*cmp.lhs, env), *eval_term(*cmp.rhs, env))) {
          return false;
        }
        flags[i] = true;
        progressed = true;
      }
    }
    return true;
  };

  run = [&](std::size_t atom_index, Bindings& env, std::vector<bool>& flags) -> bool {
    if (!discharge(env, flags)) return true;  // dead branch, keep searching siblings
    if (atom_index == atoms.size()) {
      // All relational atoms consumed; every check must be discharged (safety
      // analysis guarantees this for well-formed programs).
      if (std::all_of(flags.begin(), flags.end(), [](bool b) { return b; })) {
        if (stats) ++stats->rule_firings;
        solutions.push_back(env);
      }
      return true;
    }
    const Atom& atom = atoms[atom_index]->atom;
    auto try_tuple = [&](const Tuple& tuple) {
      if (stats) ++stats->join_probes;
      // match_atom restores `env` on mismatch, so the common non-matching
      // probe costs no environment copy; only a successful match pays for
      // the child environment that deeper levels are free to mutate.
      std::vector<std::string> added;
      if (!match_atom(atom, tuple, env, &added)) return;
      Bindings child = env;
      std::vector<bool> child_flags = flags;
      run(atom_index + 1, child, child_flags);
      for (const auto& key : added) env.erase(key);
    };
    if (delta && delta->first == atom_index) {
      for (const auto& tuple : *delta->second) try_tuple(tuple);
      return true;
    }
    // Index probe: use the first argument position whose value is already
    // determined by the environment (bound variable or constant).
    if (use_index_) {
      for (std::size_t pos = 0; pos < atom.args.size(); ++pos) {
        const auto& arg = atom.args[pos];
        std::optional<Value> bound;
        if (arg->kind == Term::Kind::Const) {
          bound = arg->constant;
        } else if (arg->kind == Term::Kind::Var) {
          auto it = env.find(arg->name);
          if (it != env.end()) bound = it->second;
        }
        if (!bound) continue;
        for (const Tuple* tuple : db.lookup(atom.predicate, pos, *bound)) {
          try_tuple(*tuple);
        }
        return true;
      }
    }
    for (const auto& tuple : db.relation(atom.predicate)) try_tuple(tuple);
    return true;
  };

  Bindings root;
  std::vector<bool> root_flags = done;
  run(0, root, root_flags);
  for (const auto& env : solutions) on_solution(env);
}

Tuple instantiate_head_atom(const HeadAtom& head, const Bindings& bindings) {
  std::vector<Value> values;
  values.reserve(head.args.size());
  for (const auto& arg : head.args) {
    auto v = eval_term(*arg.term, bindings);
    if (!v) throw AnalysisError("unbound head variable in " + head.to_string());
    values.push_back(std::move(*v));
  }
  return Tuple(head.predicate, std::move(values));
}

void RuleEngine::eval_rule_delta(const Rule& rule, const Database& db,
                                 std::size_t delta_index, const TupleSet& delta,
                                 const Sink& sink, EvalStats* stats) const {
  join(rule, db, std::make_pair(delta_index, &delta),
       [&](const Bindings& env) { sink(instantiate_head_atom(rule.head, env)); },
       stats);
}

void RuleEngine::eval_rule_solutions(const Rule& rule, const Database& db,
                                     const SolutionSink& sink, EvalStats* stats) const {
  join(rule, db, std::nullopt, sink, stats);
}

void RuleEngine::eval_rule_delta_solutions(const Rule& rule, const Database& db,
                                           std::size_t delta_index, const TupleSet& delta,
                                           const SolutionSink& sink,
                                           EvalStats* stats) const {
  join(rule, db, std::make_pair(delta_index, &delta), sink, stats);
}

void RuleEngine::eval_agg_rule(const Rule& rule, const Database& db, const Sink& sink,
                               EvalStats* stats) const {
  eval_agg_rule_solutions(
      rule, db, [&](Tuple t, const Bindings& /*witness*/) { sink(std::move(t)); }, stats);
}

void RuleEngine::eval_agg_rule_solutions(const Rule& rule, const Database& db,
                                         const AggSink& sink, EvalStats* stats) const {
  // Locate the aggregate argument (exactly one is supported, as in P2).
  std::size_t agg_pos = rule.head.args.size();
  for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
    if (rule.head.args[i].is_agg()) {
      if (agg_pos != rule.head.args.size()) {
        throw AnalysisError("rule " + rule.name + ": multiple aggregates in head");
      }
      agg_pos = i;
    }
  }
  const HeadArg& agg = rule.head.args[agg_pos];
  const AggKind kind = *agg.agg;

  // Keyed by the full head args with nil at the aggregate position.
  struct Group {
    Value best;               // min/max accumulator
    std::set<Value> distinct; // count/sum over distinct agg_var bindings
    Bindings witness;         // min/max: first solution at `best`; else the first
    bool seen = false;
  };
  std::map<std::vector<Value>, Group> groups;

  join(rule, db, std::nullopt,
       [&](const Bindings& env) {
         std::vector<Value> key;
         key.reserve(rule.head.args.size());
         for (std::size_t i = 0; i < rule.head.args.size(); ++i) {
           if (i == agg_pos) {
             key.push_back(Value::nil());
             continue;
           }
           auto v = eval_term(*rule.head.args[i].term, env);
           if (!v) throw AnalysisError("unbound head variable in aggregate rule");
           key.push_back(std::move(*v));
         }
         auto it = env.find(agg.agg_var);
         if (it == env.end()) {
           throw AnalysisError("aggregate variable '" + agg.agg_var + "' unbound");
         }
         Group& g = groups[std::move(key)];
         const bool first = !std::exchange(g.seen, true);
         const Value& v = it->second;
         switch (kind) {
           case AggKind::Min:
           case AggKind::Max:
             if (first || (kind == AggKind::Min ? v < g.best : g.best < v)) {
               g.best = v;
               g.witness = env;
             }
             break;
           case AggKind::Count:
           case AggKind::Sum:
             if (first) g.witness = env;
             g.distinct.insert(v);
             break;
         }
       },
       stats);

  for (auto& [key, g] : groups) {
    std::vector<Value> values = key;
    switch (kind) {
      case AggKind::Min:
      case AggKind::Max:
        values[agg_pos] = g.best;
        break;
      case AggKind::Count:
        values[agg_pos] = Value::integer(static_cast<std::int64_t>(g.distinct.size()));
        break;
      case AggKind::Sum: {
        Value total = Value::integer(0);
        for (const auto& v : g.distinct) total = total.add(v);
        values[agg_pos] = total;
        break;
      }
    }
    sink(Tuple(rule.head.predicate, std::move(values)), g.witness);
  }
}

// ---------------------------------------------------------------------------
// Centralized stratified evaluator
// ---------------------------------------------------------------------------

EvalResult Evaluator::run(const Program& program, const std::vector<Tuple>& base_facts,
                          const EvalOptions& options) const {
  return run(program, base_facts, options, nullptr);
}

EvalResult Evaluator::run(const Program& program, const std::vector<Tuple>& base_facts,
                          const EvalOptions& options, const InsertObserver& observe) const {
  const Stratification strat = analyze(program);
  EvalResult result;
  Database& db = result.database;
  auto add_fact = [&](const Tuple& fact) {
    if (db.insert(fact) && observe) observe(fact, nullptr, nullptr);
  };

  for (const auto& fact : base_facts) add_fact(fact);
  // Ground facts embedded in the program.
  for (const auto& rule : program.rules) {
    if (!rule.is_fact()) continue;
    add_fact(instantiate_head_atom(rule.head, Bindings{}));
  }
  fixpoint(program, strat, db, options, result.stats, observe);
  return result;
}

namespace {

using Delta = std::map<std::string, TupleSet>;

std::size_t delta_total(const Delta& delta) {
  std::size_t total = 0;
  for (const auto& [pred, tuples] : delta) total += tuples.size();
  return total;
}

std::string rule_label(const Rule& rule) {
  return rule.name.empty() ? rule.head.predicate : rule.name;
}

}  // namespace

void Evaluator::fixpoint(const Program& program, const Stratification& strat,
                         Database& db, const EvalOptions& options, EvalStats& stats,
                         const InsertObserver& observe) const {
  RuleEngine engine(options.use_index);
  obs::Registry* metrics = options.metrics;
  obs::Trace* trace = options.trace;
  const bool observed = metrics != nullptr || trace != nullptr;

  // Wrap one rule evaluation: snapshot the shared stats around `body`, then
  // attribute the diffs to the rule's and the stratum's series. When nothing
  // observes the run, this is a branch and a direct call.
  auto observe_rule = [&](const Rule& rule, int stratum, const auto& body) {
    if (!observed) {
      body();
      return;
    }
    const EvalStats before = stats;
    obs::Span span(trace, rule_label(rule), "eval/rule");
    body();
    const std::uint64_t firings = stats.rule_firings - before.rule_firings;
    const std::uint64_t derived = stats.tuples_derived - before.tuples_derived;
    span.end("{\"firings\":" + std::to_string(firings) +
             ",\"derived\":" + std::to_string(derived) + "}");
    if (metrics != nullptr) {
      const std::string rule_base = "eval/rule/" + rule_label(rule) + "/";
      metrics->counter(rule_base + "firings").add(firings);
      metrics->counter(rule_base + "derived").add(derived);
      metrics->counter(rule_base + "probes").add(stats.join_probes - before.join_probes);
      const std::string stratum_base = "eval/stratum/" + std::to_string(stratum) + "/";
      metrics->counter(stratum_base + "firings").add(firings);
      metrics->counter(stratum_base + "derived").add(derived);
    }
  };
  auto note_round = [&](std::size_t round_delta) {
    if (metrics != nullptr) {
      metrics->counter("eval/rounds").add(1);
      metrics->histogram("eval/round_delta").observe(round_delta);
    }
    if (trace != nullptr) {
      trace->counter("eval/round_delta", "eval", static_cast<double>(round_delta));
    }
  };
  // The one place the fixpoint adds a derived tuple: count it, tell the
  // observer with the solution that derived it (an aggregate row's group
  // witness), and log it in the round's delta. Aggregate rows, derived in
  // their stratum's single aggregate round, feed no semi-naive delta.
  auto insert = [&](Tuple t, const Rule& rule, const Bindings& env, Delta* round) {
    if (!db.insert(t)) return;
    ++stats.tuples_derived;
    if (observe) observe(t, &rule, &env);
    if (round != nullptr) (*round)[t.predicate()].insert(std::move(t));
  };
  // Sink for `rule`'s body solutions: instantiate the head and insert it.
  auto heads = [&](const Rule& rule, Delta& round) {
    return [&, rule_ptr = &rule, round_ptr = &round](const Bindings& env) {
      insert(instantiate_head_atom(rule_ptr->head, env), *rule_ptr, env, round_ptr);
    };
  };

  for (int s = 0; s < strat.stratum_count; ++s) {
    std::vector<const Rule*> normal_rules;
    std::vector<const Rule*> agg_rules;
    for (std::size_t r : strat.rules_by_stratum[static_cast<std::size_t>(s)]) {
      const Rule& rule = program.rules[r];
      if (rule.is_fact()) continue;
      (rule.head.has_aggregate() ? agg_rules : normal_rules).push_back(&rule);
    }

    obs::Span stratum_span(trace, "stratum " + std::to_string(s), "eval/stratum");

    // Aggregate rules read only strictly-lower strata (enforced by
    // stratification), so a single pass suffices and must come first: their
    // outputs may feed the stratum's recursive rules. The pass is a round.
    if (!agg_rules.empty()) {
      ++stats.iterations;
      const std::size_t derived_before = stats.tuples_derived;
      obs::Span round_span(trace, "aggregate round", "eval/round");
      for (const Rule* rule : agg_rules) {
        observe_rule(*rule, s, [&] {
          engine.eval_agg_rule_solutions(
              *rule, db,
              [&](Tuple t, const Bindings& witness) {
                insert(std::move(t), *rule, witness, nullptr);
              },
              &stats);
        });
      }
      if (observed) {
        const std::size_t derived = stats.tuples_derived - derived_before;
        round_span.end("{\"delta\":" + std::to_string(derived) + "}");
        note_round(derived);
      }
    }

    if (normal_rules.empty()) continue;

    if (!options.semi_naive) {
      // Naive mode: repeat full evaluation of every rule until no change.
      std::size_t last_round_new = 0;
      for (;;) {
        if (++stats.iterations > options.max_iterations) {
          throw DivergenceError("naive evaluation exceeded iteration budget in stratum " +
                                    std::to_string(s),
                                options.max_iterations, last_round_new, stats);
        }
        Delta round;
        obs::Span round_span(trace, "round", "eval/round");
        for (const Rule* rule : normal_rules) {
          observe_rule(*rule, s,
                       [&] { engine.eval_rule_solutions(*rule, db, heads(*rule, round), &stats); });
        }
        last_round_new = delta_total(round);
        if (observed) {
          round_span.end("{\"delta\":" + std::to_string(last_round_new) + "}");
          note_round(last_round_new);
        }
        if (last_round_new == 0) break;
      }
      continue;
    }

    // Semi-naive: round 0 evaluates every rule in full; subsequent rounds
    // join each rule with the previous round's delta at every positive-atom
    // position.
    Delta delta;
    ++stats.iterations;
    {
      obs::Span round_span(trace, "round 0", "eval/round");
      for (const Rule* rule : normal_rules) {
        observe_rule(*rule, s,
                     [&] { engine.eval_rule_solutions(*rule, db, heads(*rule, delta), &stats); });
      }
      if (observed) {
        round_span.end("{\"delta\":" + std::to_string(delta_total(delta)) + "}");
        note_round(delta_total(delta));
      }
    }
    while (!delta.empty()) {
      if (++stats.iterations > options.max_iterations) {
        throw DivergenceError("semi-naive evaluation exceeded iteration budget in stratum " +
                                  std::to_string(s),
                              options.max_iterations, delta_total(delta), stats);
      }
      Delta next_delta;
      obs::Span round_span(trace, "round", "eval/round");
      for (const Rule* rule : normal_rules) {
        const auto atoms = RuleEngine::positive_atoms(*rule);
        for (std::size_t i = 0; i < atoms.size(); ++i) {
          auto it = delta.find(atoms[i]->atom.predicate);
          if (it == delta.end() || it->second.empty()) continue;
          observe_rule(*rule, s, [&] {
            engine.eval_rule_delta_solutions(*rule, db, i, it->second,
                                             heads(*rule, next_delta), &stats);
          });
        }
      }
      if (observed) {
        round_span.end("{\"delta\":" + std::to_string(delta_total(next_delta)) + "}");
        note_round(delta_total(next_delta));
      }
      delta = std::move(next_delta);
    }
  }
}

Evaluator::RetractStats Evaluator::retract(const Program& program, Database& db,
                                           const Tuple& fact,
                                           const EvalOptions& options) const {
  const Stratification strat = analyze(program);
  RuleEngine engine(options.use_index);
  RetractStats stats;
  if (!db.contains(fact)) return stats;

  // Phase 1 — over-delete: everything with a derivation through `fact`.
  // Delta joins run against the pre-deletion database (an over-approximation,
  // as in classic DRed). Aggregate heads are treated like rule heads: any
  // aggregate row whose group had a deleted contributor is removed and later
  // recomputed.
  TupleSet to_delete{fact};
  TupleSet delta{fact};
  std::size_t guard = options.max_iterations;
  while (!delta.empty()) {
    if (guard-- == 0) {
      throw DivergenceError("overdeletion exceeded iteration budget",
                            options.max_iterations, delta.size(), stats.eval);
    }
    TupleSet next;
    auto note = [&](Tuple t) {
      if (!db.contains(t)) return;
      if (to_delete.insert(t).second) next.insert(std::move(t));
    };
    for (const auto& rule : program.rules) {
      if (rule.is_fact()) continue;
      const auto atoms = RuleEngine::positive_atoms(rule);
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        bool relevant = false;
        for (const auto& d : delta) {
          if (atoms[i]->atom.predicate == d.predicate()) relevant = true;
        }
        if (!relevant) continue;
        if (rule.head.has_aggregate()) {
          // Any group touching a deleted contributor: delete every stored
          // row of the head predicate whose group-by columns match some
          // body solution over the delta. Conservative: recompute restores
          // survivors.
          engine.eval_rule_delta_solutions(rule, db, i, delta, [&](const Bindings& env) {
            for (const auto& row : db.relation(rule.head.predicate)) {
              bool same_group = true;
              for (std::size_t k = 0; k < rule.head.args.size(); ++k) {
                if (rule.head.args[k].is_agg()) continue;
                auto v = eval_term(*rule.head.args[k].term, env);
                if (!v || !(*v == row.at(k))) same_group = false;
              }
              if (same_group) note(row);
            }
          },
          &stats.eval);
        } else {
          engine.eval_rule_delta(rule, db, i, delta,
                                 [&](Tuple t) { note(std::move(t)); }, &stats.eval);
        }
      }
    }
    delta = std::move(next);
  }
  for (const auto& t : to_delete) db.erase(t);
  stats.overdeleted = to_delete.size();

  // Phase 2 — re-derive from the survivors.
  const std::size_t before = db.total_size();
  fixpoint(program, strat, db, options, stats.eval, nullptr);
  stats.rederived = db.total_size() - before;
  return stats;
}

}  // namespace fvn::ndlog
