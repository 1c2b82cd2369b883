#include "ltl/checker.hpp"

#include <algorithm>
#include <optional>
#include <sstream>
#include <unordered_map>

#include "obs/json.hpp"

namespace fvn::ltl {

using mc::NetState;
using mc::StateSpace;

namespace {

/// "bestPath(n0,n3,_,_) !stable(link)"
std::string render_valuation(const ApSet& aps, Valuation v) {
  std::string out;
  for (std::size_t i = 0; i < aps.aps.size(); ++i) {
    if (!out.empty()) out += " ";
    if ((v & (Valuation{1} << i)) == 0) out += "!";
    out += aps.aps[i].text;
  }
  return out.empty() ? "(no atomic propositions)" : out;
}

// ---------------------------------------------------------------------------
// Product construction + iterative nested DFS
// ---------------------------------------------------------------------------

/// Lazily expanded system state graph over an mc::StateSpace
/// (stutter-extended: quiescent states self-loop) with memoized valuations.
/// Pattern APs look only at the target state's tables; each table's bits are
/// ORed once and memoized by table id. stable(p) compares relation p node by
/// node between source and target (true on the initial step), reading rows
/// only for nodes whose table id changed.
class SystemGraph {
 public:
  using Id = StateSpace::Id;

  SystemGraph(const mc::NdlogTransitionSystem& ts, const ApSet& aps)
      : space_(ts), aps_(&aps) {
    for (std::size_t i = 0; i < aps.aps.size(); ++i) {
      if (aps.aps[i].is_stable) stable_mask_ |= Valuation{1} << i;
    }
  }

  Id intern(const NetState& state) { return grow(space_.intern(state)); }
  const StateSpace& space() const { return space_; }

  const std::vector<Id>& successors(Id id) {
    if (!expanded_[id]) {
      expanded_[id] = true;
      std::vector<Id> next = space_.quiescent(id) ? std::vector<Id>{id}  // stutter self-loop
                                                  : space_.successors(id);
      for (Id target : next) grow(target);
      succs_[id] = std::move(next);
    }
    return succs_[id];
  }

  Valuation edge_valuation(Id from, Id to) {
    Valuation v = pattern_[to];
    if (stable_mask_ == 0) return v;
    const std::uint64_t key = (static_cast<std::uint64_t>(from) << 32) | to;
    auto it = edge_val_.find(key);
    if (it != edge_val_.end()) return it->second;
    for (std::size_t i = 0; i < aps_->aps.size(); ++i) {
      const ApSet::Ap& ap = aps_->aps[i];
      if (ap.is_stable && stable(ap.pred, from, to)) v |= Valuation{1} << i;
    }
    edge_val_.emplace(key, v);
    return v;
  }

  Valuation initial_valuation(Id id) const { return pattern_[id] | stable_mask_; }

 private:
  /// Extends the per-state vectors to cover `id` (ids are dense).
  Id grow(Id id) {
    while (pattern_.size() <= id) {
      Valuation v = 0;
      for (const auto& entry : space_.tables(static_cast<Id>(pattern_.size()))) {
        v |= table_bits(entry.table);
      }
      pattern_.push_back(v);
      succs_.emplace_back();
      expanded_.push_back(false);
    }
    return id;
  }

  Valuation table_bits(StateSpace::TableId table) {
    if (table >= table_bits_.size()) table_bits_.resize(table + 1);
    std::optional<Valuation>& memo = table_bits_[table];
    if (!memo) {
      Valuation v = 0;
      for (StateSpace::TupleId row : space_.rows(table)) {
        for (std::size_t i = 0; i < aps_->aps.size(); ++i) {
          const ApSet::Ap& ap = aps_->aps[i];
          if (!ap.is_stable && ap.pattern.matches(space_.tuple(row))) v |= Valuation{1} << i;
        }
      }
      memo = v;
    }
    return *memo;
  }

  /// Is relation `pred` identical, node by node, in the two states? A node
  /// without an entry holds the empty relation.
  bool stable(const std::string& pred, Id from, Id to) const {
    const auto a = space_.tables(from);
    const auto b = space_.tables(to);
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < a.size() || j < b.size()) {
      StateSpace::TableId ta = StateSpace::kEmptyTable;
      StateSpace::TableId tb = StateSpace::kEmptyTable;
      if (j == b.size() || (i < a.size() && a[i].node < b[j].node)) {
        ta = a[i++].table;
      } else if (i == a.size() || b[j].node < a[i].node) {
        tb = b[j++].table;
      } else {
        ta = a[i++].table;
        tb = b[j++].table;
      }
      if (ta != tb && !same_rows(pred, ta, tb)) return false;
    }
    return true;
  }

  /// Rows come in tuple-id order, so two tables hold the same `pred` rows
  /// iff their filtered id sequences are equal.
  bool same_rows(const std::string& pred, StateSpace::TableId x,
                 StateSpace::TableId y) const {
    const auto rx = space_.rows(x);
    const auto ry = space_.rows(y);
    auto is_pred = [&](StateSpace::TupleId t) { return space_.tuple(t).predicate() == pred; };
    auto ix = std::find_if(rx.begin(), rx.end(), is_pred);
    auto iy = std::find_if(ry.begin(), ry.end(), is_pred);
    while (ix != rx.end() && iy != ry.end()) {
      if (*ix != *iy) return false;
      ix = std::find_if(ix + 1, rx.end(), is_pred);
      iy = std::find_if(iy + 1, ry.end(), is_pred);
    }
    return ix == rx.end() && iy == ry.end();
  }

  StateSpace space_;
  const ApSet* aps_;
  Valuation stable_mask_ = 0;
  std::vector<Valuation> pattern_;
  std::vector<std::vector<Id>> succs_;
  std::vector<bool> expanded_;
  std::vector<std::optional<Valuation>> table_bits_;
  std::unordered_map<std::uint64_t, Valuation> edge_val_;
};

struct NestedDfs {
  SystemGraph& sys;
  const Buchi& buchi;
  const CheckOptions& options;
  PropertyResult& result;

  static constexpr std::uint32_t kOffStack = ~std::uint32_t{0};
  /// What the search knows of one product state.
  struct Mark {
    bool blue = false;
    bool red = false;
    std::uint32_t stack_pos = kOffStack;  ///< its index on the blue DFS stack
  };
  /// By product key: system ids are dense, so keys are too.
  std::vector<Mark> marks{};
  std::size_t blue_visits = 0;
  std::vector<std::uint64_t> lasso_stem{};   // filled on success
  std::vector<std::uint64_t> lasso_cycle{};  // filled on success
  bool budget_hit = false;

  std::uint64_t key(std::size_t s, std::size_t q) const {
    return static_cast<std::uint64_t>(s) * buchi.states.size() + q;
  }
  std::size_t sys_of(std::uint64_t k) const { return k / buchi.states.size(); }
  std::size_t buchi_of(std::uint64_t k) const { return k % buchi.states.size(); }

  Mark& mark(std::uint64_t k) {
    if (k >= marks.size()) marks.resize(k + 1);
    return marks[k];
  }
  /// Marks `k` blue; false when it already was.
  bool visit_blue(std::uint64_t k) {
    Mark& m = mark(k);
    if (m.blue) return false;
    m.blue = true;
    ++blue_visits;
    return true;
  }

  std::vector<std::uint64_t> product_successors(std::uint64_t k) {
    const auto s = static_cast<SystemGraph::Id>(sys_of(k));
    const std::size_t q = buchi_of(k);
    std::vector<std::uint64_t> out;
    for (SystemGraph::Id s2 : sys.successors(s)) {
      const Valuation v = sys.edge_valuation(s, s2);
      for (std::size_t q2 : buchi.states[q].succs) {
        if (buchi.states[q2].admits(v)) out.push_back(key(s2, q2));
      }
    }
    result.transitions += out.size();
    return out;
  }

  struct Frame {
    std::uint64_t key;
    std::vector<std::uint64_t> succs;
    std::size_t next = 0;
  };

  /// Red search from the accepting seed; true when it closes a cycle back to
  /// the blue DFS stack (the seed is still on it).
  bool red_dfs(std::uint64_t seed, std::vector<std::uint64_t>& red_path) {
    std::vector<Frame> stack;
    stack.push_back(Frame{seed, product_successors(seed), 0});
    mark(seed).red = true;
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (top.next >= top.succs.size()) {
        stack.pop_back();
        continue;
      }
      const std::uint64_t next = top.succs[top.next++];
      Mark& m = mark(next);
      if (m.stack_pos != kOffStack) {
        // Cycle closed: seed ->* next, next is an ancestor of (or is) seed.
        red_path.clear();
        for (const Frame& f : stack) red_path.push_back(f.key);
        red_path.push_back(next);
        return true;
      }
      if (!m.red) {
        m.red = true;
        stack.push_back(Frame{next, product_successors(next), 0});
      }
    }
    return false;
  }

  /// Blue search; true when a violation (accepting lasso) was found.
  bool blue_dfs(std::uint64_t root) {
    if (!visit_blue(root)) return false;
    std::vector<Frame> stack;
    stack.push_back(Frame{root, product_successors(root), 0});
    mark(root).stack_pos = 0;
    while (!stack.empty()) {
      Frame& top = stack.back();
      if (blue_visits > options.max_product_states) {
        budget_hit = true;
        return false;
      }
      if (top.next < top.succs.size()) {
        const std::uint64_t next = top.succs[top.next++];
        if (visit_blue(next)) {
          mark(next).stack_pos = static_cast<std::uint32_t>(stack.size());
          stack.push_back(Frame{next, product_successors(next), 0});
        }
        continue;
      }
      // Postorder: nested red search from accepting states.
      const std::uint64_t done = top.key;
      if (buchi.states[buchi_of(done)].accepting) {
        std::vector<std::uint64_t> red_path;
        if (red_dfs(done, red_path)) {
          // red_path = done ->* x where x is on the blue stack.
          const std::uint64_t x = red_path.back();
          const std::size_t x_pos = marks[x].stack_pos;
          lasso_stem.clear();
          for (std::size_t i = 0; i <= x_pos; ++i) lasso_stem.push_back(stack[i].key);
          lasso_cycle.clear();
          for (std::size_t i = x_pos + 1; i < stack.size(); ++i) {
            lasso_cycle.push_back(stack[i].key);
          }
          // red_path[0] == done == stack.back().key: skip the duplicate.
          for (std::size_t i = 1; i < red_path.size(); ++i) {
            lasso_cycle.push_back(red_path[i]);
          }
          return true;
        }
      }
      marks[done].stack_pos = kOffStack;
      stack.pop_back();
    }
    return false;
  }
};

}  // namespace

PropertyResult check_property(const mc::NdlogTransitionSystem& ts,
                              const NetState& initial, const Property& property,
                              const CheckOptions& options) {
  PropertyResult result;
  result.name = property.name;
  result.formula = property.formula->to_string();

  // Automaton for the *negation*: an accepting run is a violation of φ.
  const NnfPtr negated = to_nnf(property.formula, result.aps, /*negated=*/true);
  const Buchi buchi = build_buchi(negated, result.aps.aps.size());
  if (buchi.empty()) return result;  // ¬φ unsatisfiable: φ holds vacuously

  SystemGraph sys(ts, result.aps);
  const SystemGraph::Id s0 = sys.intern(initial);
  const Valuation v0 = sys.initial_valuation(s0);

  NestedDfs dfs{sys, buchi, options, result};
  bool violated = false;
  for (std::size_t q : buchi.initial) {
    if (!buchi.states[q].admits(v0)) continue;
    if (dfs.blue_dfs(dfs.key(s0, q))) {
      violated = true;
      break;
    }
    if (dfs.budget_hit) break;
  }
  result.product_states = dfs.blue_visits;
  result.exhausted = !dfs.budget_hit;
  result.system_states = sys.space().size();
  result.local_steps = sys.space().local_steps();
  if (!violated) return result;

  result.holds = false;
  // Decode the lasso into snapshot steps; each step's valuation is the one
  // the search read on the edge into it.
  std::optional<SystemGraph::Id> prev;
  auto decode = [&](const std::vector<std::uint64_t>& keys,
                    std::vector<LassoStep>& out) {
    for (std::uint64_t k : keys) {
      const auto s = static_cast<SystemGraph::Id>(dfs.sys_of(k));
      const Valuation v = prev ? sys.edge_valuation(*prev, s) : sys.initial_valuation(s);
      out.push_back(LassoStep{sys.space().snapshot(s), v});
      prev = s;
    }
  };
  decode(dfs.lasso_stem, result.stem);
  decode(dfs.lasso_cycle, result.cycle);
  return result;
}

CheckResult check_ltl(const mc::NdlogTransitionSystem& ts, const NetState& initial,
                      const Spec& spec, const CheckOptions& options) {
  CheckResult out;
  for (const auto& property : spec.properties) {
    out.properties.push_back(check_property(ts, initial, property, options));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Counterexample rendering
// ---------------------------------------------------------------------------

std::string render_counterexample(const PropertyResult& result) {
  std::ostringstream os;
  os << "property " << result.name << ": " << result.formula << " — VIOLATED\n";
  std::size_t index = 0;
  auto emit = [&](const std::vector<LassoStep>& steps, const char* phase) {
    for (const auto& step : steps) {
      os << phase << " step " << index++ << "  [" << render_valuation(result.aps, step.valuation)
         << "]\n";
      os << mc::render_state(step.state);
    }
  };
  os << "stem (" << result.stem.size() << " steps):\n";
  emit(result.stem, "stem");
  os << "cycle (repeats forever; returns to step " << result.stem.size() - 1 << "):\n";
  emit(result.cycle, "cycle");
  return os.str();
}

void counterexample_to_trace(const PropertyResult& result, obs::Trace& trace) {
  std::size_t index = 0;
  auto emit = [&](const std::vector<LassoStep>& steps, const char* phase) {
    for (const auto& step : steps) {
      const std::uint64_t ts_us = static_cast<std::uint64_t>(index) * 1000;
      std::ostringstream args;
      args << "{\"property\":\"" << obs::json_escape(result.name) << "\",\"phase\":\""
           << phase << "\",\"valuation\":\""
           << obs::json_escape(render_valuation(result.aps, step.valuation)) << "\"}";
      trace.instant_at(ts_us, "ltl step " + std::to_string(index), "ltl", args.str());
      for (const auto& [node, tuples] : step.state.stored) {
        std::string rows;
        for (const auto& t : tuples) {
          if (!rows.empty()) rows += ";";
          rows += t.to_string();
        }
        trace.instant_at(ts_us, "node " + node, "ltl-state",
                         "{\"node\":\"" + obs::json_escape(node) + "\",\"tuples\":\"" +
                             obs::json_escape(rows) + "\"}");
      }
      ++index;
    }
  };
  emit(result.stem, "stem");
  emit(result.cycle, "cycle");
}

}  // namespace fvn::ltl
