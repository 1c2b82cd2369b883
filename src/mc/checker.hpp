// Explicit-state model checking for FVN (the complementary verification
// technique of §4.3): bounded BFS invariant checking with counterexample
// traces, and reachable-cycle (lasso) detection for divergence properties
// such as Disagree oscillation and count-to-infinity.
//
// Header-only template: a State must be hashable and equality-comparable.
// Budgets mean one thing everywhere: a budget of N examines (tests and
// expands) up to N states, and `exhausted` is false only when a reached
// state was left unexamined.
#pragma once

#include <deque>
#include <functional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "obs/metrics.hpp"

namespace fvn::mc {

namespace detail {

/// Flushes an exploration's totals into the registry on every exit path
/// (found-violation, budget-exhausted, fixpoint). Null registry: no-op.
template <typename Result>
struct MetricsFlush {
  obs::Registry* metrics;
  const Result& result;
  ~MetricsFlush() {
    if (metrics == nullptr) return;
    metrics->counter("mc/states_expanded").add(result.states_explored);
    metrics->counter("mc/transitions").add(result.transitions);
  }
};

}  // namespace detail

template <typename State>
struct ExplorationResult {
  bool property_holds = true;
  bool exhausted = true;  // full state space visited within budget
  std::size_t states_explored = 0;
  std::size_t transitions = 0;
  std::vector<State> counterexample;  // trace to violation / the lasso cycle
};

/// Bounded breadth-first invariant check: explores from `initial`; if some
/// reachable state violates `invariant`, returns the shortest trace to it.
template <typename State, typename Hash = std::hash<State>>
ExplorationResult<State> check_invariant(
    const std::vector<State>& initial,
    const std::function<std::vector<State>(const State&)>& successors,
    const std::function<bool(const State&)>& invariant, std::size_t max_states = 100000,
    obs::Registry* metrics = nullptr) {
  ExplorationResult<State> result;
  detail::MetricsFlush<ExplorationResult<State>> flush{metrics, result};
  std::unordered_map<State, State, Hash> parent;  // child -> parent (BFS tree)
  std::unordered_set<State, Hash> visited;
  std::deque<State> frontier;

  auto trace_back = [&](State state) {
    std::vector<State> trace{state};
    while (parent.count(state)) {
      state = parent.at(state);
      trace.push_back(state);
    }
    std::reverse(trace.begin(), trace.end());
    return trace;
  };

  for (const auto& s : initial) {
    if (visited.insert(s).second) frontier.push_back(s);
  }
  while (!frontier.empty()) {
    if (result.states_explored == max_states) {
      result.exhausted = false;
      return result;
    }
    State current = frontier.front();
    frontier.pop_front();
    ++result.states_explored;
    if (!invariant(current)) {
      result.property_holds = false;
      result.counterexample = trace_back(current);
      return result;
    }
    for (auto& next : successors(current)) {
      ++result.transitions;
      if (visited.insert(next).second) {
        parent.emplace(next, current);
        frontier.push_back(std::move(next));
      }
    }
  }
  return result;
}

/// Reachable-cycle detection among states satisfying `on_cycle_candidate`
/// (pass a tautology to find any cycle). Returns the cycle as the
/// counterexample when found — the witness of divergence/livelock.
template <typename State, typename Hash = std::hash<State>>
ExplorationResult<State> find_cycle(
    const std::vector<State>& initial,
    const std::function<std::vector<State>(const State&)>& successors,
    const std::function<bool(const State&)>& on_cycle_candidate,
    std::size_t max_states = 100000, obs::Registry* metrics = nullptr) {
  ExplorationResult<State> result;
  detail::MetricsFlush<ExplorationResult<State>> flush{metrics, result};
  enum class Color : std::uint8_t { Gray, Black };
  std::unordered_map<State, Color, Hash> color;
  std::vector<State> stack;  // current DFS path

  std::function<bool(const State&)> dfs = [&](const State& s) -> bool {
    if (result.states_explored == max_states) {
      result.exhausted = false;
      return false;
    }
    color[s] = Color::Gray;
    stack.push_back(s);
    ++result.states_explored;
    for (auto& next : successors(s)) {
      ++result.transitions;
      if (!on_cycle_candidate(next)) continue;
      auto it = color.find(next);
      if (it == color.end()) {
        if (dfs(next)) return true;
      } else if (it->second == Color::Gray) {
        // Found a cycle: slice the DFS stack from next's position.
        auto pos = std::find(stack.begin(), stack.end(), next);
        result.counterexample.assign(pos, stack.end());
        result.counterexample.push_back(next);
        result.property_holds = false;  // "no divergence cycle" is violated
        return true;
      }
    }
    stack.pop_back();
    color[s] = Color::Black;
    return false;
  };

  for (const auto& s : initial) {
    if (!on_cycle_candidate(s)) continue;
    if (!color.count(s) && dfs(s)) return result;
  }
  return result;
}

}  // namespace fvn::mc
