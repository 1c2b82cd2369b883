// Instances that both the checker-vs-monitor matrix (test_ltl_crossval.cpp)
// and the replay suite (test_mc.cpp) run: the shipped examples
// (examples/ndlog/<name>.ndlog), the facts each is cross-validated on, and
// two small programs on which a checker with its own copy of the node
// semantics diverged from the runtimes.
#pragma once

#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "ndlog/parser.hpp"
#include "ndlog/tuple.hpp"

namespace fvn::crossval {

/// The shipped example examples/ndlog/<name>.ndlog, parsed.
inline ndlog::Program example_program(const std::string& name) {
  std::ifstream in(std::string(FVN_SOURCE_DIR) + "/examples/ndlog/" + name + ".ndlog");
  std::ostringstream text;
  text << in.rdbuf();
  return ndlog::parse_program(text.str(), name + ".ndlog");
}

/// Per example: the topology documented at the top of its .ltl file, small
/// enough that fvn::mc explores every interleaving exhaustively.
inline std::map<std::string, std::vector<ndlog::Tuple>> example_facts() {
  using ndlog::Tuple;
  using ndlog::Value;
  const auto link = [](const char* s, const char* d, int c) {
    return Tuple("link", {Value::addr(s), Value::addr(d), Value::integer(c)});
  };
  const auto node = [](const char* n) { return Tuple("node", {Value::addr(n)}); };
  return {
      {"path_vector", {link("n0", "n1", 1), link("n1", "n0", 1),
                       link("n1", "n2", 1), link("n2", "n1", 1)}},
      // Directed acyclic: DV counts to infinity on any cycle.
      {"distance_vector", {link("n0", "n1", 1), link("n1", "n2", 1)}},
      {"reachable", {link("n0", "n1", 1), link("n1", "n0", 1),
                     link("n1", "n2", 1), link("n2", "n1", 1)}},
      // Coarse costs keep the C<1000 walk closure at <= 2 hops.
      {"link_state", {link("n0", "n1", 400), link("n1", "n0", 400)}},
      {"policy_path_vector",
       {node("n0"), node("n1"), link("n0", "n1", 1), link("n1", "n0", 1),
        Tuple("importPref", {Value::addr("n0"), Value::addr("n1"), Value::integer(100)}),
        Tuple("importPref", {Value::addr("n1"), Value::addr("n0"), Value::integer(100)})}},
      // Directed link: keeps distCand's hop counter from ping-ponging up to
      // its D<100 bound.
      {"spanning_tree", {node("n0"), node("n1"), link("n1", "n0", 1)}},
  };
}

struct Instance {
  ndlog::Program program;
  std::vector<ndlog::Tuple> facts;
};

/// Delivering trigger derives cand(a,2) before mid(a) derives cand(a,1). A
/// node settles best once, after the whole delivery, so best(a,2) never
/// exists and got(b,a,2) is never shipped; recomputing best after every
/// delta installs best(a,2) first and ships it. link comes first, so the
/// runtimes' trigger delivery is the one that ships got.
inline Instance intermediate_aggregate() {
  using ndlog::Tuple;
  using ndlog::Value;
  return {ndlog::parse_program(R"(
            materialize(trigger, infinity, infinity, keys(1)).
            materialize(mid, infinity, infinity, keys(1)).
            materialize(best, infinity, infinity, keys(1)).
            materialize(cand, infinity, infinity, keys(1,2)).
            materialize(got, infinity, infinity, keys(1,2)).
            materialize(link, infinity, infinity, keys(1,2)).
            c1 cand(@S,C) :- trigger(@S), C=2.
            m1 mid(@S) :- trigger(@S).
            c2 cand(@S,C) :- mid(@S), C=1.
            b1 best(@S,min<C>) :- cand(@S,C).
            g1 got(@D,S,C) :- best(@S,C), link(@S,D,_C).
          )", "intermediate_aggregate"),
          {Tuple("link", {Value::addr("a"), Value::addr("b"), Value::integer(1)}),
           Tuple("trigger", {Value::addr("a")})}};
}

/// d derives val(b,1) for b while b still stores val(b,1); c's val(b,2) can
/// overwrite it before d's copy arrives, and the copy then overwrites it
/// back. Over a slow d->b link the run ends on val(b,1). A checker that
/// drops a message whose destination stores the tuple at send time never
/// delivers that copy.
inline Instance send_filter() {
  using ndlog::Tuple;
  using ndlog::Value;
  const auto peer = [](const char* from, const char* to) {
    return Tuple("peer", {Value::addr(from), Value::addr(to)});
  };
  return {ndlog::parse_program(R"(
            materialize(val, infinity, infinity, keys(1)).
            materialize(peer, infinity, infinity, keys(1,2)).
            materialize(ping, infinity, infinity, keys(1,2)).
            materialize(go, infinity, infinity, keys(1,2)).
            p1 ping(@D,B) :- val(@B,X), X=1, peer(@B,D).
            v1 val(@B,X) :- ping(@D,B), peer(@D,B), X=1.
            g1 go(@C,D) :- ping(@D,B), peer(@D,B), peer(@D,C), C!=B.
            v2 val(@B,X) :- go(@C,D), peer(@C,B), X=2.
          )", "send_filter"),
          {Tuple("val", {Value::addr("b"), Value::integer(1)}), peer("b", "d"),
           peer("d", "b"), peer("d", "c"), peer("c", "b")}};
}

}  // namespace fvn::crossval
