#include "core/protocols.hpp"

#include <sstream>

namespace fvn::core {

std::string path_vector_source() {
  return R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(path, infinity, infinity, keys(1,2,3)).
    materialize(bestPath, infinity, infinity, keys(1,2)).
    materialize(bestPathCost, infinity, infinity, keys(1,2)).

    r1 path(@S,D,P,C) :- link(@S,D,C), P=f_init(S,D).
    r2 path(@S,D,P,C) :- link(@S,Z,C1), path(@Z,D,P2,C2), C=C1+C2,
                         P=f_concatPath(S,P2), f_inPath(P2,S)=false.
    r3 bestPathCost(@S,D,min<C>) :- path(@S,D,P,C).
    r4 bestPath(@S,D,P,C) :- bestPathCost(@S,D,C), path(@S,D,P,C).
  )";
}

std::string distance_vector_source() {
  // No path vector, no loop check: the classic count-to-infinity shape. On a
  // cyclic topology the `hop` relation is infinite; the centralized evaluator
  // reports DivergenceError and the distributed runtime counts up forever
  // after a link failure (experiment E2).
  return R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hop, infinity, infinity, keys(1,2,3)).
    materialize(bestHopCost, infinity, infinity, keys(1,2)).
    materialize(bestHop, infinity, infinity, keys(1,2)).

    d1 hop(@S,D,D,C) :- link(@S,D,C).
    d2 hop(@S,D,Z,C) :- link(@S,Z,C1), hop(@Z,D,W,C2), C=C1+C2.
    d3 bestHopCost(@S,D,min<C>) :- hop(@S,D,Z,C).
    d4 bestHop(@S,D,Z,C) :- bestHopCost(@S,D,C), hop(@S,D,Z,C).
  )";
}

std::string distance_vector_bounded_source(std::int64_t bound) {
  std::ostringstream os;
  os << R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(hop, infinity, infinity, keys(1,2,3)).
    materialize(bestHopCost, infinity, infinity, keys(1,2)).
    materialize(bestHop, infinity, infinity, keys(1,2)).

    d1 hop(@S,D,D,C) :- link(@S,D,C).
    d2 hop(@S,D,Z,C) :- link(@S,Z,C1), hop(@Z,D,W,C2), C=C1+C2, C < )"
     << bound << R"(.
    d3 bestHopCost(@S,D,min<C>) :- hop(@S,D,Z,C).
    d4 bestHop(@S,D,Z,C) :- bestHopCost(@S,D,C), hop(@S,D,Z,C).
  )";
  return os.str();
}

std::string link_state_source() {
  // l1/l2 flood link-state advertisements over the (bidirectional) topology;
  // l3-l5 run the path computation locally at every node over its replicated
  // lsdb. The C<1000 bound keeps the local closure finite (costs are >= 1).
  return R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(lsdb, infinity, infinity, keys(1,2,3)).
    materialize(lspath, infinity, infinity, keys(1,2,3,4)).
    materialize(lsBestCost, infinity, infinity, keys(1,2,3)).

    l1 lsdb(@S,S,D,C) :- link(@S,D,C).
    l2 lsdb(@N,S,D,C) :- link(@N,M,C0), lsdb(@M,S,D,C).
    l3 lspath(@N,S,D,C) :- lsdb(@N,S,D,C).
    l4 lspath(@N,S,D,C) :- lspath(@N,S,Z,C1), lsdb(@N,Z,D,C2), C=C1+C2, C<1000.
    l5 lsBestCost(@N,S,D,min<C>) :- lspath(@N,S,D,C).
  )";
}

std::string reachable_source() {
  return R"(
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(reachable, infinity, infinity, keys(1,2)).

    t1 reachable(@S,D) :- link(@S,D,_C).
    t2 reachable(@S,D) :- link(@S,Z,_C), reachable(@Z,D).
  )";
}

std::string policy_path_vector_source() {
  // Griffin-style staged BGP (paper Figure 2): originate -> export (with
  // deny-list filter) -> pvt transfer -> import (local-pref assignment) ->
  // selection by lexicographic (max local-pref, then min cost), i.e. the
  // BGPSystem = lexProduct[LP, RC] of §3.3.2.
  return R"(
    materialize(node, infinity, infinity, keys(1)).
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(exportDeny, infinity, infinity, keys(1,2,3)).
    materialize(importDeny, infinity, infinity, keys(1,2,3)).
    materialize(importPref, infinity, infinity, keys(1,2)).
    materialize(bestLP, infinity, infinity, keys(1,2)).
    materialize(bestCostAtLP, infinity, infinity, keys(1,2,3)).
    materialize(bestRoute, infinity, infinity, keys(1,2)).

    x0 route(@S,S,P,C,LP) :- node(@S), P=f_list(S), C=0, LP=100.
    x1 export(@Z,S,D,P,C) :- route(@Z,D,P,C,LP), link(@Z,S,C1),
                             !exportDeny(@Z,S,D), f_inPath(P,S)=false.
    x2 recv(@S,Z,D,P2,C2) :- export(@Z,S,D,P2,C2).
    x3 route(@S,D,P,C,LP) :- recv(@S,Z,D,P2,C2), link(@S,Z,C1),
                             !importDeny(@S,Z,D), C=C1+C2,
                             P=f_concatPath(S,P2), importPref(@S,Z,LP).
    s1 bestLP(@S,D,max<LP>) :- route(@S,D,P,C,LP).
    s2 bestCostAtLP(@S,D,LP,min<C>) :- route(@S,D,P,C,LP), bestLP(@S,D,LP).
    s3 bestRoute(@S,D,P,C,LP) :- bestCostAtLP(@S,D,LP,C), route(@S,D,P,C,LP).
  )";
}

std::string spanning_tree_source() {
  // st1/st2 flood root candidates; st3 elects the minimum; st4/st5 compute
  // hop distance to the elected root (bounded: costs are 1, bound 100) and
  // st6 keeps the least; st7x ships each node's distance to its neighbors,
  // and st7 selects the parent (a neighbor strictly closer to the root,
  // deterministically the smallest such neighbor via min<..>).
  return R"(
    materialize(node, infinity, infinity, keys(1)).
    materialize(link, infinity, infinity, keys(1,2)).
    materialize(rootCand, infinity, infinity, keys(1,2)).
    materialize(root, infinity, infinity, keys(1)).
    materialize(distCand, infinity, infinity, keys(1,2)).
    materialize(dist, infinity, infinity, keys(1)).
    materialize(parent, infinity, infinity, keys(1)).
    materialize(dist_sh_st7x, infinity, infinity, keys(1,2)).

    st1 rootCand(@N,R) :- node(@N), R=N.
    st2 rootCand(@N,R) :- link(@N,M,_C), rootCand(@M,R).
    st3 root(@N,min<R>) :- rootCand(@N,R).
    st4 distCand(@N,D) :- root(@N,R), N=R, D=0.
    st5 distCand(@N,D) :- link(@N,M,_C), distCand(@M,D2), D=D2+1, D<100.
    st6 dist(@N,min<D>) :- distCand(@N,D).
    st7 parent(@N,min<M>) :- link(@N,M,_C), dist(@N,D), dist_sh_st7x(@N,M,D2), D2<D.
    st7x dist_sh_st7x(@M,N,D) :- link(@N,M,_C), dist(@N,D).
  )";
}

ndlog::Program spanning_tree_program() {
  return ndlog::parse_program(spanning_tree_source(), "spanning_tree");
}

ndlog::Program path_vector_program() {
  return ndlog::parse_program(path_vector_source(), "path_vector");
}
ndlog::Program distance_vector_program() {
  return ndlog::parse_program(distance_vector_source(), "distance_vector");
}
ndlog::Program link_state_program() {
  return ndlog::parse_program(link_state_source(), "link_state");
}
ndlog::Program reachable_program() {
  return ndlog::parse_program(reachable_source(), "reachable");
}
ndlog::Program policy_path_vector_program() {
  return ndlog::parse_program(policy_path_vector_source(), "policy_path_vector");
}

std::string node_name(std::size_t i) {
  std::string name = "n";
  name += std::to_string(i);
  return name;
}

namespace {
void add_bidi(std::vector<Link>& out, std::size_t a, std::size_t b, std::int64_t cost) {
  out.push_back(Link{node_name(a), node_name(b), cost});
  out.push_back(Link{node_name(b), node_name(a), cost});
}
}  // namespace

std::vector<Link> line_topology(std::size_t count, std::int64_t cost) {
  std::vector<Link> out;
  for (std::size_t i = 0; i + 1 < count; ++i) add_bidi(out, i, i + 1, cost);
  return out;
}

std::vector<Link> ring_topology(std::size_t count, std::int64_t cost) {
  std::vector<Link> out = line_topology(count, cost);
  if (count > 2) add_bidi(out, count - 1, 0, cost);
  return out;
}

std::vector<Link> full_mesh_topology(std::size_t count, std::int64_t cost) {
  std::vector<Link> out;
  for (std::size_t i = 0; i < count; ++i) {
    for (std::size_t j = i + 1; j < count; ++j) add_bidi(out, i, j, cost);
  }
  return out;
}

std::vector<Link> random_topology(std::size_t count, std::size_t extra_edges,
                                  std::uint64_t seed, std::int64_t max_cost) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<std::int64_t> cost_dist(1, std::max<std::int64_t>(1, max_cost));
  std::vector<Link> out;
  // Random spanning tree: attach node i to a uniformly random earlier node.
  for (std::size_t i = 1; i < count; ++i) {
    std::uniform_int_distribution<std::size_t> parent(0, i - 1);
    add_bidi(out, parent(rng), i, cost_dist(rng));
  }
  // Extra random edges (skip self-loops and duplicates lazily).
  std::size_t added = 0;
  std::size_t attempts = 0;
  while (added < extra_edges && attempts < extra_edges * 20 + 100) {
    ++attempts;
    std::uniform_int_distribution<std::size_t> pick(0, count - 1);
    const std::size_t a = pick(rng);
    const std::size_t b = pick(rng);
    if (a == b) continue;
    bool dup = false;
    for (const auto& l : out) {
      if (l.src == node_name(a) && l.dst == node_name(b)) {
        dup = true;
        break;
      }
    }
    if (dup) continue;
    add_bidi(out, a, b, cost_dist(rng));
    ++added;
  }
  return out;
}

std::vector<ndlog::Tuple> link_facts(const std::vector<Link>& links) {
  std::vector<ndlog::Tuple> out;
  out.reserve(links.size());
  for (const auto& l : links) {
    out.emplace_back("link", std::vector<ndlog::Value>{ndlog::Value::addr(l.src),
                                                       ndlog::Value::addr(l.dst),
                                                       ndlog::Value::integer(l.cost)});
  }
  return out;
}

}  // namespace fvn::core
