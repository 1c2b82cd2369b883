// The benchmark's own inputs: the embedded path-vector program, the seeded
// graph generators and the Dijkstra oracle the converge checks use.
#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

#include "bench.hpp"

namespace perfbench {

const char* const kPathVectorSource = R"(
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

std::uint64_t Rng::next() noexcept {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

/// Shape of the converge/serve graph, chosen once so that one converge op is
/// over 0.1 s of work: 16 nodes, 19 edges, 1158 messages per run.
constexpr std::uint64_t kMeshShape = 6;
/// Draws the link costs, once for every seed. Costs drawn from the seed
/// changed the route churn (1744–2044 installs per converge op over seeds
/// 1–8), and with it the op time by up to 13 %.
constexpr std::uint64_t kLinkCosts = 0xc057;

/// Draw one cost in 1..10 per edge from kLinkCosts, and name node i
/// "n<perm[i]>" for a permutation drawn from the seed — the seed's whole
/// effect on a fixed weighted shape.
void label_and_weigh(Graph& graph, std::size_t nodes, std::uint64_t seed) {
  Rng costs(kLinkCosts);
  for (Link& link : graph.links) link.cost = 1 + static_cast<std::int64_t>(costs.below(10));
  Rng rng(seed);
  std::vector<std::size_t> perm(nodes);
  std::iota(perm.begin(), perm.end(), 0);
  for (std::size_t i = nodes; i > 1; --i) std::swap(perm[i - 1], perm[rng.below(i)]);
  graph.names.clear();
  for (std::size_t i = 0; i < nodes; ++i) graph.names.push_back("n" + std::to_string(perm[i]));
}

}  // namespace

Graph mesh_graph(std::uint64_t seed, bool small) {
  const std::size_t nodes = small ? 8 : 16;
  const std::size_t extra = small ? 2 : 4;
  Graph graph;
  Rng shape(kMeshShape);
  auto has = [&graph](std::size_t a, std::size_t b) {
    return std::any_of(graph.links.begin(), graph.links.end(), [&](const Link& l) {
      return (l.a == a && l.b == b) || (l.a == b && l.b == a);
    });
  };
  // Random spanning tree: node i hangs off a uniformly drawn earlier node.
  for (std::size_t i = 1; i < nodes; ++i) graph.links.push_back(Link{shape.below(i), i, 1});
  while (graph.links.size() < nodes - 1 + extra) {
    const std::size_t a = shape.below(nodes);
    const std::size_t b = shape.below(nodes);
    if (a != b && !has(a, b)) graph.links.push_back(Link{a, b, 1});
  }
  label_and_weigh(graph, nodes, seed);
  return graph;
}

Graph line_graph(std::uint64_t seed, bool small) {
  const std::size_t nodes = small ? 3 : 4;
  Graph graph;
  for (std::size_t i = 0; i + 1 < nodes; ++i) graph.links.push_back(Link{i, i + 1, 1});
  label_and_weigh(graph, nodes, seed);
  return graph;
}

std::vector<fvn::ndlog::Tuple> Graph::link_facts() const {
  using fvn::ndlog::Value;
  std::vector<fvn::ndlog::Tuple> out;
  for (const Link& l : links) {
    for (const auto& [from, to] : {std::pair{l.a, l.b}, std::pair{l.b, l.a}}) {
      out.emplace_back("link", std::vector<Value>{Value::addr(names[from]),
                                                  Value::addr(names[to]),
                                                  Value::integer(l.cost)});
    }
  }
  return out;
}

std::map<std::pair<std::string, std::string>, std::int64_t> Graph::shortest_costs() const {
  const std::size_t n = names.size();
  std::vector<std::vector<std::pair<std::size_t, std::int64_t>>> adj(n);
  for (const Link& l : links) {
    adj[l.a].emplace_back(l.b, l.cost);
    adj[l.b].emplace_back(l.a, l.cost);
  }
  std::map<std::pair<std::string, std::string>, std::int64_t> out;
  constexpr std::int64_t kInf = std::numeric_limits<std::int64_t>::max();
  for (std::size_t src = 0; src < n; ++src) {
    std::vector<std::int64_t> dist(n, kInf);
    using Item = std::pair<std::int64_t, std::size_t>;
    std::priority_queue<Item, std::vector<Item>, std::greater<>> queue;
    dist[src] = 0;
    queue.emplace(0, src);
    while (!queue.empty()) {
      const auto [d, u] = queue.top();
      queue.pop();
      if (d != dist[u]) continue;
      for (const auto& [v, w] : adj[u]) {
        if (d + w < dist[v]) {
          dist[v] = d + w;
          queue.emplace(dist[v], v);
        }
      }
    }
    for (std::size_t dst = 0; dst < n; ++dst) {
      if (dst != src && dist[dst] != kInf) out[{names[src], names[dst]}] = dist[dst];
    }
  }
  return out;
}

}  // namespace perfbench
