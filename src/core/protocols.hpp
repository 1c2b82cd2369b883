// The protocol library: NDlog sources for the protocols discussed in the
// paper, exactly in the dialect of §2.2, plus helpers to produce link facts
// for common topologies.
#pragma once

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "ndlog/parser.hpp"
#include "ndlog/tuple.hpp"

namespace fvn::core {

/// The paper's path-vector program (§2.2, rules r1–r4): derives `path` and
/// selects `bestPath` per (source, destination) by minimal cost, with
/// `f_inPath` cycle avoidance.
std::string path_vector_source();

/// Distance-vector (Bellman-Ford) WITHOUT a path vector: `hop(@S,D,N,C)`
/// keeps only the next hop, so nothing prevents the count-to-infinity
/// anomaly (§3.1 / reference [22]). `bestHop` selects the min-cost next hop.
std::string distance_vector_source();

/// Distance-vector with a split-horizon-style hop bound (`C < Bound`), the
/// standard mitigation; used as the contrast case in E2.
std::string distance_vector_bounded_source(std::int64_t bound);

/// Link-state flooding: every node floods its links; each node then runs the
/// path computation locally over the replicated `lsdb`.
std::string link_state_source();

/// Simple reachability (transitive closure) — the minimal recursive program,
/// used by tests and the translator goldens.
std::string reachable_source();

/// Path-vector with BGP-style export/import policy hooks (§3.2.2,
/// reference [23]): routes are filtered on export and import, and selection
/// prefers higher local-pref and then lower cost (lexicographic), mirroring
/// `BGPSystem = lexProduct[LP, RC]` of §3.3.2.
std::string policy_path_vector_source();

/// Spanning-tree root election (STP-flavored): every node floods candidate
/// root identifiers; each elects the minimum it has heard of, then picks as
/// parent a neighbor whose distance-to-root is smaller than its own.
std::string spanning_tree_source();

/// The sources above, parsed (anew on every call). Each equals the shipped
/// examples/ndlog/<name>.ndlog (`CoreSources.MatchShippedExamples`).
ndlog::Program path_vector_program();
ndlog::Program distance_vector_program();
ndlog::Program link_state_program();
ndlog::Program reachable_program();
ndlog::Program policy_path_vector_program();
ndlog::Program spanning_tree_program();

// ---------------------------------------------------------------------------
// Topology generators: `link(@src,dst,cost)` fact sets.
// ---------------------------------------------------------------------------

struct Link {
  std::string src;
  std::string dst;
  std::int64_t cost = 1;
};

/// Node name "n<i>".
std::string node_name(std::size_t i);

/// Bidirectional line n0 - n1 - ... - n{count-1}.
std::vector<Link> line_topology(std::size_t count, std::int64_t cost = 1);
/// Bidirectional ring.
std::vector<Link> ring_topology(std::size_t count, std::int64_t cost = 1);
/// Full mesh.
std::vector<Link> full_mesh_topology(std::size_t count, std::int64_t cost = 1);
/// Random connected graph: a random spanning tree plus `extra_edges`
/// additional random edges; costs uniform in [1, max_cost]. Deterministic in
/// `seed`.
std::vector<Link> random_topology(std::size_t count, std::size_t extra_edges,
                                  std::uint64_t seed, std::int64_t max_cost = 10);

/// Convert links to `link(@src,dst,cost)` tuples.
std::vector<ndlog::Tuple> link_facts(const std::vector<Link>& links);

}  // namespace fvn::core
