// Graph families used throughout the evaluation.
//
// The paper's algorithms are parameterized by a diameter bound D, motivated by
// "complete graphs with a few broken links" (biological broadcast networks).
// The generators below cover that spectrum: bounded-diameter random graphs,
// dense cores with appendages, classic families for invariant tests, and
// tissue-like lattices for the biological examples.
#pragma once

#include <cstdint>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace ssau::graph {

[[nodiscard]] Graph path(NodeId n);
[[nodiscard]] Graph cycle(NodeId n);
[[nodiscard]] Graph complete(NodeId n);
[[nodiscard]] Graph star(NodeId n);  // node 0 is the hub
[[nodiscard]] Graph complete_binary_tree(NodeId n);
[[nodiscard]] Graph grid(NodeId rows, NodeId cols);
[[nodiscard]] Graph torus(NodeId rows, NodeId cols);  // rows, cols >= 3
[[nodiscard]] Graph hypercube(unsigned dims);

/// c cliques of size s arranged in a ring, consecutive cliques bridged by one
/// edge — a "tissue" of densely connected cell clusters (diameter Θ(c)).
[[nodiscard]] Graph ring_of_cliques(NodeId num_cliques, NodeId clique_size);

/// Two complete graphs of size s joined by a path of length bridge_len.
[[nodiscard]] Graph dumbbell(NodeId side_size, NodeId bridge_len);

/// Connected Erdős–Rényi-style graph: a random spanning tree plus each extra
/// edge kept with probability p (none for p <= 0, all for p >= 1). Throws
/// std::invalid_argument for n == 0 or a NaN p.
[[nodiscard]] Graph random_connected(NodeId n, double p, util::Rng& rng);

/// Random connected graph whose diameter is <= max_diameter: sampled by
/// rejection over random_connected with rising density. Throws on failure
/// after many attempts (pick feasible parameters).
[[nodiscard]] Graph random_bounded_diameter(NodeId n, unsigned max_diameter,
                                            util::Rng& rng);

/// "Damaged clique": complete graph with each edge removed with probability
/// drop_p, conditioned on staying connected — the paper's motivating family
/// (environmental obstacles disconnect some links of a broadcast network).
/// Throws std::invalid_argument for a NaN drop_p, and std::runtime_error
/// when 200 draws all come out disconnected.
[[nodiscard]] Graph damaged_clique(NodeId n, double drop_p, util::Rng& rng);

/// Wheel: a hub (node 0) joined to every node of an (n-1)-cycle (n >= 4);
/// diameter 2 with a long chordless cycle — a worst case for cycle-based
/// unison bounds (§5 discussion of T_G).
[[nodiscard]] Graph wheel(NodeId n);

/// Lollipop: a clique of size `head` with a path of length `tail` attached.
[[nodiscard]] Graph lollipop(NodeId head, NodeId tail);

/// Caterpillar: a spine path of `spine` nodes, each with `legs` pendant
/// leaves — a tree with many degree-1 nodes.
[[nodiscard]] Graph caterpillar(NodeId spine, NodeId legs);

/// A copy of the graph with the listed edges removed (absent edges ignored).
/// Models permanent link failures; the caller is responsible for re-checking
/// connectivity / the diameter bound. Thin wrapper over Graph::apply_delta —
/// prefer mutating in place (Engine::apply_topology_delta) for mid-run churn;
/// the copy is for building a distinct topology.
[[nodiscard]] Graph without_edges(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& removed);

/// A copy of the graph with the listed edges added (duplicates deduplicated).
/// Thin wrapper over Graph::apply_delta, like without_edges.
[[nodiscard]] Graph with_edges(
    const Graph& g, const std::vector<std::pair<NodeId, NodeId>>& added);

}  // namespace ssau::graph
