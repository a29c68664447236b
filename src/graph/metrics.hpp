// BFS-based graph metrics: distances, eccentricity, diameter.
//
// The diameter drives every bound in the paper (k = 3D+2, epoch lengths,
// Restart chain length), so tests and benches compute it exactly.
#pragma once

#include <vector>

#include "graph/graph.hpp"

namespace ssau::graph {

/// Distances from src to every node (UINT32_MAX if unreachable). Throws
/// std::invalid_argument unless src < n (so always on the empty graph).
[[nodiscard]] std::vector<std::uint32_t> bfs_distances(const Graph& g,
                                                       NodeId src);

/// max_v dist(src, v); throws std::runtime_error if g is disconnected, and
/// std::invalid_argument like bfs_distances for an out-of-range src.
[[nodiscard]] std::uint32_t eccentricity(const Graph& g, NodeId src);

/// Exact diameter via all-sources BFS; throws if disconnected.
[[nodiscard]] std::uint32_t diameter(const Graph& g);

/// True iff g is connected AND diameter(g) <= bound — exact, but cheap in
/// the common cases: the first BFS decides disconnection and rejects an
/// over-bound eccentricity immediately, and accepts outright when twice that
/// eccentricity already fits the bound (diam <= 2 * ecc(x) for any x);
/// only the remaining gray zone pays the all-sources scan, with an early
/// exit at the first over-bound distance. The churn guards use this per
/// candidate removal instead of a full component_diameters pass.
[[nodiscard]] bool diameter_at_most(const Graph& g, std::uint32_t bound);

/// Connected-component labels: out[v] = component index, components numbered
/// 0.. in order of their lowest node id. Empty for the empty graph.
[[nodiscard]] std::vector<std::uint32_t> component_labels(const Graph& g);

/// Exact diameter of every connected component (all-sources BFS restricted
/// to each component), indexed like component_labels' numbering — the
/// partition-tolerant companion to diameter() for churned topologies: it
/// never throws, a fragmented graph simply yields one entry per fragment
/// (an isolated node contributes 0).
[[nodiscard]] std::vector<std::uint32_t> component_diameters(const Graph& g);

}  // namespace ssau::graph
