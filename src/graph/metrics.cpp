#include "graph/metrics.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <stdexcept>

namespace ssau::graph {

// Both BFS loops queue in a std::deque, which holds only the live frontier
// in small blocks, and prefetch the row kRowPrefetchDistance slots ahead.
// A flat n-slot queue would be a second n-sized temporary beside `dist`; on
// a 1M-node set-up the allocator kept ~6 MB of such freed blocks resident.

std::vector<std::uint32_t> bfs_distances(const Graph& g, NodeId src) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  if (src >= g.num_nodes()) {
    throw std::invalid_argument("bfs_distances: source out of range");
  }
  std::vector<std::uint32_t> dist(g.num_nodes(), kInf);
  std::deque<NodeId> frontier{src};
  dist[src] = 0;
  while (!frontier.empty()) {
    if (frontier.size() > kRowPrefetchDistance) {
      g.prefetch_neighbors(frontier[kRowPrefetchDistance]);
    }
    const NodeId v = frontier.front();
    frontier.pop_front();
    for (const NodeId u : g.neighbors(v)) {
      if (dist[u] == kInf) {
        dist[u] = dist[v] + 1;
        frontier.push_back(u);
      }
    }
  }
  return dist;
}

std::uint32_t eccentricity(const Graph& g, NodeId src) {
  const auto dist = bfs_distances(g, src);
  std::uint32_t ecc = 0;
  for (const auto d : dist) {
    if (d == std::numeric_limits<std::uint32_t>::max()) {
      throw std::runtime_error("eccentricity: graph is disconnected");
    }
    ecc = std::max(ecc, d);
  }
  return ecc;
}

std::uint32_t diameter(const Graph& g) {
  std::uint32_t diam = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    diam = std::max(diam, eccentricity(g, v));
  }
  return diam;
}

bool diameter_at_most(const Graph& g, std::uint32_t bound) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  if (g.num_nodes() <= 1) return true;
  {
    const auto dist = bfs_distances(g, 0);
    std::uint32_t ecc = 0;
    for (const auto d : dist) {
      if (d == kInf) return false;  // disconnected: beyond any finite bound
      ecc = std::max(ecc, d);
    }
    if (ecc > bound) return false;
    if (std::uint64_t{2} * ecc <= bound) return true;
  }
  // Gray zone: scan the remaining sources, bailing at the first over-bound
  // distance (connectivity is already established, so every d is finite).
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    for (const auto d : bfs_distances(g, v)) {
      if (d > bound) return false;
    }
  }
  return true;
}

std::vector<std::uint32_t> component_labels(const Graph& g) {
  constexpr auto kUnlabeled = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> label(g.num_nodes(), kUnlabeled);
  std::uint32_t next = 0;
  std::deque<NodeId> frontier;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (label[root] != kUnlabeled) continue;
    label[root] = next;
    frontier.push_back(root);
    while (!frontier.empty()) {
      if (frontier.size() > kRowPrefetchDistance) {
        g.prefetch_neighbors(frontier[kRowPrefetchDistance]);
      }
      const NodeId v = frontier.front();
      frontier.pop_front();
      for (const NodeId u : g.neighbors(v)) {
        if (label[u] == kUnlabeled) {
          label[u] = next;
          frontier.push_back(u);
        }
      }
    }
    ++next;
  }
  return label;
}

std::vector<std::uint32_t> component_diameters(const Graph& g) {
  constexpr auto kInf = std::numeric_limits<std::uint32_t>::max();
  const std::vector<std::uint32_t> label = component_labels(g);
  const std::uint32_t count =
      label.empty() ? 0 : *std::max_element(label.begin(), label.end()) + 1;
  std::vector<std::uint32_t> diam(count, 0);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto dist = bfs_distances(g, v);
    std::uint32_t ecc = 0;
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      if (dist[u] != kInf) ecc = std::max(ecc, dist[u]);
    }
    diam[label[v]] = std::max(diam[label[v]], ecc);
  }
  return diam;
}

}  // namespace ssau::graph
