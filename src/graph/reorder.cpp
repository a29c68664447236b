#include "graph/reorder.hpp"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

namespace ssau::graph {

namespace {

/// Every node id in ascending (degree, id) order, or descending degree with
/// ties by ascending id: one counting sort over the degrees, stable in id.
std::vector<NodeId> by_degree(const Graph& g, bool descending) {
  const NodeId n = g.num_nodes();
  const std::size_t top = g.max_degree();
  const auto key = [&](NodeId v) {
    return descending ? top - g.degree(v) : g.degree(v);
  };
  std::vector<NodeId> start(top + 2, 0);  // bucket k fills [start[k], ...)
  for (NodeId v = 0; v < n; ++v) ++start[key(v) + 1];
  for (std::size_t k = 1; k < start.size(); ++k) start[k] += start[k - 1];
  std::vector<NodeId> order(n);
  for (NodeId v = 0; v < n; ++v) order[start[key(v)]++] = v;
  return order;
}

/// BFS/RCM-style frontier order. Components are entered from their
/// minimum-degree node (ties by id); within the queue, each dequeued node's
/// unvisited neighbors are appended in ascending (degree, id) order — the
/// Cuthill-McKee visit rule. Deterministic by construction: every choice is
/// a total order over (degree, id).
std::vector<NodeId> bfs_order(const Graph& g) {
  const NodeId n = g.num_nodes();
  const std::vector<NodeId> seeds = by_degree(g, /*descending=*/false);
  std::vector<NodeId> order(n);  // doubles as the BFS queue
  std::vector<std::uint8_t> visited(n, 0);
  // A frontier's unvisited neighbours sort as packed (degree << 32) | id
  // keys: one integer compare per step, no degree lookups inside the sort.
  std::vector<std::uint64_t> keys;
  keys.reserve(g.max_degree());
  std::size_t head = 0;
  std::size_t tail = 0;
  for (const NodeId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    order[tail++] = seed;
    while (head < tail) {
      if (head + kRowPrefetchDistance < tail) {
        g.prefetch_neighbors(order[head + kRowPrefetchDistance]);
      }
      keys.clear();
      for (const NodeId u : g.neighbors(order[head++])) {
        if (visited[u]) continue;
        visited[u] = 1;  // rows hold no duplicates: u is queued once
        keys.push_back(std::uint64_t{g.degree(u)} << 32 | u);
      }
      std::sort(keys.begin(), keys.end());
      for (const std::uint64_t key : keys) {
        order[tail++] = static_cast<NodeId>(key);
      }
    }
  }
  return order;
}

}  // namespace

std::vector<NodeId> reorder_permutation(const Graph& g, ReorderPolicy policy) {
  // order[k] = old id placed at new position k; invert into perm[old] = new.
  std::vector<NodeId> order;
  switch (policy) {
    case ReorderPolicy::kBfs:
      order = bfs_order(g);
      break;
    case ReorderPolicy::kDegree:
      // Hubs — the endpoints of most half-edges — pack into the lowest ids
      // and therefore the first cache lines of every per-node array.
      order = by_degree(g, /*descending=*/true);
      break;
    default:
      throw std::invalid_argument("reorder_permutation: unknown policy");
  }
  std::vector<NodeId> perm(g.num_nodes());
  for (NodeId k = 0; k < g.num_nodes(); ++k) perm[order[k]] = k;
  return perm;
}

Graph reorder_graph(const Graph& g, const std::vector<NodeId>& perm,
                    GraphOptions options) {
  Graph out = GraphBuilder::relabel(g, perm, options);  // validates perm

  // Compose onto the source's provenance so user ids survive repeated
  // reorders: user u sat at g-internal i = g.to_internal(u) and now sits at
  // perm[i].
  const NodeId n = g.num_nodes();
  std::vector<NodeId> to_internal(n);
  std::vector<NodeId> to_user(n);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId i = perm[g.to_internal(u)];
    to_internal[u] = i;
    to_user[i] = u;
  }
  out.attach_permutation(std::move(to_internal), std::move(to_user));
  return out;
}

Graph reorder_graph(const Graph& g, ReorderPolicy policy,
                    GraphOptions options) {
  return reorder_graph(g, reorder_permutation(g, policy), options);
}

double average_neighbor_distance(const Graph& g) {
  std::uint64_t total = 0;
  std::uint64_t half_edges = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NodeId u : g.neighbors(v)) {
      total += static_cast<std::uint64_t>(
          std::abs(static_cast<std::int64_t>(v) - static_cast<std::int64_t>(u)));
    }
    half_edges += g.degree(v);
  }
  return half_edges > 0
             ? static_cast<double>(total) / static_cast<double>(half_edges)
             : 0.0;
}

}  // namespace ssau::graph
