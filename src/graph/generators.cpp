#include "graph/generators.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <string>

#include "graph/metrics.hpp"

namespace ssau::graph {

namespace {

// Every family streams its edges twice through a GraphBuilder (count pass,
// fill pass) instead of materializing a vector<pair> edge list — the builder
// lays the CSR out directly, so peak memory is the final graph plus O(n)
// cursors even at millions of nodes.
template <typename EmitAll>
Graph stream_graph(NodeId n, EmitAll&& emit_all, GraphOptions options = {}) {
  GraphBuilder b(n, options);
  emit_all([&b](NodeId u, NodeId v) { b.count_edge(u, v); });
  b.finish_counting();
  emit_all([&b](NodeId u, NodeId v) { b.fill_edge(u, v); });
  return std::move(b).finish();
}

// Bernoulli(p) sampling over the n*(n-1)/2 linearized pairs {u < v} by
// geometric skip lengths: only the kept pairs are ever visited, so a sparse
// G(n, p) draw costs O(n + m) instead of the O(n^2) per-pair coin flips.
// Consumes one geometric draw per kept pair plus one terminal draw —
// replaying the same rng state therefore re-emits the exact pair sequence,
// which is what the two-pass builders rely on. NaN must be rejected upstream.
template <typename Edge>
void sample_pairs(NodeId n, double p, util::Rng& rng, Edge&& edge) {
  const double log_q = std::log1p(-p);  // once per sampling, not per draw
  const std::uint64_t total =
      n >= 2 ? std::uint64_t{n} * (n - 1) / 2 : 0;
  std::uint64_t jump = rng.geometric(p, log_q);  // >= 1; huge when p <= 0
  if (jump > total) return;
  std::uint64_t idx = jump - 1;
  NodeId u = 0;
  std::uint64_t row_start = 0;
  std::uint64_t row_len = n > 0 ? n - 1 : 0;
  while (true) {
    while (idx >= row_start + row_len) {
      row_start += row_len;
      ++u;
      row_len = n - 1 - u;
    }
    edge(u, static_cast<NodeId>(u + 1 + (idx - row_start)));
    jump = rng.geometric(p, log_q);
    if (jump >= total - idx) return;  // next index would fall off the end
    idx += jump;
  }
}

/// Edge probabilities are compared, never cast: NaN would pass every range
/// test and reach a float-to-integer conversion, so it is refused outright.
void require_probability(double p, const char* what) {
  if (std::isnan(p)) {
    throw std::invalid_argument(std::string(what) + ": probability is NaN");
  }
}

}  // namespace

Graph path(NodeId n) {
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId v = 0; v + 1 < n; ++v) edge(v, v + 1);
  });
}

Graph cycle(NodeId n) {
  if (n < 3) throw std::invalid_argument("cycle needs n >= 3");
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId v = 0; v + 1 < n; ++v) edge(v, v + 1);
    edge(n - 1, 0);
  });
}

Graph complete(NodeId n) {
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v) edge(u, v);
  });
}

Graph star(NodeId n) {
  if (n < 2) throw std::invalid_argument("star needs n >= 2");
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId v = 1; v < n; ++v) edge(0, v);
  });
}

Graph complete_binary_tree(NodeId n) {
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId v = 1; v < n; ++v) edge((v - 1) / 2, v);
  });
}

Graph grid(NodeId rows, NodeId cols) {
  if (rows == 0 || cols == 0) throw std::invalid_argument("empty grid");
  return stream_graph(rows * cols, [rows, cols](auto&& edge) {
    auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
    for (NodeId r = 0; r < rows; ++r) {
      for (NodeId c = 0; c < cols; ++c) {
        if (c + 1 < cols) edge(id(r, c), id(r, c + 1));
        if (r + 1 < rows) edge(id(r, c), id(r + 1, c));
      }
    }
  });
}

Graph torus(NodeId rows, NodeId cols) {
  if (rows < 3 || cols < 3) throw std::invalid_argument("torus needs 3x3+");
  return stream_graph(rows * cols, [rows, cols](auto&& edge) {
    auto id = [cols](NodeId r, NodeId c) { return r * cols + c; };
    for (NodeId r = 0; r < rows; ++r) {
      for (NodeId c = 0; c < cols; ++c) {
        edge(id(r, c), id(r, (c + 1) % cols));
        edge(id(r, c), id((r + 1) % rows, c));
      }
    }
  });
}

Graph hypercube(unsigned dims) {
  if (dims == 0 || dims > 16) throw std::invalid_argument("hypercube dims in [1,16]");
  const NodeId n = NodeId{1} << dims;
  return stream_graph(n, [n, dims](auto&& edge) {
    for (NodeId v = 0; v < n; ++v) {
      for (unsigned b = 0; b < dims; ++b) {
        const NodeId u = v ^ (NodeId{1} << b);
        if (v < u) edge(v, u);
      }
    }
  });
}

Graph ring_of_cliques(NodeId num_cliques, NodeId clique_size) {
  if (num_cliques < 3 || clique_size < 1) {
    throw std::invalid_argument("ring_of_cliques needs >=3 cliques of size >=1");
  }
  const NodeId n = num_cliques * clique_size;
  return stream_graph(n, [num_cliques, clique_size](auto&& edge) {
    for (NodeId c = 0; c < num_cliques; ++c) {
      const NodeId base = c * clique_size;
      for (NodeId a = 0; a < clique_size; ++a)
        for (NodeId b = a + 1; b < clique_size; ++b)
          edge(base + a, base + b);
      // Bridge: last node of clique c to first node of clique c+1 (mod ring).
      const NodeId next_base = ((c + 1) % num_cliques) * clique_size;
      edge(base + clique_size - 1, next_base);
    }
  });
}

Graph dumbbell(NodeId side_size, NodeId bridge_len) {
  if (side_size < 1) throw std::invalid_argument("dumbbell side_size >= 1");
  const NodeId n = 2 * side_size + bridge_len;
  return stream_graph(n, [side_size, bridge_len](auto&& edge) {
    for (NodeId a = 0; a < side_size; ++a)
      for (NodeId b = a + 1; b < side_size; ++b) edge(a, b);
    const NodeId right = side_size + bridge_len;
    for (NodeId a = 0; a < side_size; ++a)
      for (NodeId b = a + 1; b < side_size; ++b)
        edge(right + a, right + b);
    // Bridge path from node side_size-1 through bridge nodes to node `right`.
    NodeId prev = side_size - 1;
    for (NodeId i = 0; i < bridge_len; ++i) {
      edge(prev, side_size + i);
      prev = side_size + i;
    }
    edge(prev, right);
  });
}

Graph random_connected(NodeId n, double p, util::Rng& rng) {
  if (n == 0) throw std::invalid_argument("empty graph");
  require_probability(p, "random_connected");
  // Random spanning tree via random attachment to an already-connected prefix
  // of a random permutation. Drawn once up front (O(n) storage) so both
  // builder passes can re-emit the same tree edges.
  std::vector<NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), NodeId{0});
  for (NodeId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  std::vector<NodeId> parent(n);  // parent[i] = tree neighbor of perm[i]
  for (NodeId i = 1; i < n; ++i) parent[i] = perm[rng.below(i)];
  // Pass 1 replays a copy of the rng; pass 2 advances the caller's, so the
  // caller sees exactly one sampling's worth of draws and both passes emit
  // identical extra edges. Tree/sample duplicates dedup in finish().
  util::Rng replay = rng;
  auto emit_all = [&](util::Rng& r, auto&& edge) {
    for (NodeId i = 1; i < n; ++i) edge(parent[i], perm[i]);
    sample_pairs(n, p, r, edge);
  };
  GraphBuilder b(n);
  emit_all(replay, [&b](NodeId u, NodeId v) { b.count_edge(u, v); });
  b.finish_counting();
  emit_all(rng, [&b](NodeId u, NodeId v) { b.fill_edge(u, v); });
  return std::move(b).finish();
}

Graph random_bounded_diameter(NodeId n, unsigned max_diameter, util::Rng& rng) {
  double p = 2.0 * std::log(std::max<double>(n, 2)) / std::max<double>(n, 2);
  for (int attempt = 0; attempt < 200; ++attempt) {
    Graph g = random_connected(n, p, rng);
    if (diameter(g) <= max_diameter) return g;
    p = std::min(1.0, p * 1.3);
  }
  throw std::runtime_error("random_bounded_diameter: infeasible parameters");
}

Graph wheel(NodeId n) {
  if (n < 4) throw std::invalid_argument("wheel needs n >= 4");
  return stream_graph(n, [n](auto&& edge) {
    for (NodeId v = 1; v < n; ++v) {
      edge(0, v);
      edge(v, v + 1 < n ? v + 1 : 1);
    }
  });
}

Graph lollipop(NodeId head, NodeId tail) {
  if (head < 2) throw std::invalid_argument("lollipop needs head >= 2");
  return stream_graph(head + tail, [head, tail](auto&& edge) {
    for (NodeId a = 0; a < head; ++a)
      for (NodeId b = a + 1; b < head; ++b) edge(a, b);
    NodeId prev = head - 1;
    for (NodeId i = 0; i < tail; ++i) {
      edge(prev, head + i);
      prev = head + i;
    }
  });
}

Graph caterpillar(NodeId spine, NodeId legs) {
  if (spine < 1) throw std::invalid_argument("caterpillar needs spine >= 1");
  return stream_graph(spine * (1 + legs), [spine, legs](auto&& edge) {
    for (NodeId s = 0; s + 1 < spine; ++s) edge(s, s + 1);
    NodeId next = spine;
    for (NodeId s = 0; s < spine; ++s) {
      for (NodeId l = 0; l < legs; ++l) edge(s, next++);
    }
  });
}

Graph without_edges(const Graph& g,
                    const std::vector<std::pair<NodeId, NodeId>>& removed) {
  Graph h = g;
  // Preserve the historical lenient contract ("absent edges ignored"):
  // out-of-range endpoints and self-loops can never name a present edge, so
  // they are dropped here rather than tripping apply_delta's validation.
  std::vector<std::pair<NodeId, NodeId>> valid;
  valid.reserve(removed.size());
  for (const auto& e : removed) {
    if (e.first < g.num_nodes() && e.second < g.num_nodes() &&
        e.first != e.second) {
      valid.push_back(e);
    }
  }
  h.apply_delta({.remove = std::move(valid), .add = {}});
  return h;
}

Graph with_edges(const Graph& g,
                 const std::vector<std::pair<NodeId, NodeId>>& added) {
  Graph h = g;
  h.apply_delta({.remove = {}, .add = added});
  return h;
}

Graph damaged_clique(NodeId n, double drop_p, util::Rng& rng) {
  require_probability(drop_p, "damaged_clique");
  // Skip-sample the KEPT edges (probability 1 - drop_p) — still O(n + m),
  // and m ~ n^2 here only because the family is dense by design.
  const double keep_p = 1.0 - drop_p;
  for (int attempt = 0; attempt < 200; ++attempt) {
    util::Rng replay = rng;
    GraphBuilder b(n);
    sample_pairs(n, keep_p, replay,
                 [&b](NodeId u, NodeId v) { b.count_edge(u, v); });
    b.finish_counting();
    sample_pairs(n, keep_p, rng,
                 [&b](NodeId u, NodeId v) { b.fill_edge(u, v); });
    Graph g = std::move(b).finish();
    if (g.connected()) return g;
  }
  throw std::runtime_error("damaged_clique: drop probability too high");
}

}  // namespace ssau::graph
