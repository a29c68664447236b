#include "unison/au_invariants.hpp"

#include <limits>
#include <queue>

namespace ssau::unison {

std::vector<Level> levels_of(const TurnSystem& ts,
                             const core::Configuration& c) {
  std::vector<Level> l(c.size());
  for (std::size_t v = 0; v < c.size(); ++v) l[v] = ts.level_of(c[v]);
  return l;
}

bool edge_protected(const TurnSystem& ts, const core::Configuration& c,
                    core::NodeId u, core::NodeId v) {
  return ts.adjacent(ts.level_of(c[u]), ts.level_of(c[v]));
}

bool node_protected(const TurnSystem& ts, const graph::Graph& g,
                    const core::Configuration& c, core::NodeId v) {
  for (const core::NodeId u : g.neighbors(v)) {
    if (!edge_protected(ts, c, u, v)) return false;
  }
  return true;
}

bool node_good(const TurnSystem& ts, const graph::Graph& g,
               const core::Configuration& c, core::NodeId v) {
  if (!node_protected(ts, g, c, v)) return false;
  if (ts.is_faulty(c[v])) return false;
  for (const core::NodeId u : g.neighbors(v)) {
    if (ts.is_faulty(c[u])) return false;
  }
  return true;
}

bool node_out_protected(const TurnSystem& ts, const graph::Graph& g,
                        const core::Configuration& c, core::NodeId v) {
  const Level lv = ts.level_of(c[v]);
  for (const core::NodeId u : g.neighbors(v)) {
    if (ts.far_outwards(ts.level_of(c[u]), lv)) return false;
  }
  return true;
}

const core::Configuration& layout_order(const graph::Graph& g,
                                        const core::Configuration& c,
                                        core::Configuration& buffer) {
  if (!g.reordered()) return c;
  buffer.resize(c.size());
  for (core::NodeId i = 0; i < g.num_nodes(); ++i) buffer[i] = c[g.to_user(i)];
  return buffer;
}

bool graph_protected(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& user_c) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  for (const auto& [u, v] : g.edges()) {
    if (!edge_protected(ts, c, u, v)) return false;
  }
  return true;
}

bool graph_good(const TurnSystem& ts, const graph::Graph& g,
                const core::Configuration& c) {
  for (const core::StateId q : c) {
    if (ts.is_faulty(q)) return false;
  }
  return graph_protected(ts, g, c);
}

bool graph_out_protected(const TurnSystem& ts, const graph::Graph& g,
                         const core::Configuration& user_c) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!node_out_protected(ts, g, c, v)) return false;
  }
  return true;
}

bool graph_l_out_protected(const TurnSystem& ts, const graph::Graph& g,
                           const core::Configuration& user_c, Level l) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.weakly_outwards(ts.level_of(c[v]), l) &&
        !node_out_protected(ts, g, c, v)) {
      return false;
    }
  }
  return true;
}

bool justifiably_faulty(const TurnSystem& ts, const graph::Graph& g,
                        const core::Configuration& c, core::NodeId v) {
  if (!ts.is_faulty(c[v])) return false;
  if (!node_protected(ts, g, c, v)) return true;
  const Level inward = ts.outwards(ts.level_of(c[v]), -1);
  if (!ts.has_faulty(inward)) return false;
  const core::StateId want = ts.faulty_id(inward);
  for (const core::NodeId u : g.neighbors(v)) {
    if (c[u] == want) return true;
  }
  return false;
}

bool graph_justified(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& user_c) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v]) && !justifiably_faulty(ts, g, c, v)) return false;
  }
  return true;
}

std::vector<bool> grounded_nodes(const TurnSystem& ts, const graph::Graph& g,
                                 const core::Configuration& user_c) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  const core::NodeId n = g.num_nodes();
  std::vector<bool> is_protected(n);
  for (core::NodeId v = 0; v < n; ++v) {
    is_protected[v] = node_protected(ts, g, c, v);
  }
  // Multi-source BFS of depth D inside the protected-induced subgraph from
  // protected nodes at level ±1.
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> depth(n, kUnreached);
  std::queue<core::NodeId> frontier;
  for (core::NodeId v = 0; v < n; ++v) {
    const Level l = ts.level_of(c[v]);
    if (is_protected[v] && (l == 1 || l == -1)) {
      depth[v] = 0;
      frontier.push(v);
    }
  }
  const auto max_depth = static_cast<std::uint32_t>(ts.diameter_bound());
  while (!frontier.empty()) {
    const core::NodeId v = frontier.front();
    frontier.pop();
    if (depth[v] == max_depth) continue;
    for (const core::NodeId u : g.neighbors(v)) {
      if (is_protected[u] && depth[u] == kUnreached) {
        depth[u] = depth[v] + 1;
        frontier.push(u);
      }
    }
  }
  std::vector<bool> grounded(n, false);
  for (core::NodeId v = 0; v < n; ++v) {
    grounded[g.to_user(v)] = depth[v] != kUnreached;
  }
  return grounded;
}

bool node_grounded(const TurnSystem& ts, const graph::Graph& g,
                   const core::Configuration& c, core::NodeId v) {
  return grounded_nodes(ts, g, c)[v];
}

bool au_safety_holds(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& c) {
  return graph_protected(ts, g, c);
}

}  // namespace ssau::unison
