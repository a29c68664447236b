#include "unison/au_invariants.hpp"

#include <limits>
#include <queue>

namespace ssau::unison {

namespace {

/// graph_protected on a validated, layout-order `c`: every edge's clocks
/// within cyclic distance 1 mod 2k. With no faulty turn the ids themselves
/// are the clocks rotated by k.
bool all_edges_protected(const TurnSystem& ts, const graph::Graph& g,
                         const core::Configuration& c, bool all_able) {
  const auto m = static_cast<core::StateId>(2 * ts.k());
  if (all_able) {
    return core::all_edges(g, c, [m](core::StateId a, core::StateId b) {
      return core::cyclic_adjacent(a, b, m);
    });
  }
  return core::all_edges(g, c, [&](core::StateId a, core::StateId b) {
    return core::cyclic_adjacent(ts.clock_of(a), ts.clock_of(b), m);
  });
}

/// Per-node "protected" flags of a validated, layout-order `c`.
std::vector<std::uint8_t> protected_flags(const TurnSystem& ts,
                                          const graph::Graph& g,
                                          const core::Configuration& c) {
  const auto m = static_cast<core::StateId>(2 * ts.k());
  std::vector<std::uint8_t> flags(g.num_nodes(), 1);
  core::for_each_upper_row(
      g, [&](core::NodeId v, std::span<const core::NodeId> upper) {
        const int kv = ts.clock_of(c[v]);
        for (const core::NodeId u : upper) {
          if (!core::cyclic_adjacent(kv, ts.clock_of(c[u]), m)) {
            flags[v] = flags[u] = 0;
          }
        }
        return true;
      });
  return flags;
}

}  // namespace

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

bool graph_protected(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& user_c) {
  const core::StateId max = core::check_configuration(
      g, user_c, ts.state_count(), "graph_protected");
  core::Configuration buffer;
  return all_edges_protected(ts, g, layout_order(g, user_c, buffer),
                             ts.is_able(max));
}

bool graph_good(const TurnSystem& ts, const graph::Graph& g,
                const core::Configuration& user_c) {
  const core::StateId max = core::check_configuration(
      g, user_c, ts.state_count(), "graph_good");
  if (!ts.is_able(max)) return false;
  core::Configuration buffer;
  return all_edges_protected(ts, g, layout_order(g, user_c, buffer), true);
}

bool graph_out_protected(const TurnSystem& ts, const graph::Graph& g,
                         const core::Configuration& user_c) {
  core::check_configuration(g, user_c, ts.state_count(), "graph_out_protected");
  core::Configuration buffer;
  return core::all_edges(g, layout_order(g, user_c, buffer),
                         [&](core::StateId a, core::StateId b) {
                           const Level la = ts.level_of(a);
                           const Level lb = ts.level_of(b);
                           return !ts.far_outwards(la, lb) &&
                                  !ts.far_outwards(lb, la);
                         });
}

bool graph_l_out_protected(const TurnSystem& ts, const graph::Graph& g,
                           const core::Configuration& user_c, Level l) {
  core::check_configuration(g, user_c, ts.state_count(),
                            "graph_l_out_protected");
  core::Configuration buffer;
  // Edge {a, b} breaks the predicate iff one end lies in Ψ≥(ℓ) and the
  // other is far outwards of it.
  return core::all_edges(g, layout_order(g, user_c, buffer),
                         [&](core::StateId a, core::StateId b) {
                           const Level la = ts.level_of(a);
                           const Level lb = ts.level_of(b);
                           return !(ts.weakly_outwards(la, l) &&
                                    ts.far_outwards(lb, la)) &&
                                  !(ts.weakly_outwards(lb, l) &&
                                    ts.far_outwards(la, lb));
                         });
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
  // Only faulty nodes can be unjustified: without one, no row is read.
  const core::StateId max = core::check_configuration(
      g, user_c, ts.state_count(), "graph_justified");
  if (ts.is_able(max)) return true;
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v]) && !justifiably_faulty(ts, g, c, v)) return false;
  }
  return true;
}

std::vector<bool> grounded_nodes(const TurnSystem& ts, const graph::Graph& g,
                                 const core::Configuration& user_c) {
  core::check_configuration(g, user_c, ts.state_count(), "grounded_nodes");
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  const core::NodeId n = g.num_nodes();
  const std::vector<std::uint8_t> is_protected = protected_flags(ts, g, c);
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
