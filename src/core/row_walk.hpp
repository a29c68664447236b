// One walk over a configuration's edges, shared by every graph-level
// legitimacy predicate (unison/au_invariants, the monitors, the baselines'
// and FailedAu's legitimate(), mis/alg_mis).
//
// A predicate takes its configuration in USER ids (Engine::config()) and
// the graph in whatever layout it has. check_configuration validates `c`
// once per call; layout_order hands `c` itself on an unreordered graph (no
// n-sized copy) and its permuted copy otherwise; for_each_upper_row then
// visits every edge {v, u} exactly once, as u in the tail of v's sorted CSR
// row above v, and stops after the first row that fails. Nothing here reads
// Graph::edges(), whose lazy O(n + m) pair list is rebuilt after every
// topology mutation.
#pragma once

#include <algorithm>
#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace ssau::core {

/// Throws std::invalid_argument, naming `who`, unless `c` holds exactly one
/// state per node of `g` and every state is below `state_count`. Returns the
/// largest state in `c` (0 when `g` has no nodes).
StateId check_configuration(const graph::Graph& g, const Configuration& c,
                            StateId state_count, const char* who);

/// `c` (user-id order) in g's layout order: `c` itself when the graph
/// carries no permutation, otherwise its permuted copy in `buffer`.
[[nodiscard]] const Configuration& layout_order(const graph::Graph& g,
                                                const Configuration& c,
                                                Configuration& buffer);

/// a, b in [0, m) lie within cyclic distance 1 mod m.
[[nodiscard]] inline bool cyclic_adjacent(StateId a, StateId b, StateId m) {
  const StateId d = a > b ? a - b : b - a;
  return d <= 1 || d == m - 1;
}

/// Calls row(v, upper) for v = 0, 1, … (layout ids), where `upper` is the
/// part of v's sorted row above v, so each edge is seen once. Returns false
/// as soon as `row` does, true when every row passed.
template <typename Row>
bool for_each_upper_row(const graph::Graph& g, Row&& row) {
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    const std::span<const NodeId> nb = g.neighbors(v);
    const NodeId* first = std::upper_bound(nb.data(), nb.data() + nb.size(), v);
    if (!row(v, std::span<const NodeId>(first, nb.data() + nb.size()))) {
      return false;
    }
  }
  return true;
}

/// True iff ok(c[v], c[u]) holds on every edge {v < u}; `c` is in layout
/// order. A row's tail is tested without branches, so `ok` should be cheap
/// and side-effect free.
template <typename EdgeOk>
bool all_edges(const graph::Graph& g, const Configuration& c, EdgeOk&& ok) {
  const StateId* q = c.data();
  return for_each_upper_row(g, [&](NodeId v, std::span<const NodeId> upper) {
    const StateId qv = q[v];
    unsigned bad = 0;
    for (const NodeId u : upper) bad |= ok(qv, q[u]) ? 0u : 1u;
    return bad == 0;
  });
}

}  // namespace ssau::core
