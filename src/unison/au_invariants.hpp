// Configuration predicates from the analysis of AlgAU (paper §2.3).
//
// These implement the definitions the proofs revolve around: protected
// edges/nodes, good nodes, out-protected nodes, ℓ-out-protected graphs,
// justifiably/unjustifiably faulty nodes, and grounded nodes. The property
// tests replay Observations 2.1–2.9 and Lemmas 2.10/2.16 against random
// executions; the monitors use "graph good" as the stabilization criterion
// (Lem 2.10/2.11/2.18 establish that good ⟹ stabilized).
//
// Id spaces: the graph-level predicates (graph_*, grounded_nodes,
// au_safety_holds, measure_potential) take `c` in USER ids, as
// Engine::config() returns it, and any graph, reordered or not; the result
// of grounded_nodes is indexed by user id too. The node- and edge-level
// predicates index `c` with node ids in the graph's own id space; on an
// unreordered graph both spaces coincide.
//
// The walk (core/row_walk.hpp): each graph-level predicate validates `c`
// once, reads it in layout order (`c` itself on an unreordered graph, one
// permuted copy otherwise) and visits every edge once, as the tail of its
// lower endpoint's sorted CSR row, stopping after the first row that
// fails; the graph's lazy edge list is never read. An edge test is
// arithmetic on state ids (TurnSystem::clock_of, core::cyclic_adjacent): once
// graph_good has found no faulty turn, an edge is protected iff its two
// ids lie within cyclic distance 1 mod 2k. Cost: O(n) for the validation
// plus O(m) for the walk (O(n) more for the copy on a reordered graph);
// graph_justified reads only the rows of faulty nodes.
//
// Errors: every graph-level predicate throws std::invalid_argument when
// `c` does not hold exactly one state per node of `g`, or holds a state
// >= |Q|, whatever its verdict would have been.
#pragma once

#include <vector>

#include "core/engine.hpp"
#include "core/row_walk.hpp"
#include "graph/graph.hpp"
#include "unison/alg_au.hpp"

namespace ssau::unison {

/// `c` (user-id order) in the graph's layout order: `c` itself when the
/// graph carries no permutation, otherwise its permuted copy in `buffer`.
using core::layout_order;

/// λ_v for every node.
[[nodiscard]] std::vector<Level> levels_of(const TurnSystem& ts,
                                           const core::Configuration& c);

/// Edge (u,v) is protected iff λ_u and λ_v are adjacent.
[[nodiscard]] bool edge_protected(const TurnSystem& ts,
                                  const core::Configuration& c,
                                  core::NodeId u, core::NodeId v);

/// Node v is protected iff all incident edges are protected.
[[nodiscard]] bool node_protected(const TurnSystem& ts, const graph::Graph& g,
                                  const core::Configuration& c,
                                  core::NodeId v);

/// Node v is good iff protected and sensing no faulty turn in N+(v).
[[nodiscard]] bool node_good(const TurnSystem& ts, const graph::Graph& g,
                             const core::Configuration& c, core::NodeId v);

/// Node v is out-protected iff Λ_v ∩ Ψ≫(λ_v) = ∅ (no sensed level more than
/// one unit outwards of its own, same sign).
[[nodiscard]] bool node_out_protected(const TurnSystem& ts,
                                      const graph::Graph& g,
                                      const core::Configuration& c,
                                      core::NodeId v);

[[nodiscard]] bool graph_protected(const TurnSystem& ts, const graph::Graph& g,
                                   const core::Configuration& c);
[[nodiscard]] bool graph_good(const TurnSystem& ts, const graph::Graph& g,
                              const core::Configuration& c);
[[nodiscard]] bool graph_out_protected(const TurnSystem& ts,
                                       const graph::Graph& g,
                                       const core::Configuration& c);

/// The graph is ℓ-out-protected iff every node whose level lies in Ψ≥(ℓ) is
/// out-protected.
[[nodiscard]] bool graph_l_out_protected(const TurnSystem& ts,
                                         const graph::Graph& g,
                                         const core::Configuration& c,
                                         Level l);

/// A faulty node v (turn ℓ̂) is justifiably faulty iff it is unprotected or
/// has a neighbor in turn ψ̂−1(ℓ). (Only meaningful for faulty v.)
[[nodiscard]] bool justifiably_faulty(const TurnSystem& ts,
                                      const graph::Graph& g,
                                      const core::Configuration& c,
                                      core::NodeId v);

/// No unjustifiably faulty nodes.
[[nodiscard]] bool graph_justified(const TurnSystem& ts, const graph::Graph& g,
                                   const core::Configuration& c);

/// Node v is grounded iff it lies on a path of length <= D, entirely within
/// protected nodes, one endpoint of which has level in {−1, 1}. `v` is a
/// user id (it indexes grounded_nodes).
[[nodiscard]] bool node_grounded(const TurnSystem& ts, const graph::Graph& g,
                                 const core::Configuration& c, core::NodeId v);

/// Grounded flags for all nodes in one pass (BFS over the protected-node
/// induced subgraph from protected ±1 sources, depth D), indexed by user id.
[[nodiscard]] std::vector<bool> grounded_nodes(const TurnSystem& ts,
                                               const graph::Graph& g,
                                               const core::Configuration& c);

/// AU safety over output values: every edge has adjacent clock values. For
/// configurations with faulty (non-output) turns this checks level adjacency
/// all the same (the paper's protection predicate).
[[nodiscard]] bool au_safety_holds(const TurnSystem& ts, const graph::Graph& g,
                                   const core::Configuration& c);

}  // namespace ssau::unison
