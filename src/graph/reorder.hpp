// Cache-aware node reordering — the locality half of the memory-system story.
//
// The engine's hot loops are gathers: neighborhood_mask / sense walk the
// state bytes of N+(v) for every activation, and on a randomly-labelled
// graph those reads land all over the configuration buffer — at 1M-10M
// nodes, one cache (and eventually TLB) miss per neighbor. Relabelling the
// nodes so that neighbors sit close in id space turns those gathers into
// near-sequential reads of a few cache lines. The permutation is applied at
// BUILD time (a fresh slack-pooled CSR laid out in the permuted id space by
// GraphBuilder::relabel), so the graph, every engine store indexed by node
// id, and the signal field all inherit the locality for free — kernels
// never see original ids.
//
// Policies:
//   * kBfs — BFS/RCM-style frontier order: components are visited from a
//     minimum-degree seed and nodes are numbered in BFS discovery order with
//     neighbors enqueued by ascending degree (the Cuthill-McKee visit rule;
//     profile-minimizing in the classic bandwidth sense). The right default:
//     neighbors end up within a frontier-width of each other.
//   * kDegree — stable sort by descending degree: hubs (and therefore the
//     bulk of all half-edge endpoints) pack into the first cache lines.
//     Cheaper to compute, weaker locality on flat-degree graphs; wins on
//     heavy-tailed ones.
//
// Both orders are serial, linear passes: the seeds come from one counting
// sort by degree (stable in id), and a frontier's unvisited neighbours sort
// as packed (degree << 32) | id keys. The relabel then runs by rows: slot
// offsets from the permuted degrees, and each new row is the sorted image
// of one old row, written once. No per-edge scatter runs, and no n-sized
// array beyond `perm` is held next to the two graphs.
//
// Everything here is deterministic: equal graphs yield equal permutations,
// whatever the thread count — reordering must never change a trajectory
// beyond the relabelling itself (the permutation-equivalence differential
// suite holds every engine path to that).
//
// None of these routines touch Graph::edges(): they walk neighbors() spans
// only, so reordering never triggers (or invalidates, or pays for) the lazy
// edge-list rebuild — tests/test_reorder.cpp pins edges_rebuild_count() == 0
// across the whole pipeline.
#pragma once

#include <cstdint>
#include <vector>

#include "graph/graph.hpp"

namespace ssau::graph {

/// Locality policy for reorder_permutation / reorder_graph.
enum class ReorderPolicy : std::uint8_t {
  kBfs = 0,    // BFS/RCM-style frontier order (the default choice)
  kDegree,     // stable descending-degree sort
};

/// Computes the locality permutation of `g` under `policy`, in the graph's
/// own (internal) id space: perm[v] is the new id of node v. Deterministic;
/// O(n + max_degree + m log max_degree) for kBfs, O(n + max_degree) for
/// kDegree.
[[nodiscard]] std::vector<NodeId> reorder_permutation(const Graph& g,
                                                      ReorderPolicy policy);

/// Builds the relabelled graph: node perm[v] of the result has exactly the
/// neighbors {perm[u] : u in g.neighbors(v)}, laid out as a fresh
/// slack-pooled CSR (GraphBuilder::relabel, row by row over the source's
/// neighbors() spans — its lazy edges() cache is never consulted). The
/// result carries the composed user<->internal permutation: if `g` was
/// itself already reordered, the new mapping composes on top of g's, so
/// user ids stay stable across repeated reorders. Throws
/// std::invalid_argument unless `perm` is an n-element permutation.
[[nodiscard]] Graph reorder_graph(const Graph& g,
                                  const std::vector<NodeId>& perm,
                                  GraphOptions options = {});

/// Convenience: reorder_graph(g, reorder_permutation(g, policy), options).
[[nodiscard]] Graph reorder_graph(const Graph& g, ReorderPolicy policy,
                                  GraphOptions options = {});

/// The locality metric the reorder-quality tests gate on: the mean |v - u|
/// over every directed half-edge (v, u) — the average distance, in node ids
/// (i.e. in configuration-buffer bytes for the compact store), between a
/// gather's base node and the slots it reads. 0.0 for an edgeless graph.
[[nodiscard]] double average_neighbor_distance(const Graph& g);

}  // namespace ssau::graph
