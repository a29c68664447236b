// Finite undirected graphs — the topology substrate of the SA model.
//
// Nodes are anonymous in the algorithms; node ids here exist purely for the
// simulator's bookkeeping (the algorithms never see them). Adjacency is stored
// CSR-style for cache-friendly neighborhood scans, which dominate engine time.
//
// Topology is DYNAMIC (paper §1: "environmental obstacles may disconnect
// (permanently or temporarily) some links"): the node set is fixed at
// construction, but edges can churn mid-run through apply_delta() /
// add_edge() / remove_edge() in amortized O(deg(endpoint)) per edge — no
// rebuild. The representation is a CSR pool with per-node slack capacity:
//   * neighbors(v) is ALWAYS one contiguous sorted span (the hot kernels'
//     contract) backed by node v's slot [pos_[v], pos_[v] + deg_[v]) of a
//     shared pool, with cap_[v] >= deg_[v] reserved slots;
//   * a removal shifts v's slot left in place (the freed slot becomes slack);
//   * an insertion shifts right into slack, or — when the slot is full —
//     relocates the slot to fresh space at the pool's end with doubled
//     capacity (amortized O(1) relocations per insertion);
//   * abandoned slots are reclaimed by an amortized whole-pool recompaction
//     once they dominate the pool, so memory stays O(m + n).
// max_degree()/avg_degree()/num_edges() are maintained incrementally (a
// degree histogram makes the max O(1) amortized under removals); edges() is
// re-materialized lazily after a mutation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace ssau::graph {

using NodeId = std::uint32_t;

/// How far ahead a walk prefetches rows, in queue slots for a BFS and in
/// node ids for a sequential pass (see Graph::prefetch_neighbors).
inline constexpr std::size_t kRowPrefetchDistance = 4;

/// Cache hint: the line at `addr` is about to be read (or, with kForWrite,
/// written). A no-op where the compiler has no prefetch builtin.
template <bool kForWrite = false>
inline void prefetch(const void* addr) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(addr, /*rw=*/kForWrite ? 1 : 0, /*locality=*/1);
#else
  static_cast<void>(addr);
#endif
}

/// A batch of edge edits — the unit of topology churn. Removals are applied
/// before insertions; edges absent from the graph are ignored by removal and
/// already-present edges are ignored by insertion, so a delta is always
/// applicable (only out-of-range endpoints and self-loops throw).
struct TopologyDelta {
  std::vector<std::pair<NodeId, NodeId>> remove;
  std::vector<std::pair<NodeId, NodeId>> add;

  [[nodiscard]] bool empty() const { return remove.empty() && add.empty(); }

  /// The healing delta: re-adds what this one removed and vice versa.
  /// Inverts an *effective* delta exactly (applying d then d.inverse() is a
  /// net no-op on the edge set).
  [[nodiscard]] TopologyDelta inverse() const { return {add, remove}; }
};

/// Construction-time layout policy for the slack-pooled CSR.
struct GraphOptions {
  /// Per-node slot headroom as a fraction of the node's degree: cap(v) =
  /// deg(v) + ceil(slack * deg(v)). 0 (the default) lays slots out
  /// back-to-back — the right choice for static topologies, where every
  /// reserved-but-unused entry is pure waste. Churn-heavy runs can pre-buy
  /// headroom here so early insertions extend slots in place instead of
  /// relocating them to the pool's end.
  double slack = 0.0;
};

/// An undirected simple graph over a fixed node set with a mutable edge set.
class Graph {
 public:
  /// Builds from an edge list over nodes [0, n). Throws std::invalid_argument
  /// on out-of-range endpoints or self-loops; parallel edges are deduplicated.
  Graph(NodeId n, std::vector<std::pair<NodeId, NodeId>> edges);

  [[nodiscard]] NodeId num_nodes() const { return n_; }
  [[nodiscard]] std::size_t num_edges() const { return num_edges_; }

  /// Neighbors of v (excluding v itself), sorted ascending — always one
  /// contiguous span. Invalidated by any mutation (apply_delta, add_edge,
  /// remove_edge): mutations may relocate or recompact the backing pool.
  [[nodiscard]] std::span<const NodeId> neighbors(NodeId v) const {
    return {pool_.data() + pos_[v], deg_[v]};
  }

  [[nodiscard]] std::size_t degree(NodeId v) const { return deg_[v]; }

  /// Cache hint for an upcoming neighbors(v) read. Queue-driven walks (BFS,
  /// the reorder's frontier) issue it kRowPrefetchDistance slots ahead, so
  /// the row's first line is on its way while the current row is scanned.
  void prefetch_neighbors(NodeId v) const { prefetch(pool_.data() + pos_[v]); }

  /// Largest degree over all nodes (0 for an edgeless graph), maintained
  /// incrementally across mutations — consumers (engine scratch sizing,
  /// signal-field routing, shard balancing diagnostics) must not rescan.
  [[nodiscard]] std::size_t max_degree() const { return max_degree_; }

  /// Mean degree 2|E| / n (0.0 for the empty graph), maintained across
  /// mutations. The signal-field routing heuristic keys off this: delta
  /// maintenance only beats a rescan when neighborhoods are non-trivial.
  [[nodiscard]] double avg_degree() const { return avg_degree_; }

  /// The deduplicated edge list, sorted ascending with u < v per edge.
  /// Re-materialized lazily after a mutation (O(n + m) on the first call,
  /// cached until the next mutation) — NOT safe to call concurrently with
  /// itself right after a mutation; the engine hot paths never read it, and
  /// the snapshot serializer and the legitimacy predicates
  /// (core/row_walk.hpp) walk the CSR slots via neighbors() instead (see
  /// debug_forbid_lazy_edges).
  [[nodiscard]] std::span<const std::pair<NodeId, NodeId>> edges() const;

  /// Debug guard for code that must never trigger the lazy edges() rebuild
  /// (the snapshot serializer, which may run while other threads read the
  /// graph): while set, an edges() call that finds the cache dirty asserts
  /// in debug builds instead of silently re-materializing. No-op under
  /// NDEBUG. Const because it guards a const method on a logically-const
  /// graph.
  void debug_forbid_lazy_edges(bool forbid) const {
    edges_rebuild_forbidden_ = forbid;
  }

  [[nodiscard]] bool has_edge(NodeId u, NodeId v) const;

  /// True if the graph is connected (vacuously true for n <= 1).
  [[nodiscard]] bool connected() const;

  // --- topology churn --------------------------------------------------------

  /// Applies a batch of edge edits in place: every removal, then every
  /// insertion, each in amortized O(deg(endpoint)) — never an O(n + m)
  /// rebuild. Returns the EFFECTIVE delta: the normalized (u < v,
  /// deduplicated) edits that actually changed the graph, in application
  /// order — what incremental consumers (the engine's signal field) must be
  /// patched with. Throws std::invalid_argument on out-of-range endpoints or
  /// self-loops, before any edit is applied.
  TopologyDelta apply_delta(const TopologyDelta& delta);

  /// Inserts {u, v}; returns false (and changes nothing) when already
  /// present. Throws like apply_delta on an invalid endpoint pair.
  bool add_edge(NodeId u, NodeId v);

  /// Removes {u, v}; returns false (and changes nothing) when absent.
  /// Throws like apply_delta on an invalid endpoint pair.
  bool remove_edge(NodeId u, NodeId v);

  // --- locality / reordering -------------------------------------------------
  // graph::reorder (graph/reorder.hpp) relabels nodes so neighbors sit close
  // in id space and rebuilds the CSR in the permuted order. A reordered
  // graph carries its user<->internal bijection: ids in the public
  // simulation API (engine queries, listeners, injected configurations,
  // topology deltas, snapshot node ids) stay in USER space and are
  // translated at the engine boundary — Graph itself, and every kernel
  // above it, always speaks internal (layout) ids. These accessors never
  // touch the lazy edges() cache.

  /// True when a reorder permutation is attached (identity-layout graphs
  /// carry no arrays and pay nothing).
  [[nodiscard]] bool reordered() const { return !to_internal_.empty(); }

  /// user id -> internal (layout) id; identity when !reordered().
  [[nodiscard]] NodeId to_internal(NodeId u) const {
    return to_internal_.empty() ? u : to_internal_[u];
  }

  /// internal (layout) id -> user id; identity when !reordered().
  [[nodiscard]] NodeId to_user(NodeId i) const {
    return to_user_.empty() ? i : to_user_[i];
  }

  /// The full user->internal map (empty span = identity layout).
  [[nodiscard]] std::span<const NodeId> permutation() const {
    return to_internal_;
  }
  /// The full internal->user map (empty span = identity layout).
  [[nodiscard]] std::span<const NodeId> inverse_permutation() const {
    return to_user_;
  }

  /// Attaches the layout provenance of a reordered graph: `to_internal`
  /// maps user ids to this graph's layout ids and `to_user` is its exact
  /// inverse. Both must be n-element mutually-inverse bijections — or both
  /// empty, which clears back to the identity layout. Throws
  /// std::invalid_argument otherwise. Touches neither the adjacency nor the
  /// lazy edges() cache (the cached edge list is in internal ids and stays
  /// valid).
  void attach_permutation(std::vector<NodeId> to_internal,
                          std::vector<NodeId> to_user);

  // --- footprint --------------------------------------------------------------

  /// Recompacts the CSR to zero per-slot slack, releases every vector's
  /// reserved tail, and drops the lazy edges() cache (rebuilt on the next
  /// edges() call). The post-churn / post-build "this topology is now
  /// static" squeeze — afterwards the graph holds exactly its live CSR.
  void shrink_to_fit();

  /// Times the lazy edges() cache has been re-materialized over this graph's
  /// lifetime — the release-build observable behind debug_forbid_lazy_edges
  /// (whose assert compiles out under NDEBUG). Scale smoke tests pin this to
  /// 0 across the bench/engine/snapshot path.
  [[nodiscard]] std::uint64_t edges_rebuild_count() const {
    return edges_rebuilds_;
  }

  /// Heap bytes owned by the graph (CSR arrays, degree histogram, lazy edge
  /// cache) — see util/memusage.hpp for the accounting contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const;

 private:
  friend class GraphBuilder;
  /// Builder back door: an empty shell GraphBuilder::finish() moves the
  /// already-laid-out CSR members into.
  explicit Graph(NodeId n) : n_(n) {}
  void validate_edge(NodeId u, NodeId v) const;
  void insert_half_edge(NodeId u, NodeId w);  // add w to u's sorted slot
  void remove_half_edge(NodeId u, NodeId w);  // drop w from u's sorted slot
  void bump_degree(NodeId u, bool up);        // histogram + max upkeep
  void recompact_if_bloated();
  void recompact();

  NodeId n_;
  std::size_t num_edges_ = 0;
  std::size_t max_degree_ = 0;
  double avg_degree_ = 0.0;

  // Slack-pooled CSR: node v's neighbors live in pool_[pos_[v], pos_[v] +
  // deg_[v]), sorted, inside a slot of cap_[v] reserved entries. dead_
  // counts pool entries belonging to no slot (abandoned by relocation).
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> deg_;
  std::vector<std::uint32_t> cap_;
  std::vector<NodeId> pool_;
  std::size_t dead_ = 0;

  // hist_[d] = number of nodes of degree d; drives O(1)-amortized
  // max_degree_ maintenance under removals.
  std::vector<std::uint32_t> hist_;

  // Reorder provenance (see the locality section above): user id ->
  // internal layout id and its inverse. Both empty on identity-layout
  // graphs — the common case pays no memory.
  std::vector<NodeId> to_internal_;
  std::vector<NodeId> to_user_;

  // Lazily re-materialized after mutations; see edges().
  mutable std::vector<std::pair<NodeId, NodeId>> edges_cache_;
  mutable bool edges_dirty_ = false;
  // Release-safe audit counter: lazy rebuilds performed (edges_rebuild_count).
  mutable std::uint64_t edges_rebuilds_ = 0;
  // Debug tripwire (debug_forbid_lazy_edges): asserts if edges() would
  // rebuild a dirty cache while a serializer holds the graph.
  mutable bool edges_rebuild_forbidden_ = false;
};

/// Two-pass streaming construction straight into the slack-pooled CSR —
/// the million-node path. The EdgeList constructor materializes an
/// intermediate vector<pair> (16 bytes per edge, sorted and deduplicated
/// globally) before laying out the pool; the builder never does. Instead the
/// caller emits every edge twice:
///
///   GraphBuilder b(n, opts);
///   for (edge : ...) b.count_edge(u, v);   // pass 1: degree counting
///   b.finish_counting();                   // slot layout (slack policy)
///   for (edge : ...) b.fill_edge(u, v);    // pass 2: fill, same edges
///   Graph g = std::move(b).finish();       // per-slot sort + dedup
///
/// The two passes must emit the same multiset of edges (generators replay a
/// copied rng). Duplicate emissions are deduplicated per slot in finish();
/// the shrunk entries become in-slot slack, never a layout error. Peak
/// memory is the final CSR plus the builder's own O(n) cursor array — the
/// edge stream itself is never stored. The built graph starts with a dirty
/// (empty) edges() cache: paths that are forbidden from materializing it
/// (see debug_forbid_lazy_edges) never pay for one.
class GraphBuilder {
 public:
  explicit GraphBuilder(NodeId n, GraphOptions options = {});

  /// Pass 1: counts {u, v} toward both endpoint degrees. Validates like the
  /// Graph constructor (throws std::invalid_argument on out-of-range
  /// endpoints or self-loops, before any state changes).
  void count_edge(NodeId u, NodeId v);

  /// Lays out the CSR slots from the counted degrees under the slack policy.
  /// Must be called exactly once, between the two passes.
  void finish_counting();

  /// Pass 2: writes both half-edges into their slots. The emitted multiset
  /// must match pass 1's (checked: overflowing a counted slot throws
  /// std::logic_error).
  void fill_edge(NodeId u, NodeId v);

  /// Sorts each slot, deduplicates parallel edges, computes the degree
  /// histogram / max / avg, and returns the finished graph. The builder is
  /// consumed.
  [[nodiscard]] Graph finish() &&;

  /// Row-wise relabel of a finished graph: node perm[v] of the result has
  /// exactly the neighbours {perm[u] : u in g.neighbors(v)}. Slot offsets
  /// come from the permuted degrees (laid out under `options` like a
  /// two-pass build), each new row is the sorted image of one old row,
  /// written once, and no per-edge scatter runs. Reads only
  /// g.neighbors() spans, never g.edges(). The result carries no
  /// user<->internal maps (reorder_graph attaches them). Throws
  /// std::invalid_argument unless `perm` is an n-element permutation.
  [[nodiscard]] static Graph relabel(const Graph& g,
                                     std::span<const NodeId> perm,
                                     GraphOptions options = {});

 private:
  enum class Phase : std::uint8_t { kCounting, kFilling, kDone };

  /// Moves the filled slots (sorted, duplicate-free, deg_ = row lengths)
  /// into a Graph and computes its degree statistics.
  [[nodiscard]] Graph take() &&;

  NodeId n_;
  GraphOptions options_;
  Phase phase_ = Phase::kCounting;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint32_t> deg_;  // counting: degree counts; filling: cursor
  std::vector<std::uint32_t> cap_;
  std::vector<NodeId> pool_;
};

}  // namespace ssau::graph
