// Delta-maintained neighborhood senses — the signal-field layer.
//
// The SA signal of node v is pure set-membership over N+(v) (paper §1.1): v
// learns which states appear in its inclusive neighborhood, nothing more.
// That makes the signal *incrementally maintainable*: instead of rescanning
// N+(v) on every sense (O(deg(v)) per activation, the cost the serial
// per-activation engine path pays under every single-node daemon), a
// SignalField keeps, for every node, the multiset of states present in its
// inclusive neighborhood and patches it on each applied transition
// (v, q -> q') by updating only the counters of v and v's neighbors. A sense
// then reads v's own counters — no neighborhood scan, no scratch sort.
//
// Three representations, chosen once at construction by |Q| (and by n and
// the maximum degree, which bound the dense tables):
//
//   * node-major — |Q| <= 64, the engine's step_mask regime: saturating
//     16-bit counters counts[v * stride + q], each node's row contiguous and
//     padded to a multiple of 8 counters (stride = |Q| rounded up to 8), row
//     0 on a cache line. A patch is two counter updates in one row per
//     inclusive neighbor — one cache line per neighbor whenever the row
//     divides a line (stride 8, 16 or 32, so |Q| <= 16 or 25 <= |Q| <= 32,
//     AlgAu at D = 2 among them). No presence word is stored: mask_of
//     derives it at sense time, one SSE2 compare-with-zero and movemask per
//     8 counters (a scalar loop in builds without SSE2).
//   * state-major — 64 < |Q| <= 256, the step_set regime: a flat q-major
//     table counts[q * n + v] plus ceil(|Q| / 64) presence words per node,
//     maintained on every patch (deriving them at sense time would take up
//     to 32 vector compares per sense). The q-major layout keeps a patch's
//     two counter rows inside two n-sized stripes.
//   * sparse — |Q| > 256 (synchronizer product spaces), or tables over the
//     byte budget, or degrees that could saturate a counter: a compact
//     per-node sorted multiset (parallel keys/counts vectors), so memory
//     stays O(sum_v distinct(v)) instead of O(n * |Q|). A sense wraps the
//     keys span directly — still no per-sense sort.
//
// The field is engine infrastructure: core::Engine owns one when
// EngineOptions::signal_field routes the serial per-activation path through
// it, rebuilds it lazily after configuration injections, and patches it from
// applied updates (serial paths), per-shard transition logs (sharded
// kernels), or per-edge deltas on topology churn (apply_edge_insertion /
// apply_edge_removal — O(1) per edge, the two endpoints exchange presence of
// each other's current state). Invariant at every sense: the field equals a
// fresh rebuild from the current configuration ON the current graph, so
// field-sensed trajectories are bit-identical to rescan-sensed ones.
#pragma once

#include <cstdint>
#include <vector>

#include "core/signal_view.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"

namespace ssau::core {

/// One applied state transition of node v — the record the sharded kernels
/// log per shard and the batch patch entry consumes. `from`/`to` are taken
/// against the pre-step configuration (simultaneous updates: every
/// transition of one step reads the same C_t).
struct Transition {
  NodeId v;
  StateId from;
  StateId to;
};

class SignalField {
 public:
  /// Largest |Q| kept in a dense counter table (n * |Q| uint16 entries, |Q|
  /// rounded up to 8 in the node-major mode); beyond it the compact
  /// sorted-multiset representation takes over.
  static constexpr StateId kDenseStateLimit = 256;
  /// Hard budget for the dense counter table. |Q| alone does not bound the
  /// table — n does too — so graphs where n * |Q| counters would exceed
  /// this (counting the node-major padding) fall back to the sorted multiset
  /// (O(sum distinct) memory) even when |Q| <= kDenseStateLimit.
  static constexpr std::size_t kDenseMaxCounterBytes = std::size_t{64} << 20;
  /// Dense counters saturate here. A node's counter for one state is bounded
  /// by deg(v) + 1, so construction routes graphs whose max degree could
  /// reach the bound to the sparse representation — saturation is a
  /// defensive backstop, never hit on a dense-eligible graph.
  static constexpr std::uint16_t kSaturated = 0xFFFF;

  /// Builds the field for `g` over a state space of size `state_count` and
  /// initializes it from `initial` (one O(n + m) pass). The graph must
  /// outlive the field.
  SignalField(const graph::Graph& g, StateId state_count,
              const Configuration& initial);

  /// Re-initializes every counter and presence bit from `c` in one pass —
  /// the recovery path after an arbitrary configuration overwrite.
  void rebuild(const Configuration& c);

  /// Patches the field for one applied transition of node v from state
  /// `from` to state `to`: only the rows of v and v's neighbors are touched
  /// (O(deg(v))). Deltas commute, so a batch of same-step transitions may be
  /// applied in any order as long as each (from, to) pair is taken from the
  /// pre-step configuration.
  void apply_transition(NodeId v, StateId from, StateId to);

  /// Patches the field for one shard's transition log in log order — the
  /// batch entry the parallel kernels' merge phase drains per-shard logs
  /// through (shard-index order outside, log order inside = serial
  /// iteration order, the deterministic merge the engine's bit-identity
  /// rests on). Equivalent to apply_transition per record; one call site
  /// instead of an interleaved loop at every kernel.
  void apply_transitions(const Transition* transitions, std::size_t count);

  /// Patches the field for one edge insertion {u, v} already applied to the
  /// graph: u gains qv (= v's current state) in its multiset and v gains qu —
  /// O(1), no neighborhood scan (the topology-churn analogue of
  /// apply_transition). The caller passes the two current states directly so
  /// the engine's compact configuration storage never has to materialize a
  /// wide buffer for a churn event.
  void apply_edge_insertion(NodeId u, NodeId v, StateId qu, StateId qv);

  /// Patches the field for one edge removal {u, v}: u loses qv, v loses qu.
  /// Same contract as apply_edge_insertion.
  void apply_edge_removal(NodeId u, NodeId v, StateId qu, StateId qv);

  /// The 64-bit presence mask of N+(v) — the exact signal encoding the
  /// engine's step_mask kernels consume — derived from v's node-major
  /// counter row. Only meaningful when mask_exact(). Out of line, which keeps
  /// the SSE2 intrinsics out of this header: forced inline into the
  /// engine's step it measured no faster on recover-clique.
  [[nodiscard]] std::uint64_t mask_of(NodeId v) const;

  /// True iff mask_of() is the complete signal (|Q| <= 64, node-major).
  [[nodiscard]] bool mask_exact() const { return layout_ == Layout::kNodeMajor; }

  /// The exact presence set of N+(v) — the engine's step_set input.
  /// Node-major mode derives word 0 (mask_of), state-major mode hands over
  /// the node's <= 4 presence words, sparse mode ORs its sorted keys in.
  /// Requires |Q| <= StateSet::kBits.
  [[nodiscard]] StateSet set_of(NodeId v) const;

  /// The signal of node v as a zero-copy sorted view. The dense modes unpack
  /// the presence words into `scratch` (O(distinct)); sparse mode wraps the
  /// node's keys span directly. The view is invalidated by the next sense
  /// into the same scratch and by any apply_transition/rebuild.
  [[nodiscard]] SignalView sense(NodeId v, std::vector<StateId>& scratch) const;

  /// True when a flat counter table is in use (vs the sorted multiset).
  [[nodiscard]] bool dense() const { return layout_ != Layout::kSparse; }

  /// Multiplicity of state q in N+(v) — observability for tests.
  [[nodiscard]] std::uint32_t count_of(NodeId v, StateId q) const;

  /// Heap bytes owned by the field (counter table, plus the presence words
  /// of the state-major mode, or the per-node multisets) — see
  /// util/memusage.hpp for the contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const;

 private:
  enum class Layout : std::uint8_t { kNodeMajor, kStateMajor, kSparse };

  /// Row 0 sits at most one 64-byte line into the node-major table, which
  /// is over-allocated by that many counters.
  static constexpr std::size_t kLineCounters = 64 / sizeof(std::uint16_t);

  /// Node v's node-major counter row (stride_ counters).
  [[nodiscard]] std::uint16_t* row(NodeId v) {
    return counts_.data() + origin_ + static_cast<std::size_t>(v) * stride_;
  }
  [[nodiscard]] const std::uint16_t* row(NodeId v) const {
    return counts_.data() + origin_ + static_cast<std::size_t>(v) * stride_;
  }
  void bump(NodeId v, StateId q);  // increment q's multiplicity at v
  void drop(NodeId v, StateId q);  // decrement q's multiplicity at v

  const graph::Graph& graph_;
  NodeId n_;
  StateId state_count_;
  Layout layout_;
  StateId stride_ = 0;      // node-major: counters per row, |Q| rounded up to 8
  std::size_t origin_ = 0;  // node-major: index of row 0 (line-aligned)
  StateId mask_words_ = 0;  // state-major: presence words per node

  // Node-major: counts_[origin_ + v * stride_ + q]. State-major:
  // counts_[q * n + v], with presence bit q of node v in
  // masks_[v * mask_words_ + q / 64].
  std::vector<std::uint16_t> counts_;
  std::vector<std::uint64_t> masks_;

  // Sparse: per-node sorted multiset as parallel vectors (keys ascending).
  std::vector<std::vector<StateId>> keys_;
  std::vector<std::vector<std::uint32_t>> key_counts_;
};

/// The presence mask of one node-major counter row: bit q set iff
/// row[q] != 0, for q < `stride` (a multiple of 8, at most 64). Two
/// definitions that the tests pin equal: the portable scalar loop, and the
/// SSE2 one (compare with zero, then movemask) that mask_of uses wherever the
/// build has SSE2 (every x86-64 build).
[[nodiscard]] std::uint64_t presence_mask_scalar(const std::uint16_t* row,
                                                 StateId stride);
#if defined(__SSE2__)
[[nodiscard]] std::uint64_t presence_mask_sse2(const std::uint16_t* row,
                                               StateId stride);
#endif

}  // namespace ssau::core
