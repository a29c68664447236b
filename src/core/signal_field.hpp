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
// then collapses to an O(1) presence-mask lookup (or an O(distinct) span in
// the sparse representation) — no neighborhood scan, no scratch sort.
//
// Two representations, chosen once at construction:
//
//   * dense — |Q| <= kDenseStateLimit and max_degree + 1 below the 16-bit
//     saturation bound: a flat q-major counter table
//     counts[q * n + v] = multiplicity of q in N+(v), with saturating 16-bit
//     counters, plus a per-node presence bitmap of ceil(|Q| / 64) words
//     (exactly one word — the engine's step_mask input — when |Q| <= 64,
//     otherwise the words of the step_set input, see set_of).
//     The q-major layout keeps a transition patch (two counter rows) inside
//     two n-sized stripes that stay cache-hot across steps.
//   * sparse — large |Q| (synchronizer product spaces) or extreme degrees: a
//     compact per-node sorted multiset (parallel keys/counts vectors), so
//     memory stays O(sum_v distinct(v)) instead of O(n * |Q|). A sense wraps
//     the keys span directly — still no per-sense sort.
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
  /// Largest |Q| kept in the dense counter table (n * |Q| uint16 entries);
  /// beyond it the compact sorted-multiset representation takes over.
  static constexpr StateId kDenseStateLimit = 256;
  /// Hard budget for the dense counter table. |Q| alone does not bound the
  /// table — n does too — so graphs where n * |Q| counters would exceed
  /// this fall back to the sorted multiset (O(sum distinct) memory) even
  /// when |Q| <= kDenseStateLimit.
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
  /// engine's step_mask kernels consume. Only meaningful when mask_exact().
  [[nodiscard]] std::uint64_t mask_of(NodeId v) const { return masks_[v]; }

  /// True iff mask_of() is the complete signal (|Q| <= 64, dense mode).
  [[nodiscard]] bool mask_exact() const { return dense_ && mask_words_ == 1; }

  /// The exact presence set of N+(v) — the engine's step_set input. Dense
  /// mode hands over the node's <= 4 presence words; sparse mode ORs its
  /// sorted keys in. Requires |Q| <= StateSet::kBits.
  [[nodiscard]] StateSet set_of(NodeId v) const;

  /// The signal of node v as a zero-copy sorted view. Dense mode unpacks the
  /// presence words into `scratch` (O(distinct)); sparse mode wraps the
  /// node's keys span directly. The view is invalidated by the next sense
  /// into the same scratch and by any apply_transition/rebuild.
  [[nodiscard]] SignalView sense(NodeId v, std::vector<StateId>& scratch) const;

  /// True when the flat counter table is in use (vs the sorted multiset).
  [[nodiscard]] bool dense() const { return dense_; }

  /// Multiplicity of state q in N+(v) — observability for tests.
  [[nodiscard]] std::uint32_t count_of(NodeId v, StateId q) const;

  /// Heap bytes owned by the field (counter table + presence bitmaps, or the
  /// per-node multisets) — see util/memusage.hpp for the contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const;

 private:
  void bump(NodeId v, StateId q);  // increment q's multiplicity at v
  void drop(NodeId v, StateId q);  // decrement q's multiplicity at v

  const graph::Graph& graph_;
  NodeId n_;
  StateId state_count_;
  bool dense_;
  StateId mask_words_;  // presence words per node: ceil(min-needed / 64)

  // Dense: counts_[q * n + v]; presence bit q of node v lives in
  // masks_[v * mask_words_ + q / 64]. For |Q| <= 64 that degenerates to one
  // word per node, indexed masks_[v].
  std::vector<std::uint16_t> counts_;
  std::vector<std::uint64_t> masks_;

  // Sparse: per-node sorted multiset as parallel vectors (keys ascending).
  std::vector<std::vector<StateId>> keys_;
  std::vector<std::vector<std::uint32_t>> key_counts_;
};

}  // namespace ssau::core
