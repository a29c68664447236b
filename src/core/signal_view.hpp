// Zero-allocation view of an SA set-broadcast signal.
//
// SignalView is the engine hot path's replacement for Signal: a non-owning
// span over a caller-managed sorted scratch buffer, optionally paired with a
// 64-bit presence bitmask. The bitmask fast path applies whenever every sensed
// StateId is < 64 — which covers AlgAU's Z_{2k} clocks for D <= 4 and all the
// small baselines; the synchronizer's O(D·|Q|^2) product spaces fall back to
// the sparse sorted-span path automatically.
//
// Semantics are identical to Signal (the sorted set of distinct StateIds in
// N+(v)); the view merely avoids owning the storage, so the engine can build
// one per node-activation without touching the allocator.
#pragma once

#include <algorithm>
#include <bit>
#include <cstdint>
#include <span>
#include <vector>

#include "core/signal.hpp"
#include "core/simd_gather.hpp"
#include "core/types.hpp"

namespace ssau::core {

/// Appends the set bits of `mask` to `out` in ascending order, offset by
/// `base` — the one definition of the mask -> sorted-StateId-span decoding
/// that SignalScratch, the default Automaton::step_mask, CompiledAutomaton,
/// and SignalField (whose multi-word bitmaps decode word w with base w * 64)
/// all share.
inline void unpack_mask(std::uint64_t mask, std::vector<StateId>& out,
                        StateId base = 0) {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    out.push_back(base + static_cast<StateId>(std::countr_zero(m)));
  }
}

class SignalView {
 public:
  /// Maximum StateId representable in the presence bitmask.
  static constexpr StateId kMaskBits = 64;

  SignalView() = default;

  /// Wraps a Signal (sorted, deduplicated by construction). Implicit on
  /// purpose: any Signal call site can feed a step_fast overload directly.
  SignalView(const Signal& sig)  // NOLINT(google-explicit-constructor)
      : states_(sig.states()) {
    has_mask_ = true;
    for (const StateId q : states_) {
      if (q >= kMaskBits) {
        has_mask_ = false;
        mask_ = 0;
        return;
      }
      mask_ |= std::uint64_t{1} << q;
    }
  }

  /// Wraps an externally maintained sorted+deduplicated buffer. `mask` must be
  /// the exact presence bitmask iff `has_mask` (i.e. all states < 64).
  SignalView(std::span<const StateId> sorted_unique, std::uint64_t mask,
             bool has_mask)
      : states_(sorted_unique), mask_(mask), has_mask_(has_mask) {}

  /// True iff state q appears somewhere in N+(v).
  [[nodiscard]] bool contains(StateId q) const {
    if (has_mask_) {
      return q < kMaskBits && ((mask_ >> q) & 1u) != 0;
    }
    return std::binary_search(states_.begin(), states_.end(), q);
  }

  /// True iff some sensed state satisfies pred.
  template <typename Pred>
  [[nodiscard]] bool any(Pred pred) const {
    return std::any_of(states_.begin(), states_.end(), pred);
  }

  /// True iff every sensed state satisfies pred.
  template <typename Pred>
  [[nodiscard]] bool all(Pred pred) const {
    return std::all_of(states_.begin(), states_.end(), pred);
  }

  /// The distinct sensed states, ascending.
  [[nodiscard]] std::span<const StateId> states() const { return states_; }

  [[nodiscard]] std::size_t size() const { return states_.size(); }

  /// The presence bitmask; meaningful only when has_mask().
  [[nodiscard]] std::uint64_t mask() const { return mask_; }
  [[nodiscard]] bool has_mask() const { return has_mask_; }

  /// Owning copy for code that needs a real Signal (listener callbacks,
  /// fallback paths). Allocates.
  [[nodiscard]] Signal materialize() const {
    return Signal::from_sorted_unique(
        std::vector<StateId>(states_.begin(), states_.end()));
  }

 private:
  std::span<const StateId> states_;
  std::uint64_t mask_ = 0;
  bool has_mask_ = false;
};

/// Reusable scratch for building SignalViews — one instance per engine; zero
/// allocations per activation once warmed up to the graph's maximum degree.
class SignalScratch {
 public:
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  /// Builds the signal of node v under configuration c on graph g. The
  /// returned view aliases this scratch: it is invalidated by the next sense()
  /// call. Templated on the configuration element type so the engine's
  /// byte-compact storage mode (uint8_t per node for |Q| <= 256) senses
  /// through the same one definition as the wide StateId buffers. The gather
  /// routes through core/simd_gather.hpp (AVX2 accumulation for byte
  /// buffers, prefetched scalar otherwise).
  template <typename T>
  SignalView sense(const graph::Graph& g, const T* c, NodeId v) {
    buffer_.clear();
    const StateId own = c[v];
    const std::span<const NodeId> nbrs = g.neighbors(v);
    if (own < SignalView::kMaskBits) {
      // Bitmask fast path: OR the neighborhood into a 64-bit set, then unpack
      // set bits in ascending order — O(distinct) instead of O(deg log deg).
      std::uint64_t mask = std::uint64_t{1} << own;
      if (simd::try_accumulate_mask(nbrs, c, mask)) {
        unpack_mask(mask, buffer_);
        return {buffer_, mask, true};
      }
    }
    // Sparse path: sort + dedup into the same scratch buffer.
    buffer_.push_back(own);
    for (const NodeId u : nbrs) buffer_.push_back(c[u]);
    std::sort(buffer_.begin(), buffer_.end());
    buffer_.erase(std::unique(buffer_.begin(), buffer_.end()), buffer_.end());
    return {buffer_, 0, false};
  }

  SignalView sense(const graph::Graph& g, const Configuration& c, NodeId v) {
    return sense(g, c.data(), v);
  }

  /// Heap bytes owned by the scratch — see util/memusage.hpp.
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return buffer_.capacity() * sizeof(StateId);
  }

 private:
  std::vector<StateId> buffer_;
};

/// Sorts + deduplicates `buffer` in place and wraps it in a view (with the
/// presence bitmask when every entry is < 64). For signal projections that
/// start from an arbitrary state list (e.g. the synchronizer's per-coordinate
/// signals); the view aliases `buffer`.
[[nodiscard]] inline SignalView make_signal_view(std::vector<StateId>& buffer) {
  std::sort(buffer.begin(), buffer.end());
  buffer.erase(std::unique(buffer.begin(), buffer.end()), buffer.end());
  std::uint64_t mask = 0;
  bool small = true;
  for (const StateId q : buffer) {
    if (q >= SignalView::kMaskBits) {
      small = false;
      break;
    }
    mask |= std::uint64_t{1} << q;
  }
  return {buffer, small ? mask : 0, small};
}

}  // namespace ssau::core
