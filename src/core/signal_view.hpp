// Zero-allocation view of an SA set-broadcast signal.
//
// SignalView is the engine hot path's replacement for Signal: a non-owning
// span over a caller-managed sorted scratch buffer, optionally paired with a
// 64-bit presence bitmask. The engine senses on one of three paths, picked
// by |Q| (which also picks the configuration store):
//
//   * 64-bit mask — |Q| <= 64: AlgAU's Z_{2k} clocks for D <= 4 and all the
//     small baselines (the engine's step_mask kernel);
//   * exact 256-bit set (StateSet) — the rest of the byte-per-node stores,
//     64 < |Q| <= 256: the neighborhood is OR-gathered into four words, no
//     sort (the engine's step_set kernel; AlgAU's native guard tests cover
//     D <= 20 here). SignalScratch builds every byte-store view from this
//     set, unpacking the words in ascending order;
//   * sorted span — wide stores only (|Q| > 256, the synchronizer's
//     O(D·|Q|^2) product spaces): sort + dedup into the scratch.
//
// Semantics are identical to Signal (the sorted set of distinct StateIds in
// N+(v)); the view merely avoids owning the storage, so the engine can build
// one per node-activation without touching the allocator.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
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
/// and unpack_set (which decodes word w with base w * 64) all share.
inline void unpack_mask(std::uint64_t mask, std::vector<StateId>& out,
                        StateId base = 0) {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    out.push_back(base + static_cast<StateId>(std::countr_zero(m)));
  }
}

/// Exact presence set over the states [0, 256) — every state a
/// byte-per-node store can hold: bit q & 63 of word q >> 6. The signal
/// encoding of Automaton::step_set, the 256-bit counterpart of step_mask's
/// one word (for |Q| <= 64 only word 0 is ever populated).
struct StateSet {
  static constexpr StateId kBits = 256;
  static constexpr std::size_t kWords = kBits / 64;

  std::array<std::uint64_t, kWords> words{};

  void insert(StateId q) { words[q >> 6] |= std::uint64_t{1} << (q & 63); }

  /// True iff some state is in both sets.
  [[nodiscard]] bool intersects(const StateSet& o) const {
    return ((words[0] & o.words[0]) | (words[1] & o.words[1]) |
            (words[2] & o.words[2]) | (words[3] & o.words[3])) != 0;
  }

  /// True iff every state of this set is also in `o`.
  [[nodiscard]] bool subset_of(const StateSet& o) const {
    return ((words[0] & ~o.words[0]) | (words[1] & ~o.words[1]) |
            (words[2] & ~o.words[2]) | (words[3] & ~o.words[3])) == 0;
  }
};

/// The exact presence set of node v's inclusive neighborhood under the raw
/// configuration buffer `c` — the one definition of set sensing shared by
/// SignalScratch and the engine's step_set kernels. Caller guarantees every
/// state is < StateSet::kBits (byte-per-node stores, by construction).
/// Forced inline: the kernel loops call it once per activation, and GCC has
/// left it out of line there after unrelated edits to the engine.
template <typename T>
[[nodiscard, gnu::always_inline]] inline StateSet neighborhood_set(
    const graph::Graph& g, const T* c, NodeId v) {
  StateSet set;
  set.insert(c[v]);
  simd::accumulate_set(g.neighbors(v), c, set.words);
  return set;
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

/// Decodes `set` into `out` (cleared first) in ascending order and wraps it
/// — the one StateSet -> SignalView decoding that SignalScratch, the default
/// Automaton::step_set, the engine's listener emission and SignalField
/// share. The view carries the 64-bit mask iff only word 0 is populated.
inline SignalView unpack_set(const StateSet& set, std::vector<StateId>& out) {
  out.clear();
  for (std::size_t w = 0; w < StateSet::kWords; ++w) {
    unpack_mask(set.words[w], out, static_cast<StateId>(w * 64));
  }
  const bool small = (set.words[1] | set.words[2] | set.words[3]) == 0;
  return {out, small ? set.words[0] : 0, small};
}

/// Reusable scratch for building SignalViews — one instance per engine; zero
/// allocations per activation once warmed up to the graph's maximum degree.
class SignalScratch {
 public:
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  /// Builds the signal of node v under configuration c on graph g. The
  /// returned view aliases this scratch: it is invalidated by the next sense()
  /// call. Templated on the configuration element type so the engine's
  /// byte-compact storage mode (uint8_t per node for |Q| <= 256) senses
  /// through the same one definition as the wide StateId buffers. A byte
  /// buffer always takes the exact 256-bit set; wide buffers try the 64-bit
  /// mask and fall back to sort + dedup.
  template <typename T>
  SignalView sense(const graph::Graph& g, const T* c, NodeId v) {
    if constexpr (sizeof(T) == 1) {
      return unpack_set(neighborhood_set(g, c, v), buffer_);
    } else {
      buffer_.clear();
      const StateId own = c[v];
      const std::span<const NodeId> nbrs = g.neighbors(v);
      if (own < SignalView::kMaskBits) {
        std::uint64_t mask = std::uint64_t{1} << own;
        if (simd::try_accumulate_mask(nbrs, c, mask)) {
          unpack_mask(mask, buffer_);
          return {buffer_, mask, true};
        }
      }
      buffer_.push_back(own);
      for (const NodeId u : nbrs) buffer_.push_back(c[u]);
      std::sort(buffer_.begin(), buffer_.end());
      buffer_.erase(std::unique(buffer_.begin(), buffer_.end()),
                    buffer_.end());
      return {buffer_, 0, false};
    }
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
