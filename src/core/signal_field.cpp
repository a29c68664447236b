#include "core/signal_field.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/simd_gather.hpp"
#include "util/memusage.hpp"

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace ssau::core {

SignalField::SignalField(const graph::Graph& g, StateId state_count,
                         const Configuration& initial)
    : graph_(g), n_(g.num_nodes()), state_count_(state_count) {
  assert(state_count_ >= 1);
  // Dense only when the counter table stays small — in |Q| AND in total
  // bytes (n is the other factor) — and no counter can ever reach the
  // 16-bit saturation bound (a counter is bounded by deg + 1).
  const bool node_major = state_count_ <= SignalView::kMaskBits;
  const std::size_t per_node =
      node_major ? (state_count_ + 7U) & ~std::size_t{7} : state_count_;
  const bool dense =
      state_count_ <= kDenseStateLimit &&
      g.max_degree() + 1 < static_cast<std::size_t>(kSaturated) &&
      per_node * n_ * sizeof(std::uint16_t) <= kDenseMaxCounterBytes;
  if (dense && node_major) {
    layout_ = Layout::kNodeMajor;
    stride_ = static_cast<StateId>(per_node);
    counts_.resize(per_node * n_ + kLineCounters);
    // Line-align row 0. Rows are stride_ * 2 bytes (a multiple of 16), so a
    // row of 8, 16 or 32 counters never straddles two lines.
    const auto addr = reinterpret_cast<std::uintptr_t>(counts_.data());
    origin_ = ((64 - addr % 64) % 64) / sizeof(std::uint16_t);
  } else if (dense) {
    layout_ = Layout::kStateMajor;
    mask_words_ = (state_count_ + 63) / 64;
    counts_.resize(per_node * n_);
    masks_.resize(static_cast<std::size_t>(n_) * mask_words_);
  } else {
    layout_ = Layout::kSparse;
    keys_.resize(n_);
    key_counts_.resize(n_);
  }
  rebuild(initial);
}

void SignalField::bump(NodeId v, StateId q) {
  if (layout_ == Layout::kNodeMajor) {
    std::uint16_t& c = row(v)[q];
    if (c < kSaturated) ++c;
    return;
  }
  if (layout_ == Layout::kStateMajor) {
    std::uint16_t& c = counts_[static_cast<std::size_t>(q) * n_ + v];
    if (c == 0) {
      masks_[static_cast<std::size_t>(v) * mask_words_ + (q >> 6)] |=
          std::uint64_t{1} << (q & 63);
    }
    if (c < kSaturated) ++c;
    return;
  }
  auto& keys = keys_[v];
  auto& cnts = key_counts_[v];
  const auto it = std::lower_bound(keys.begin(), keys.end(), q);
  const auto i = static_cast<std::size_t>(it - keys.begin());
  if (it == keys.end() || *it != q) {
    keys.insert(it, q);
    cnts.insert(cnts.begin() + static_cast<std::ptrdiff_t>(i), 1);
  } else {
    ++cnts[i];
  }
}

void SignalField::drop(NodeId v, StateId q) {
  if (layout_ == Layout::kNodeMajor) {
    std::uint16_t& c = row(v)[q];
    assert(c != 0 && c != kSaturated);
    --c;
    return;
  }
  if (layout_ == Layout::kStateMajor) {
    std::uint16_t& c = counts_[static_cast<std::size_t>(q) * n_ + v];
    assert(c != 0 && c != kSaturated);
    if (--c == 0) {
      masks_[static_cast<std::size_t>(v) * mask_words_ + (q >> 6)] &=
          ~(std::uint64_t{1} << (q & 63));
    }
    return;
  }
  auto& keys = keys_[v];
  auto& cnts = key_counts_[v];
  const auto it = std::lower_bound(keys.begin(), keys.end(), q);
  assert(it != keys.end() && *it == q);
  const auto i = static_cast<std::size_t>(it - keys.begin());
  if (--cnts[i] == 0) {
    keys.erase(it);
    cnts.erase(cnts.begin() + static_cast<std::ptrdiff_t>(i));
  }
}

void SignalField::apply_edge_insertion(NodeId u, NodeId v, StateId qu,
                                       StateId qv) {
  assert(u < n_ && v < n_ && u != v);
  bump(u, qv);
  bump(v, qu);
}

void SignalField::apply_edge_removal(NodeId u, NodeId v, StateId qu,
                                     StateId qv) {
  assert(u < n_ && v < n_ && u != v);
  drop(u, qv);
  drop(v, qu);
}

void SignalField::rebuild(const Configuration& c) {
  assert(c.size() == n_);
  // Full-graph gather: prefetch the state loads a fixed distance down each
  // adjacency span (the ids are sequential; only c[u] misses).
  constexpr unsigned kPf = simd::kDefaultPrefetchDistance;
  if (dense()) {
    std::fill(counts_.begin(), counts_.end(), 0);
    std::fill(masks_.begin(), masks_.end(), 0);
    for (NodeId v = 0; v < n_; ++v) {
      bump(v, c[v]);
      const std::span<const NodeId> nbrs = graph_.neighbors(v);
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        if (i + kPf < nbrs.size()) simd::prefetch(c.data() + nbrs[i + kPf]);
        bump(v, c[nbrs[i]]);
      }
    }
    return;
  }
  std::vector<StateId> sensed;
  for (NodeId v = 0; v < n_; ++v) {
    sensed.clear();
    sensed.push_back(c[v]);
    const std::span<const NodeId> nbrs = graph_.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPf < nbrs.size()) simd::prefetch(c.data() + nbrs[i + kPf]);
      sensed.push_back(c[nbrs[i]]);
    }
    std::sort(sensed.begin(), sensed.end());
    auto& keys = keys_[v];
    auto& cnts = key_counts_[v];
    keys.clear();
    cnts.clear();
    for (const StateId q : sensed) {
      if (keys.empty() || keys.back() != q) {
        keys.push_back(q);
        cnts.push_back(1);
      } else {
        ++cnts.back();
      }
    }
  }
}

void SignalField::apply_transitions(const Transition* transitions,
                                    std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    apply_transition(transitions[i].v, transitions[i].from, transitions[i].to);
  }
}

void SignalField::apply_transition(NodeId v, StateId from, StateId to) {
  assert(v < n_ && from < state_count_ && to < state_count_ && from != to);
  if (layout_ == Layout::kNodeMajor) {
    // Hot patch (|Q| <= 64, the engine's mask-kernel regime): two counter
    // updates in one row per inclusive neighbor, no presence word to blend
    // (mask_of derives it). Construction routed any graph that could
    // saturate a counter to the sparse representation, so the counters
    // move freely.
    std::uint16_t* const from_col = row(0) + from;
    std::uint16_t* const to_col = row(0) + to;
    const std::size_t stride = stride_;
    const auto patch = [&](NodeId w) {
      const std::size_t at = static_cast<std::size_t>(w) * stride;
      assert(from_col[at] != 0 && from_col[at] != kSaturated);
      assert(to_col[at] != kSaturated);
      --from_col[at];
      ++to_col[at];
    };
    patch(v);
    for (const NodeId u : graph_.neighbors(v)) patch(u);
    return;
  }
  if (layout_ == Layout::kStateMajor) {
    std::uint16_t* from_row = counts_.data() + static_cast<std::size_t>(from) * n_;
    std::uint16_t* to_row = counts_.data() + static_cast<std::size_t>(to) * n_;
    const std::size_t from_word = from >> 6, to_word = to >> 6;
    const std::uint64_t from_bit = std::uint64_t{1} << (from & 63);
    const std::uint64_t to_bit = std::uint64_t{1} << (to & 63);
    const auto patch = [&](NodeId w) {
      std::uint16_t& fc = from_row[w];
      assert(fc != 0 && fc != kSaturated);
      if (fc != kSaturated && --fc == 0) {
        masks_[static_cast<std::size_t>(w) * mask_words_ + from_word] &=
            ~from_bit;
      }
      std::uint16_t& tc = to_row[w];
      if (tc == 0) {
        masks_[static_cast<std::size_t>(w) * mask_words_ + to_word] |= to_bit;
      }
      if (tc < kSaturated) ++tc;
    };
    patch(v);
    for (const NodeId u : graph_.neighbors(v)) patch(u);
    return;
  }
  const auto patch = [&](NodeId w) {
    drop(w, from);
    bump(w, to);
  };
  patch(v);
  for (const NodeId u : graph_.neighbors(v)) patch(u);
}

std::uint64_t presence_mask_scalar(const std::uint16_t* row, StateId stride) {
  std::uint64_t mask = 0;
  for (StateId q = 0; q < stride; ++q) {
    mask |= static_cast<std::uint64_t>(row[q] != 0) << q;
  }
  return mask;
}

#if defined(__SSE2__)
std::uint64_t presence_mask_sse2(const std::uint16_t* row, StateId stride) {
  // Eight counters per compare. Two compares narrow into one byte vector
  // (packs keeps 0 and -1 exact), so one movemask yields 16 "absent" bits.
  const __m128i zero = _mm_setzero_si128();
  const auto absent8 = [&](StateId q) {
    const __m128i c =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(row + q));
    return _mm_cmpeq_epi16(c, zero);
  };
  std::uint64_t mask = 0;
  StateId q = 0;
  for (; q + 16 <= stride; q += 16) {
    const __m128i absent = _mm_packs_epi16(absent8(q), absent8(q + 8));
    const auto bits = static_cast<std::uint32_t>(_mm_movemask_epi8(absent));
    mask |= static_cast<std::uint64_t>(~bits & 0xFFFFU) << q;
  }
  if (q < stride) {
    const __m128i absent = _mm_packs_epi16(absent8(q), zero);
    const auto bits = static_cast<std::uint32_t>(_mm_movemask_epi8(absent));
    mask |= static_cast<std::uint64_t>(~bits & 0xFFU) << q;
  }
  return mask;
}
#endif

std::uint64_t SignalField::mask_of(NodeId v) const {
  assert(layout_ == Layout::kNodeMajor);
#if defined(__SSE2__)
  return presence_mask_sse2(row(v), stride_);
#else
  return presence_mask_scalar(row(v), stride_);
#endif
}

StateSet SignalField::set_of(NodeId v) const {
  assert(state_count_ <= StateSet::kBits);
  StateSet set;
  if (layout_ == Layout::kNodeMajor) {
    set.words[0] = mask_of(v);
    return set;
  }
  if (layout_ == Layout::kStateMajor) {
    std::copy_n(masks_.data() + static_cast<std::size_t>(v) * mask_words_,
                mask_words_, set.words.begin());
    return set;
  }
  for (const StateId q : keys_[v]) set.insert(q);
  return set;
}

SignalView SignalField::sense(NodeId v, std::vector<StateId>& scratch) const {
  if (dense()) return unpack_set(set_of(v), scratch);
  const auto& keys = keys_[v];
  const bool small = keys.empty() || keys.back() < SignalView::kMaskBits;
  std::uint64_t mask = 0;
  if (small) {
    for (const StateId q : keys) mask |= std::uint64_t{1} << q;
  }
  return {keys, mask, small};
}

std::uint32_t SignalField::count_of(NodeId v, StateId q) const {
  if (layout_ == Layout::kNodeMajor) return row(v)[q];
  if (layout_ == Layout::kStateMajor) {
    return counts_[static_cast<std::size_t>(q) * n_ + v];
  }
  const auto& keys = keys_[v];
  const auto it = std::lower_bound(keys.begin(), keys.end(), q);
  if (it == keys.end() || *it != q) return 0;
  return key_counts_[v][static_cast<std::size_t>(it - keys.begin())];
}

std::size_t SignalField::dynamic_memory_usage() const {
  return util::DynamicUsage(counts_) + util::DynamicUsage(masks_) +
         util::DynamicUsage(keys_) + util::DynamicUsage(key_counts_);
}

}  // namespace ssau::core
