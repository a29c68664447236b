#include "core/signal_field.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/simd_gather.hpp"
#include "util/memusage.hpp"

namespace ssau::core {

SignalField::SignalField(const graph::Graph& g, StateId state_count,
                         const Configuration& initial)
    : graph_(g), n_(g.num_nodes()), state_count_(state_count) {
  assert(state_count_ >= 1);
  // Dense only when the counter table stays small — in |Q| AND in total
  // bytes (n is the other factor) — and no counter can ever reach the
  // 16-bit saturation bound (a counter is bounded by deg + 1).
  dense_ = state_count_ <= kDenseStateLimit &&
           g.max_degree() + 1 < static_cast<std::size_t>(kSaturated) &&
           static_cast<std::size_t>(state_count_) * n_ *
                   sizeof(std::uint16_t) <=
               kDenseMaxCounterBytes;
  if (dense_) {
    mask_words_ = (state_count_ + 63) / 64;
    counts_.resize(static_cast<std::size_t>(state_count_) * n_);
    masks_.resize(static_cast<std::size_t>(n_) * mask_words_);
  } else {
    mask_words_ = 0;
    keys_.resize(n_);
    key_counts_.resize(n_);
  }
  rebuild(initial);
}

void SignalField::bump(NodeId v, StateId q) {
  if (dense_) {
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
  if (dense_) {
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
  if (dense_) {
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
  if (dense_) {
    std::uint16_t* from_row = counts_.data() + static_cast<std::size_t>(from) * n_;
    std::uint16_t* to_row = counts_.data() + static_cast<std::size_t>(to) * n_;
    if (mask_words_ == 1) {
      // Hot patch (|Q| <= 64, the engine's mask-kernel regime): branchless.
      // Construction routed any graph that could saturate a counter to the
      // sparse representation, so the counters move freely; `to` is present
      // after its increment by definition, `from` iff its counter stayed
      // positive — one blend per neighbor, no unpredictable branches.
      const std::uint64_t from_bit = std::uint64_t{1} << from;
      const std::uint64_t to_bit = std::uint64_t{1} << to;
      const auto patch = [&](NodeId w) {
        assert(from_row[w] != 0 && from_row[w] != kSaturated);
        assert(to_row[w] != kSaturated);
        const std::uint16_t fc = --from_row[w];
        ++to_row[w];
        masks_[w] = (masks_[w] & ~from_bit) |
                    (fc != 0 ? from_bit : std::uint64_t{0}) | to_bit;
      };
      patch(v);
      for (const NodeId u : graph_.neighbors(v)) patch(u);
      return;
    }
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

StateSet SignalField::set_of(NodeId v) const {
  assert(state_count_ <= StateSet::kBits);
  StateSet set;
  if (dense_) {
    std::copy_n(masks_.data() + static_cast<std::size_t>(v) * mask_words_,
                mask_words_, set.words.begin());
    return set;
  }
  for (const StateId q : keys_[v]) set.insert(q);
  return set;
}

SignalView SignalField::sense(NodeId v, std::vector<StateId>& scratch) const {
  if (dense_) return unpack_set(set_of(v), scratch);
  const auto& keys = keys_[v];
  const bool small = keys.empty() || keys.back() < SignalView::kMaskBits;
  std::uint64_t mask = 0;
  if (small) {
    for (const StateId q : keys) mask |= std::uint64_t{1} << q;
  }
  return {keys, mask, small};
}

std::uint32_t SignalField::count_of(NodeId v, StateId q) const {
  if (dense_) {
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
