// Contiguous weighted sharding for the parallel engine kernels.
//
// Both parallel kernels are embarrassingly parallel in their phase 1: every
// activated node reads the pre-step configuration and writes only its own
// slot (of the double buffer in the synchronous kernel, of the update list in
// the sparse-activation kernel). A shard is therefore just a contiguous index
// range [begin, end); contiguity keeps each worker's reads/writes sequential
// and makes the concatenation of per-shard event logs equal to the serial
// iteration-order event stream.
//
// Work per index is dominated by the neighborhood scan, so shards are
// balanced by a caller-supplied weight (deg(v) + 1 in both kernels): on
// skewed graphs an equal-count split would leave the hub shard the straggler
// of every barrier. A plan over P participants has P * kShardsPerParticipant
// shards (fewer when there are fewer indices), which the participants claim
// from the pool's cursor: a participant on a slow or shared core holds up
// the join by at most about one small shard, not by a 1/P share of the step.
// The synchronous kernel partitions the node range [0, n) once at engine
// construction (a serial engine uses the whole range as its one shard); the
// sparse-activation kernel re-partitions the index range [0, |A_t|) of the
// activation list every step (two O(|A_t|) passes into a reused buffer).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace ssau::core {

/// Shards per pool participant in a sharded kernel's plan. Chosen on the
/// repository benchmark's stabilize-1m (1M nodes, 4 threads, a shared
/// 4-vCPU host): one shard per participant left the caller idle at the join
/// for 25-29% of the traced step time; 4, 8 and 16 per participant cut that
/// to 11-14%, 5-6% and 3-4%. Untraced, 8 gave the lowest time per round
/// (median 22.9 ms, against 23.8 ms at 4, 24.5 ms at 16 and 25.5 ms at 1).
inline constexpr unsigned kShardsPerParticipant = 8;

/// A contiguous index range [begin, end); shards partition [0, count).
struct Shard {
  NodeId begin = 0;
  NodeId end = 0;

  [[nodiscard]] NodeId size() const { return end - begin; }
};

/// Partitions [0, count) into at most `shard_count` non-empty contiguous
/// shards of near-equal total weight, where `weight(i)` yields the (positive)
/// cost of index i. Writes into `out` (cleared first; capacity reused across
/// calls — the sparse kernel re-shards every step). Produces fewer shards
/// when count < shard_count; produces none when count == 0.
template <typename WeightFn>
inline void make_weighted_shards_into(std::vector<Shard>& out, NodeId count,
                                      unsigned shard_count, WeightFn&& weight) {
  out.clear();
  if (count == 0) return;
  const auto k = static_cast<NodeId>(
      std::min<std::uint64_t>(shard_count == 0 ? 1 : shard_count, count));

  std::uint64_t total_weight = 0;
  for (NodeId i = 0; i < count; ++i) {
    total_weight += static_cast<std::uint64_t>(weight(i));
  }

  out.reserve(k);
  NodeId begin = 0;
  std::uint64_t cumulative = 0;
  for (NodeId i = 0; i < count; ++i) {
    cumulative += static_cast<std::uint64_t>(weight(i));
    const auto filled = static_cast<NodeId>(out.size());
    // Close the shard once its share of the weight is reached, but never so
    // late that the remaining shards could not all be non-empty.
    const bool quota_met =
        cumulative * k >= total_weight * (static_cast<std::uint64_t>(filled) + 1);
    const bool must_close = count - (i + 1) == k - filled - 1;
    if ((quota_met || must_close) && filled + 1 < k) {
      out.push_back({begin, i + 1});
      begin = i + 1;
    }
  }
  out.push_back({begin, count});
}

/// Partitions the node range [0, n) into at most `shard_count` shards of
/// near-equal total degree weight (deg(v) + 1 per node) — the synchronous
/// kernel's once-per-engine partition.
[[nodiscard]] inline std::vector<Shard> make_shards(const graph::Graph& g,
                                                    unsigned shard_count) {
  std::vector<Shard> shards;
  make_weighted_shards_into(shards, g.num_nodes(), shard_count, [&](NodeId v) {
    return static_cast<std::uint64_t>(g.degree(v)) + 1;
  });
  return shards;
}

/// Floor on the per-participant working set before another thread pays for
/// itself: below ~256 KiB of configuration + adjacency traffic per
/// participant, the pool's fork and join dominate the phase-1 work being
/// split.
inline constexpr std::uint64_t kMinShardFootprintBytes = std::uint64_t{1}
                                                         << 18;

/// How many pool participants (threads, caller included) this graph can
/// usefully feed, given a thread budget: the full budget once every
/// participant's share of the scan footprint clears
/// kMinShardFootprintBytes, fewer on small graphs whose whole working set
/// fits in cache anyway. The footprint model charges each node its
/// double-buffered state bytes plus activation counter and each CSR
/// half-edge its 4-byte id — the actual traffic of one synchronous phase-1
/// pass. The engine applies this only when resolving an AUTO thread count;
/// an explicit thread_count is honored as given.
[[nodiscard]] inline unsigned recommended_shard_count(const graph::Graph& g,
                                                      unsigned thread_budget) {
  if (thread_budget <= 1) return 1;
  const std::uint64_t footprint =
      static_cast<std::uint64_t>(g.num_nodes()) * 10 +
      8 * static_cast<std::uint64_t>(g.num_edges());
  const std::uint64_t affordable =
      std::max<std::uint64_t>(1, footprint / kMinShardFootprintBytes);
  return static_cast<unsigned>(
      std::min<std::uint64_t>(thread_budget, affordable));
}

}  // namespace ssau::core
