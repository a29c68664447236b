// Recursive dynamic-memory accounting tests — util/memusage.hpp primitives
// against hand-computed byte counts, then the engine-layer
// dynamic_memory_usage() methods whose numbers feed the bytes_per_node CI
// gate (bench/gates.txt).
#include "util/memusage.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/signal_field.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "util/rng.hpp"

namespace ssau {
namespace {

using util::DynamicUsage;

// --- primitives: exact hand-computed counts ----------------------------------

TEST(DynamicUsage, VectorChargesCapacityNotSize) {
  std::vector<std::uint32_t> v;
  EXPECT_EQ(DynamicUsage(v), 0u);
  v.reserve(100);
  v.push_back(1);  // size 1, capacity 100: slack is committed memory
  EXPECT_EQ(DynamicUsage(v), 100 * sizeof(std::uint32_t));
}

TEST(DynamicUsage, FlatElementTypesCostExactlyTheirSlots) {
  std::vector<std::pair<std::uint32_t, std::uint32_t>> pairs(7);
  EXPECT_EQ(DynamicUsage(pairs),
            pairs.capacity() * sizeof(std::pair<std::uint32_t, std::uint32_t>));
}

TEST(DynamicUsage, NestedVectorsRecurse) {
  std::vector<std::vector<std::uint64_t>> vv(3);
  vv[0].resize(10);
  vv[2].reserve(5);
  const std::size_t outer =
      vv.capacity() * sizeof(std::vector<std::uint64_t>);
  const std::size_t inner = vv[0].capacity() * 8 + vv[1].capacity() * 8 +
                            vv[2].capacity() * 8;
  EXPECT_EQ(DynamicUsage(vv), outer + inner);
}

TEST(DynamicUsage, StringSmallStringOptimizationIsFree) {
  const std::string inline_str = "hi";
  EXPECT_EQ(DynamicUsage(inline_str), 0u);
  const std::string heap_str(128, 'x');
  EXPECT_EQ(DynamicUsage(heap_str), heap_str.capacity() + 1);
}

TEST(DynamicUsage, DequeApproximatesByElementBytes) {
  std::deque<std::uint64_t> d;
  for (int i = 0; i < 33; ++i) d.push_back(static_cast<std::uint64_t>(i));
  EXPECT_EQ(DynamicUsage(d), 33 * sizeof(std::uint64_t));
}

// --- graph layer --------------------------------------------------------------

TEST(DynamicUsage, GraphSlackIsChargedAndShrinkReleasesIt) {
  // The same cycle, built tight and with 50% per-slot slack.
  const auto build = [](double slack_factor) {
    graph::GraphBuilder b(500, {.slack = slack_factor});
    for (graph::NodeId v = 0; v < 500; ++v) b.count_edge(v, (v + 1) % 500);
    b.finish_counting();
    for (graph::NodeId v = 0; v < 500; ++v) b.fill_edge(v, (v + 1) % 500);
    return std::move(b).finish();
  };
  graph::Graph tight = build(0.0);
  graph::Graph slack = build(0.5);
  ASSERT_EQ(tight.num_edges(), slack.num_edges());

  // The CSR pool alone stores both half-edges.
  EXPECT_GE(tight.dynamic_memory_usage(),
            2 * tight.num_edges() * sizeof(graph::NodeId));
  // Slack slots are real committed memory, so the accounting must see them.
  EXPECT_GT(slack.dynamic_memory_usage(), tight.dynamic_memory_usage());

  // shrink_to_fit releases the slack again (± the lazy edge cache, which
  // shrink also drops).
  const std::size_t before = slack.dynamic_memory_usage();
  slack.shrink_to_fit();
  EXPECT_LT(slack.dynamic_memory_usage(), before);
  EXPECT_LE(slack.dynamic_memory_usage(), tight.dynamic_memory_usage());
}

// --- engine-layer stores ------------------------------------------------------

TEST(DynamicUsage, ConfigStoreNarrowIsByteCompact) {
  core::ConfigStore store;
  core::Configuration c(1000, 3);
  store.reset(c, /*narrow=*/true);
  ASSERT_TRUE(store.narrow());
  // One byte per node plus the SIMD gather tail slack; the wide view has
  // not been materialized yet.
  constexpr std::size_t kBytes = 1000 + core::simd::kByteStorePadding;
  EXPECT_EQ(store.dynamic_memory_usage(), kBytes);

  // Materializing the lazy wide view is a real allocation the accounting
  // must report.
  (void)store.view();
  EXPECT_EQ(store.dynamic_memory_usage(),
            kBytes + 1000 * sizeof(core::StateId));
}

TEST(DynamicUsage, ConfigStoreWideChargesStateIds) {
  core::ConfigStore store;
  core::Configuration c(1000, 300);  // |Q| > 256 forces wide
  store.reset(c, /*narrow=*/false);
  ASSERT_FALSE(store.narrow());
  EXPECT_EQ(store.dynamic_memory_usage(), 1000 * sizeof(core::StateId));
  (void)store.view();  // wide mode returns the buffer itself: no new memory
  EXPECT_EQ(store.dynamic_memory_usage(), 1000 * sizeof(core::StateId));
}

TEST(DynamicUsage, UpdateListPackedHalvesTheSlotCost) {
  core::UpdateList packed;
  packed.configure(true);
  packed.resize(256);
  EXPECT_EQ(packed.dynamic_memory_usage(), 256u * 8u);

  core::UpdateList wide;
  wide.configure(false);
  wide.resize(256);
  EXPECT_EQ(wide.dynamic_memory_usage(),
            256 * sizeof(std::pair<core::NodeId, core::StateId>));
  EXPECT_GT(wide.dynamic_memory_usage(), packed.dynamic_memory_usage());
}

// --- signal field representations --------------------------------------------

TEST(DynamicUsage, SignalFieldDenseAndSparseAreBothAccounted) {
  util::Rng rng(13);
  const graph::Graph g = graph::random_connected(200, 0.1, rng);

  // Node-major: |Q| = 9 pads each node's row to a stride of 16 counters,
  // so the table is n * 16 * 2 B (plus at most one cache line to align row
  // 0) and nothing else.
  const core::Configuration dense_c(200, 1);
  const core::SignalField dense(g, /*state_count=*/9, dense_c);
  EXPECT_GE(dense.dynamic_memory_usage(), 200 * 16 * sizeof(std::uint16_t));
  EXPECT_LE(dense.dynamic_memory_usage(),
            200 * 16 * sizeof(std::uint16_t) + 64);

  // State-major (64 < |Q| <= 256): n * |Q| counters plus the presence words.
  const core::SignalField wide(g, /*state_count=*/130, dense_c);
  EXPECT_EQ(wide.dynamic_memory_usage(),
            200 * 130 * sizeof(std::uint16_t) +
                200 * 3 * sizeof(std::uint64_t));

  // Sparse: |Q| over the dense limit -> multiset representation, far below
  // what a dense table over the same space would commit.
  const core::Configuration sparse_c(200, 1);
  const core::SignalField sparse(
      g, /*state_count=*/core::SignalField::kDenseStateLimit * 64, sparse_c);
  EXPECT_GT(sparse.dynamic_memory_usage(), 0u);
  EXPECT_LT(sparse.dynamic_memory_usage(),
            200 * core::SignalField::kDenseStateLimit * 64 *
                sizeof(std::uint16_t));
}

// --- whole-engine roll-up -----------------------------------------------------

TEST(DynamicUsage, EngineFootprintIsCompactAndCoversItsStores) {
  const graph::Graph g = graph::cycle(10000);
  const unison::AlgAu alg(3);  // |Q| = 30 <= 256: narrow stores
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(
      g, alg, sched,
      core::uniform_configuration(g.num_nodes(), 0), 7);
  ASSERT_TRUE(engine.compact_config());

  const std::size_t bytes = engine.dynamic_memory_usage();
  // Must at least cover the double-buffered narrow config (2n), the 32-bit
  // activation counters (4n), and the pending bitmap (n).
  EXPECT_GE(bytes, 7u * g.num_nodes());
  // ... and stay byte-compact: the per-node engine footprint (excluding the
  // graph) is bounded by a small constant. 64 B/node is loose headroom over
  // the ~16 B/node the narrow layout actually uses at this scale — a
  // regression to wide stores or stored per-node generators blows past it.
  EXPECT_LT(bytes, 64u * g.num_nodes() + (1u << 20));
}

TEST(DynamicUsage, ActivationCounterPromotionIsVisible) {
  const graph::Graph g = graph::cycle(64);
  const unison::AlgAu alg(2);
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(
      g, alg, sched,
      core::uniform_configuration(g.num_nodes(), 0), 3);
  const std::size_t before = engine.dynamic_memory_usage();
  for (int t = 0; t < 10; ++t) engine.step();
  // Counters stay 32-bit at small activation counts: no growth beyond
  // transient scratch.
  EXPECT_EQ(engine.activation_count(0), 10u);
  EXPECT_GE(engine.dynamic_memory_usage() + (1u << 16), before);
}

}  // namespace
}  // namespace ssau
