// Tests for the zero-allocation signal fast path: SignalView semantics vs
// Signal, the SignalScratch bitmask/sparse construction paths, and
// make_signal_view projections.
#include "core/signal_view.hpp"

#include <gtest/gtest.h>

#include "core/signal.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ssau::core {
namespace {

TEST(SignalView, FromSignalSmallStatesCarriesMask) {
  const Signal sig = Signal::from_states({5, 1, 5, 3, 1});
  const SignalView view(sig);
  ASSERT_TRUE(view.has_mask());
  EXPECT_EQ(view.mask(), (1u << 1) | (1u << 3) | (1u << 5));
  EXPECT_EQ(view.size(), 3u);
  EXPECT_TRUE(view.contains(1));
  EXPECT_TRUE(view.contains(3));
  EXPECT_TRUE(view.contains(5));
  EXPECT_FALSE(view.contains(0));
  EXPECT_FALSE(view.contains(4));
  EXPECT_FALSE(view.contains(64));
  EXPECT_FALSE(view.contains(1000));
}

TEST(SignalView, FromSignalLargeStatesFallsBackToSparse) {
  const Signal sig = Signal::from_states({2, 64, 100});
  const SignalView view(sig);
  EXPECT_FALSE(view.has_mask());
  EXPECT_TRUE(view.contains(2));
  EXPECT_TRUE(view.contains(64));
  EXPECT_TRUE(view.contains(100));
  EXPECT_FALSE(view.contains(3));
}

TEST(SignalView, AnyAllMatchSignal) {
  const Signal sig = Signal::from_states({2, 4, 6});
  const SignalView view(sig);
  EXPECT_TRUE(view.any([](StateId q) { return q == 4; }));
  EXPECT_FALSE(view.any([](StateId q) { return q == 5; }));
  EXPECT_TRUE(view.all([](StateId q) { return q % 2 == 0; }));
  EXPECT_FALSE(view.all([](StateId q) { return q > 2; }));
}

TEST(SignalView, MaterializeRoundTrips) {
  const Signal sig = Signal::from_states({9, 0, 63, 9});
  const SignalView view(sig);
  EXPECT_EQ(view.materialize(), sig);
}

TEST(SignalScratch, BitmaskPathMatchesFromStates) {
  const graph::Graph g = graph::cycle(6);
  const Configuration c{0, 5, 5, 63, 2, 0};
  SignalScratch scratch;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<StateId> sensed{c[v]};
    for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
    const Signal expected = Signal::from_states(std::move(sensed));
    const SignalView view = scratch.sense(g, c, v);
    ASSERT_TRUE(view.has_mask());
    EXPECT_EQ(view.materialize(), expected) << "node " << v;
    EXPECT_EQ(view.mask(), SignalView(expected).mask());
  }
}

TEST(SignalScratch, SparsePathMatchesFromStates) {
  const graph::Graph g = graph::star(5);
  const Configuration c{1000, 3, 64, 3, 1000};
  SignalScratch scratch;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<StateId> sensed{c[v]};
    for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
    const Signal expected = Signal::from_states(std::move(sensed));
    const SignalView view = scratch.sense(g, c, v);
    EXPECT_FALSE(view.has_mask());
    EXPECT_EQ(view.materialize(), expected) << "node " << v;
  }
}

/// The signal of v under `c`, built the legacy way.
Signal expected_signal(const graph::Graph& g, const Configuration& c,
                       NodeId v) {
  std::vector<StateId> sensed{c[v]};
  for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
  return Signal::from_states(std::move(sensed));
}

/// `c` as a byte-per-node buffer with the engine's gather padding.
std::vector<std::uint8_t> padded_bytes(const Configuration& c) {
  std::vector<std::uint8_t> bytes(c.size() + simd::kByteStorePadding, 0xFF);
  for (std::size_t v = 0; v < c.size(); ++v) {
    bytes[v] = static_cast<std::uint8_t>(c[v]);
  }
  return bytes;
}

TEST(SignalScratch, MixedBoundaryStates) {
  // Exactly 63 stays on the bitmask path; exactly 64 leaves it.
  const graph::Graph g = graph::path(2);
  SignalScratch scratch;
  EXPECT_TRUE(scratch.sense(g, {63, 0}, 0).has_mask());
  EXPECT_FALSE(scratch.sense(g, {64, 0}, 0).has_mask());
  EXPECT_FALSE(scratch.sense(g, {0, 64}, 0).has_mask());

  // Byte stores sense through the 256-bit set: every word boundary, alone
  // and together, must decode to the legacy signal.
  const std::vector<StateId> edges{0, 63, 64, 127, 128, 191, 192, 255};
  const graph::Graph k = graph::complete(static_cast<NodeId>(edges.size()));
  const graph::Graph p = graph::path(static_cast<NodeId>(edges.size()));
  for (const graph::Graph* h : {&k, &p}) {
    for (std::size_t shift = 0; shift < edges.size(); ++shift) {
      Configuration c(edges.size());
      for (std::size_t v = 0; v < c.size(); ++v) {
        c[v] = edges[(v + shift) % edges.size()];
      }
      const std::vector<std::uint8_t> bytes = padded_bytes(c);
      for (NodeId v = 0; v < h->num_nodes(); ++v) {
        const Signal expected = expected_signal(*h, c, v);
        const SignalView view = scratch.sense(*h, bytes.data(), v);
        EXPECT_EQ(view.materialize(), expected) << "node " << v;
        EXPECT_EQ(view.has_mask(), expected.states().back() < 64);
        if (view.has_mask()) {
          EXPECT_EQ(view.mask(), SignalView(expected).mask());
        }
      }
    }
  }
  // A lone low state keeps the mask; one state per high word drops it.
  const graph::Graph single = graph::path(2);
  for (const StateId q : edges) {
    const std::vector<std::uint8_t> bytes = padded_bytes({q, q});
    EXPECT_EQ(scratch.sense(single, bytes.data(), 0).has_mask(), q < 64);
  }
}

TEST(SignalScratch, RandomizedAgainstFromStates) {
  util::Rng rng(42);
  const graph::Graph g = graph::random_connected(40, 0.1, rng);
  SignalScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    // Half the trials stay under 64 states, half straddle the boundary.
    const StateId universe = trial % 2 == 0 ? 60 : 90;
    Configuration c(g.num_nodes());
    for (auto& q : c) q = rng.below(universe);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(scratch.sense(g, c, v).materialize(),
                expected_signal(g, c, v));
    }
  }
  // Byte stores over every word count of the 256-bit set, on a padded
  // buffer as the engine keeps it.
  for (int trial = 0; trial < 64; ++trial) {
    const StateId universe =
        std::vector<StateId>{60, 64, 65, 128, 129, 192, 193, 256}[trial % 8];
    Configuration c(g.num_nodes());
    for (auto& q : c) q = rng.below(universe);
    const std::vector<std::uint8_t> bytes = padded_bytes(c);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const Signal expected = expected_signal(g, c, v);
      const SignalView view = scratch.sense(g, bytes.data(), v);
      EXPECT_EQ(view.materialize(), expected) << "universe " << universe;
      EXPECT_EQ(view.has_mask(), expected.states().back() < 64);
    }
  }
}

TEST(StateSet, InsertUnpackAndSetAlgebra) {
  StateSet a;
  for (const StateId q : {255, 0, 64, 63, 191, 127, 192, 128, 64}) {
    a.insert(q);
  }
  StateSet b;
  b.insert(191);
  EXPECT_TRUE(b.subset_of(a));
  EXPECT_FALSE(a.subset_of(b));
  EXPECT_TRUE(a.intersects(b));
  StateSet c;
  c.insert(190);
  EXPECT_FALSE(a.intersects(c));
  EXPECT_TRUE(StateSet{}.subset_of(c));
  std::vector<StateId> out{7};
  const SignalView view = unpack_set(a, out);
  EXPECT_EQ(out, (std::vector<StateId>{0, 63, 64, 127, 128, 191, 192, 255}));
  EXPECT_FALSE(view.has_mask());
}

TEST(MakeSignalView, SortsDedupsAndMasks) {
  std::vector<StateId> buf{7, 1, 7, 40, 1};
  const SignalView view = make_signal_view(buf);
  EXPECT_EQ(buf, (std::vector<StateId>{1, 7, 40}));
  ASSERT_TRUE(view.has_mask());
  EXPECT_EQ(view.mask(),
            (std::uint64_t{1} << 1) | (std::uint64_t{1} << 7) |
                (std::uint64_t{1} << 40));

  std::vector<StateId> big{99, 2, 99};
  const SignalView sparse = make_signal_view(big);
  EXPECT_FALSE(sparse.has_mask());
  EXPECT_EQ(big, (std::vector<StateId>{2, 99}));
}

TEST(Signal, FromSortedUniqueEqualsFromStates) {
  EXPECT_EQ(Signal::from_sorted_unique({1, 2, 3}),
            Signal::from_states({3, 2, 1, 2}));
}

}  // namespace
}  // namespace ssau::core
