// Tests for graph generators: sizes, degrees, connectivity, diameters.
#include "graph/generators.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "graph/metrics.hpp"

namespace ssau::graph {
namespace {

TEST(Generators, Path) {
  const Graph g = path(5);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.num_edges(), 4u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, SingletonPath) {
  const Graph g = path(1);
  EXPECT_EQ(g.num_nodes(), 1u);
  EXPECT_EQ(g.num_edges(), 0u);
  EXPECT_EQ(diameter(g), 0u);
}

TEST(Generators, Cycle) {
  const Graph g = cycle(8);
  EXPECT_EQ(g.num_edges(), 8u);
  for (NodeId v = 0; v < 8; ++v) EXPECT_EQ(g.degree(v), 2u);
  EXPECT_EQ(diameter(g), 4u);
  EXPECT_THROW(cycle(2), std::invalid_argument);
}

TEST(Generators, OddCycleDiameter) {
  EXPECT_EQ(diameter(cycle(9)), 4u);
}

TEST(Generators, Complete) {
  const Graph g = complete(6);
  EXPECT_EQ(g.num_edges(), 15u);
  EXPECT_EQ(diameter(g), 1u);
}

TEST(Generators, Star) {
  const Graph g = star(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_EQ(g.degree(0), 6u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, CompleteBinaryTree) {
  const Graph g = complete_binary_tree(7);
  EXPECT_EQ(g.num_edges(), 6u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(diameter(g), 4u);  // leaf -> root -> leaf
}

TEST(Generators, Grid) {
  const Graph g = grid(3, 4);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_EQ(g.num_edges(), 3u * 3 + 2u * 4);  // 17
  EXPECT_EQ(diameter(g), 5u);                 // (3-1)+(4-1)
}

TEST(Generators, Torus) {
  const Graph g = torus(4, 4);
  EXPECT_EQ(g.num_nodes(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, Hypercube) {
  const Graph g = hypercube(4);
  EXPECT_EQ(g.num_nodes(), 16u);
  for (NodeId v = 0; v < 16; ++v) EXPECT_EQ(g.degree(v), 4u);
  EXPECT_EQ(diameter(g), 4u);
}

TEST(Generators, RingOfCliques) {
  const Graph g = ring_of_cliques(4, 5);
  EXPECT_EQ(g.num_nodes(), 20u);
  EXPECT_TRUE(g.connected());
  // Each clique contributes C(5,2)=10 edges plus 4 bridges.
  EXPECT_EQ(g.num_edges(), 4u * 10 + 4);
}

TEST(Generators, Dumbbell) {
  const Graph g = dumbbell(4, 3);
  EXPECT_EQ(g.num_nodes(), 11u);
  EXPECT_TRUE(g.connected());
  // Crossing the bridge dominates the diameter: 1 + (3+1) + 1.
  EXPECT_EQ(diameter(g), 6u);
}

TEST(Generators, RandomConnectedIsConnected) {
  util::Rng rng(5);
  for (int i = 0; i < 10; ++i) {
    const Graph g = random_connected(30, 0.05, rng);
    EXPECT_EQ(g.num_nodes(), 30u);
    EXPECT_TRUE(g.connected());
  }
}

TEST(Generators, RandomBoundedDiameterRespectsBound) {
  util::Rng rng(6);
  for (unsigned dmax : {2u, 3u, 4u}) {
    const Graph g = random_bounded_diameter(24, dmax, rng);
    EXPECT_LE(diameter(g), dmax);
    EXPECT_TRUE(g.connected());
  }
}

TEST(Generators, DamagedCliqueStaysConnected) {
  util::Rng rng(7);
  const Graph g = damaged_clique(20, 0.4, rng);
  EXPECT_TRUE(g.connected());
  EXPECT_LT(g.num_edges(), 190u);  // some edges dropped (whp)
}

TEST(Generators, Wheel) {
  const Graph g = wheel(8);  // hub + 7-cycle
  EXPECT_EQ(g.num_nodes(), 8u);
  EXPECT_EQ(g.degree(0), 7u);
  EXPECT_EQ(g.num_edges(), 14u);
  EXPECT_EQ(diameter(g), 2u);
}

TEST(Generators, Lollipop) {
  const Graph g = lollipop(5, 4);
  EXPECT_EQ(g.num_nodes(), 9u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_edges(), 10u + 4u);
  EXPECT_EQ(diameter(g), 5u);  // across the clique then down the tail
}

TEST(Generators, Caterpillar) {
  const Graph g = caterpillar(4, 2);
  EXPECT_EQ(g.num_nodes(), 12u);
  EXPECT_TRUE(g.connected());
  EXPECT_EQ(g.num_edges(), 3u + 8u);
  EXPECT_EQ(diameter(g), 5u);  // leg - spine(3 hops) - leg
}

// --- streaming builder differentials -----------------------------------------

/// Full accessor-level equality: same nodes, edges, degrees, neighbor slots.
void expect_graphs_identical(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.num_edges(), b.num_edges());
  EXPECT_EQ(a.max_degree(), b.max_degree());
  for (NodeId v = 0; v < a.num_nodes(); ++v) {
    ASSERT_EQ(a.degree(v), b.degree(v)) << "node " << v;
    const auto na = a.neighbors(v);
    const auto nb = b.neighbors(v);
    ASSERT_TRUE(std::equal(na.begin(), na.end(), nb.begin(), nb.end()))
        << "neighbor slot of node " << v;
  }
  const auto ea = a.edges();
  const auto eb = b.edges();
  EXPECT_TRUE(std::equal(ea.begin(), ea.end(), eb.begin(), eb.end()));
}

TEST(GraphBuilderDifferential, MatchesEdgeListConstructor) {
  // The streaming two-pass builder must produce accessor-identical graphs to
  // the edge-list constructor — including with deliberately duplicated and
  // unsorted input (both paths dedup + sort per slot).
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {3, 1}, {0, 1}, {1, 0}, {2, 4}, {4, 2}, {0, 4}, {1, 2}, {3, 1}};
  const Graph reference(5, edges);

  GraphBuilder b(5);
  for (const auto& [u, v] : edges) b.count_edge(u, v);
  b.finish_counting();
  for (const auto& [u, v] : edges) b.fill_edge(u, v);
  const Graph built = std::move(b).finish();

  expect_graphs_identical(reference, built);
}

TEST(GraphBuilderDifferential, SlackChangesLayoutNotSemantics) {
  const std::vector<std::pair<NodeId, NodeId>> edges = {
      {0, 1}, {1, 2}, {2, 3}, {3, 0}, {0, 2}};
  const Graph reference(4, edges);
  GraphBuilder b(4, {.slack = 0.75});
  for (const auto& [u, v] : edges) b.count_edge(u, v);
  b.finish_counting();
  for (const auto& [u, v] : edges) b.fill_edge(u, v);
  Graph slacked = std::move(b).finish();

  expect_graphs_identical(reference, slacked);
  EXPECT_GT(slacked.dynamic_memory_usage(), reference.dynamic_memory_usage());
  slacked.shrink_to_fit();
  expect_graphs_identical(reference, slacked);
}

TEST(GraphBuilderDifferential, FillingAnUncountedEdgeThrows) {
  GraphBuilder b(3);
  b.count_edge(0, 1);
  b.finish_counting();
  b.fill_edge(0, 1);
  EXPECT_THROW(b.fill_edge(1, 2), std::logic_error);
}

TEST(GraphBuilderDifferential, RandomFamiliesAreSeedDeterministic) {
  // The streaming generators replay their rng stream across the two passes;
  // the same seed must therefore yield accessor-identical graphs.
  {
    util::Rng a(123);
    util::Rng b(123);
    expect_graphs_identical(random_connected(200, 0.03, a),
                            random_connected(200, 0.03, b));
  }
  {
    util::Rng a(9);
    util::Rng b(9);
    expect_graphs_identical(damaged_clique(40, 0.3, a),
                            damaged_clique(40, 0.3, b));
  }
  {
    util::Rng a(77);
    util::Rng b(77);
    expect_graphs_identical(random_bounded_diameter(50, 3, a),
                            random_bounded_diameter(50, 3, b));
  }
}

/// FNV-1a over every neighbors() row (its length, then its ids) and the
/// edge count: a pin on the exact CSR a seed builds.
std::uint64_t csr_fingerprint(const Graph& g) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&h](std::uint64_t x) {
    h ^= x;
    h *= 0x100000001b3ULL;
  };
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto row = g.neighbors(v);
    mix(row.size());
    for (const NodeId u : row) mix(u);
  }
  mix(g.num_edges());
  return h;
}

TEST(GraphBuilderDifferential, RandomFamiliesMatchRecordedFingerprints) {
  // Recorded when sample_pairs still called Rng::geometric(p) per draw,
  // re-evaluating ln(1 - p) each time. Hoisting it must not change a single
  // skip: every seed keeps its graph, and the caller's rng ends where it did.
  struct Pin {
    std::uint64_t seed;
    std::uint64_t fingerprint;
    std::size_t edges;
    std::uint64_t next_draw;
  };
  for (const Pin& pin : {Pin{1, 0x5ae83d3c5d6e6a76ULL, 49745,
                             17667851736137863031ULL},
                         Pin{2, 0x1a084205c496ada2ULL, 49742,
                             12627831474260147685ULL},
                         Pin{3, 0x6d8a6deb95092f06ULL, 49759,
                             15429987093486659601ULL}}) {
    util::Rng rng(pin.seed);
    const Graph g = random_connected(10'000, 8e-4, rng);
    EXPECT_EQ(g.num_edges(), pin.edges) << "seed " << pin.seed;
    EXPECT_EQ(csr_fingerprint(g), pin.fingerprint) << "seed " << pin.seed;
    EXPECT_EQ(rng(), pin.next_draw) << "seed " << pin.seed;
  }
  {
    util::Rng rng(1);
    const Graph g = damaged_clique(256, 0.5, rng);
    EXPECT_EQ(g.num_edges(), 16235u);
    EXPECT_EQ(csr_fingerprint(g), 0xc242b147a75e5836ULL);
  }
  {
    util::Rng rng(1);
    const Graph g = random_bounded_diameter(200, 4, rng);
    EXPECT_EQ(g.num_edges(), 1269u);
    EXPECT_EQ(csr_fingerprint(g), 0x57d3e74f5ce8691dULL);
  }
}

TEST(Generators, EdgeProbabilityBoundaries) {
  // p <= 0 keeps no extra pair and p >= 1 keeps every pair, neither
  // drawing. A p so small that its first skip exceeds 2^64 keeps none
  // either: the skip saturates instead of overflowing its integer cast. NaN
  // is refused before any draw.
  const NodeId n = 64;
  const std::size_t all_pairs = std::size_t{n} * (n - 1) / 2;
  for (const double p : {0.0, -1.0, -std::numeric_limits<double>::infinity(),
                         1e-300, std::numeric_limits<double>::denorm_min()}) {
    util::Rng rng(5);
    EXPECT_EQ(random_connected(n, p, rng).num_edges(), n - 1u) << p;
  }
  for (const double p : {1.0, 2.0, std::numeric_limits<double>::infinity()}) {
    util::Rng rng(5);
    util::Rng tree_only(5);
    EXPECT_EQ(random_connected(n, p, rng).num_edges(), all_pairs) << p;
    (void)random_connected(n, 0.0, tree_only);
    EXPECT_EQ(rng(), tree_only()) << "p >= 1 must not draw";
  }
  {
    util::Rng rng(6);
    EXPECT_EQ(damaged_clique(n, 0.0, rng).num_edges(), all_pairs);
    EXPECT_EQ(damaged_clique(n, -3.0, rng).num_edges(), all_pairs);
    EXPECT_THROW(damaged_clique(n, 1.0, rng), std::runtime_error);
  }
  const double nan = std::numeric_limits<double>::quiet_NaN();
  util::Rng rng(7);
  util::Rng before = rng;
  EXPECT_THROW(random_connected(n, nan, rng), std::invalid_argument);
  EXPECT_THROW(damaged_clique(n, nan, rng), std::invalid_argument);
  EXPECT_EQ(rng(), before());
}

TEST(GraphBuilderDifferential, StreamingBuildLeavesEdgesCacheLazy) {
  // finish() must not materialize the lazy edges() cache; the first edges()
  // call is the one (audited) rebuild.
  util::Rng rng(31);
  const Graph g = random_connected(100, 0.05, rng);
  EXPECT_EQ(g.edges_rebuild_count(), 0u);
  (void)g.edges();
  EXPECT_EQ(g.edges_rebuild_count(), 1u);
  (void)g.edges();  // cached: no second rebuild
  EXPECT_EQ(g.edges_rebuild_count(), 1u);
}

TEST(Generators, InvalidParametersThrow) {
  EXPECT_THROW(grid(0, 3), std::invalid_argument);
  EXPECT_THROW(torus(2, 5), std::invalid_argument);
  EXPECT_THROW(hypercube(0), std::invalid_argument);
  EXPECT_THROW(ring_of_cliques(2, 3), std::invalid_argument);
  EXPECT_THROW(star(1), std::invalid_argument);
  EXPECT_THROW(wheel(3), std::invalid_argument);
  EXPECT_THROW(lollipop(1, 2), std::invalid_argument);
  EXPECT_THROW(caterpillar(0, 1), std::invalid_argument);
}

}  // namespace
}  // namespace ssau::graph
