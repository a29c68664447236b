// Tests for BFS metrics.
#include "graph/metrics.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <queue>
#include <utility>
#include <vector>

#include "graph/generators.hpp"

namespace ssau::graph {
namespace {

TEST(Metrics, BfsDistancesOnPath) {
  const Graph g = path(5);
  const auto d = bfs_distances(g, 0);
  for (NodeId v = 0; v < 5; ++v) EXPECT_EQ(d[v], v);
}

TEST(Metrics, BfsDistancesFromMiddle) {
  const Graph g = path(5);
  const auto d = bfs_distances(g, 2);
  EXPECT_EQ(d[0], 2u);
  EXPECT_EQ(d[2], 0u);
  EXPECT_EQ(d[4], 2u);
}

TEST(Metrics, BfsUnreachableIsInfinity) {
  const Graph g(3, {{0, 1}});
  const auto d = bfs_distances(g, 0);
  EXPECT_EQ(d[2], std::numeric_limits<std::uint32_t>::max());
}

TEST(Metrics, BfsRejectsAnOutOfRangeSource) {
  EXPECT_THROW((void)bfs_distances(path(4), 7), std::invalid_argument);
  EXPECT_THROW((void)bfs_distances(path(4), 4), std::invalid_argument);
  EXPECT_THROW((void)eccentricity(path(4), 4), std::invalid_argument);
  EXPECT_THROW((void)bfs_distances(Graph(0, {}), 0), std::invalid_argument);
  EXPECT_EQ(bfs_distances(path(4), 3).front(), 3u);
}

TEST(Metrics, BfsAgreesWithTextbookBfs) {
  // The prefetching BFS against the textbook std::queue one, on connected
  // and fragmented random graphs from several sources.
  const auto reference = [](const Graph& g, NodeId src) {
    std::vector<std::uint32_t> dist(g.num_nodes(),
                                    std::numeric_limits<std::uint32_t>::max());
    std::queue<NodeId> frontier;
    dist[src] = 0;
    frontier.push(src);
    while (!frontier.empty()) {
      const NodeId v = frontier.front();
      frontier.pop();
      for (const NodeId u : g.neighbors(v)) {
        if (dist[u] == std::numeric_limits<std::uint32_t>::max()) {
          dist[u] = dist[v] + 1;
          frontier.push(u);
        }
      }
    }
    return dist;
  };
  util::Rng rng(3);
  const Graph connected = random_connected(3000, 3.0 / 3000, rng);
  const Graph fragmented = without_edges(connected, [&] {
    std::vector<std::pair<NodeId, NodeId>> cut;
    for (NodeId v = 0; v < 3000; v += 3) {
      for (const NodeId u : connected.neighbors(v)) cut.emplace_back(v, u);
    }
    return cut;
  }());
  ASSERT_FALSE(fragmented.connected());
  for (const Graph* g : {&connected, &fragmented}) {
    for (const NodeId src : {0u, 1u, 1234u, 2999u}) {
      EXPECT_EQ(bfs_distances(*g, src), reference(*g, src)) << src;
    }
  }
  // eccentricity must read the deepest level, and component_labels must
  // group exactly the mutually reachable nodes.
  for (const NodeId src : {0u, 1u, 1234u, 2999u}) {
    const auto dist = reference(connected, src);
    EXPECT_EQ(eccentricity(connected, src),
              *std::max_element(dist.begin(), dist.end()));
    EXPECT_THROW((void)eccentricity(fragmented, src), std::runtime_error);
  }
  const auto label = component_labels(fragmented);
  for (const NodeId src : {0u, 1u, 1234u, 2999u}) {
    const auto dist = reference(fragmented, src);
    for (NodeId v = 0; v < fragmented.num_nodes(); ++v) {
      ASSERT_EQ(label[v] == label[src],
                dist[v] != std::numeric_limits<std::uint32_t>::max())
          << src << " -> " << v;
    }
  }
}

TEST(Metrics, EccentricityOfPathEnd) {
  EXPECT_EQ(eccentricity(path(6), 0), 5u);
  EXPECT_EQ(eccentricity(path(6), 3), 3u);
}

TEST(Metrics, EccentricityThrowsOnDisconnected) {
  const Graph g(3, {{0, 1}});
  EXPECT_THROW((void)eccentricity(g, 0), std::runtime_error);
}

TEST(Metrics, DiameterMatchesKnownFamilies) {
  EXPECT_EQ(diameter(complete(10)), 1u);
  EXPECT_EQ(diameter(star(10)), 2u);
  EXPECT_EQ(diameter(cycle(10)), 5u);
  EXPECT_EQ(diameter(path(10)), 9u);
  EXPECT_EQ(diameter(grid(4, 4)), 6u);
}

TEST(Metrics, SingletonDiameterIsZero) {
  EXPECT_EQ(diameter(path(1)), 0u);
}

TEST(Metrics, DiameterAtMostIsExact) {
  EXPECT_TRUE(diameter_at_most(path(10), 9));
  EXPECT_FALSE(diameter_at_most(path(10), 8));
  EXPECT_TRUE(diameter_at_most(cycle(10), 5));
  EXPECT_FALSE(diameter_at_most(cycle(10), 4));
  EXPECT_TRUE(diameter_at_most(complete(6), 1));
  EXPECT_TRUE(diameter_at_most(path(1), 0));
  // Quick-accept path: 2 * ecc(0) already fits the bound.
  EXPECT_TRUE(diameter_at_most(cycle(10), 10));
  // Gray-zone rejection: ecc(0) = 1 fits bound 1, but a leaf-to-leaf
  // distance of 2 must still be found by the all-sources scan.
  EXPECT_FALSE(diameter_at_most(star(7), 1));
  // Disconnected: beyond any finite bound.
  EXPECT_FALSE(diameter_at_most(Graph(4, {{0, 1}, {2, 3}}), 100));
  const Graph l = lollipop(5, 6);
  EXPECT_TRUE(diameter_at_most(l, diameter(l)));
  EXPECT_FALSE(diameter_at_most(l, diameter(l) - 1));
}

TEST(Metrics, ComponentLabelsNumberByLowestNodeId) {
  const Graph g(6, {{0, 1}, {2, 3}, {3, 4}});
  const auto label = component_labels(g);
  const std::vector<std::uint32_t> want = {0, 0, 1, 1, 1, 2};
  EXPECT_EQ(label, want);
  EXPECT_TRUE(component_labels(Graph(0, {})).empty());
}

TEST(Metrics, ComponentDiametersMeasurePartitionedTopologies) {
  // A path, a triangle, and an isolated node: diameters 3, 1, 0 — the
  // churn-friendly replacement for diameter()'s disconnected throw.
  const Graph g(8, {{0, 1}, {1, 2}, {2, 3}, {4, 5}, {5, 6}, {4, 6}});
  const auto diams = component_diameters(g);
  const std::vector<std::uint32_t> want = {3, 1, 0};
  EXPECT_EQ(diams, want);
}

TEST(Metrics, ComponentDiametersAgreeWithDiameterWhenConnected) {
  for (const Graph& g : {cycle(9), star(7), grid(3, 4)}) {
    const auto diams = component_diameters(g);
    ASSERT_EQ(diams.size(), 1u);
    EXPECT_EQ(diams.front(), diameter(g));
  }
}

TEST(Metrics, ComponentDiametersTrackChurn) {
  // Cutting a cycle in two places leaves two arcs whose diameters
  // component_diameters reports without a try/catch dance.
  Graph g = cycle(10);
  g.apply_delta({.remove = {{0, 9}, {4, 5}}, .add = {}});
  const auto diams = component_diameters(g);
  const std::vector<std::uint32_t> want = {4, 4};
  EXPECT_EQ(diams, want);
  EXPECT_THROW((void)diameter(g), std::runtime_error);
}

}  // namespace
}  // namespace ssau::graph
