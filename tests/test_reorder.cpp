// Cache-aware reordering: the graph::reorder module's contracts (bijection,
// adjacency preservation, composition, the locality metric, and the
// never-touch-edges() guarantee) plus the engine-level permutation-
// equivalence differential suite — a reordered engine must walk the
// trajectory of an unreordered engine over the SAME internal layout, with
// every public id translated at the boundary. The oracle construction:
//
//   subject   = Engine over reorder_graph(g0), driven through USER ids
//   baseline  = Engine over a plain graph with the IDENTICAL internal CSR
//               (rebuilt from the subject graph's neighbor spans, no
//               relabelling attached) and the hand-permuted C_0
//
// Same seed, same scheduler kind, same options: every kernel sees the same
// layout, the scheduler stream and the (seed, internal node, activation)
// draw streams coincide, so the two engines are bit-identical internally —
// including randomized automata — and the subject's user-space observables
// must equal the baseline's observables mapped through the permutation.
#include "graph/reorder.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <tuple>
#include <vector>

#include "core/adversary.hpp"
#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_monitor.hpp"
#include "unison/au_potential.hpp"
#include "unison/baselines.hpp"
#include "unison/failed_au.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace ssau {
namespace {

using core::Configuration;
using core::Engine;
using core::EngineOptions;
using core::ReorderMode;
using core::SignalFieldMode;
using graph::Graph;
using graph::NodeId;
using graph::ReorderPolicy;

// --- reorder module ----------------------------------------------------------

Graph random_graph(NodeId n, double avg_degree, std::uint64_t seed) {
  util::Rng rng(seed);
  return graph::random_connected(n, avg_degree / static_cast<double>(n), rng);
}

void expect_permutation(const std::vector<NodeId>& perm, NodeId n) {
  ASSERT_EQ(perm.size(), n);
  std::vector<std::uint8_t> seen(n, 0);
  for (const NodeId p : perm) {
    ASSERT_LT(p, n);
    EXPECT_EQ(seen[p], 0);
    seen[p] = 1;
  }
}

TEST(Reorder, PermutationIsBijective) {
  const Graph g = random_graph(500, 6.0, 1);
  for (const ReorderPolicy policy :
       {ReorderPolicy::kBfs, ReorderPolicy::kDegree}) {
    expect_permutation(reorder_permutation(g, policy), g.num_nodes());
  }
}

TEST(Reorder, ReorderedGraphIsIsomorphicUnderThePermutation) {
  const Graph g = random_graph(300, 5.0, 2);
  for (const ReorderPolicy policy :
       {ReorderPolicy::kBfs, ReorderPolicy::kDegree}) {
    const auto perm = reorder_permutation(g, policy);
    const Graph r = reorder_graph(g, perm);
    ASSERT_EQ(r.num_nodes(), g.num_nodes());
    ASSERT_EQ(r.num_edges(), g.num_edges());
    ASSERT_TRUE(r.reordered());
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(r.degree(perm[v]), g.degree(v));
      for (const NodeId u : g.neighbors(v)) {
        EXPECT_TRUE(r.has_edge(perm[v], perm[u]));
      }
      // Source was identity-layout, so user id v sits at internal perm[v].
      EXPECT_EQ(r.to_internal(v), perm[v]);
      EXPECT_EQ(r.to_user(perm[v]), v);
    }
  }
}

TEST(Reorder, RepeatedReordersComposeAndKeepUserIdsStable) {
  const Graph g = random_graph(200, 5.0, 3);
  const Graph once = reorder_graph(g, ReorderPolicy::kDegree);
  const Graph twice = reorder_graph(once, ReorderPolicy::kBfs);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    // User id v still denotes the original node: its degree is invariant
    // and its neighborhood maps across both relabellings.
    EXPECT_EQ(twice.degree(twice.to_internal(v)), g.degree(v));
    for (const NodeId u : g.neighbors(v)) {
      EXPECT_TRUE(
          twice.has_edge(twice.to_internal(v), twice.to_internal(u)));
    }
    EXPECT_EQ(twice.to_user(twice.to_internal(v)), v);
  }
}

TEST(Reorder, RejectsNonPermutations) {
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(reorder_graph(g, std::vector<NodeId>{0, 1, 2}),
               std::invalid_argument);  // wrong size
  EXPECT_THROW(reorder_graph(g, std::vector<NodeId>{0, 1, 2, 2}),
               std::invalid_argument);  // duplicate
  EXPECT_THROW(reorder_graph(g, std::vector<NodeId>{0, 1, 2, 4}),
               std::invalid_argument);  // out of range
}

TEST(Reorder, AttachPermutationValidatesMutualInverse) {
  Graph g(3, {{0, 1}, {1, 2}});
  EXPECT_THROW(g.attach_permutation({0, 1}, {0, 1, 2}), std::invalid_argument);
  EXPECT_THROW(g.attach_permutation({0, 1, 2}, {1, 0, 2}),
               std::invalid_argument);  // not the inverse
  g.attach_permutation({1, 0, 2}, {1, 0, 2});
  EXPECT_TRUE(g.reordered());
  g.attach_permutation({}, {});  // explicit reset to identity
  EXPECT_FALSE(g.reordered());
}

// The reorder-quality gate: BFS reordering strictly lowers the mean
// neighbor-id distance — the direct proxy for gather locality — on both a
// random graph (natural labels are already random) and a geometric graph
// whose natural locality has been destroyed by a random relabelling.
TEST(Reorder, BfsLowersAverageNeighborDistance) {
  {
    const Graph g = random_graph(4000, 8.0, 4);
    const double before = average_neighbor_distance(g);
    const double after =
        average_neighbor_distance(reorder_graph(g, ReorderPolicy::kBfs));
    EXPECT_LT(after, before);
  }
  {
    util::Rng rng(5);
    const Graph natural = graph::torus(60, 60);
    std::vector<NodeId> shuffle(natural.num_nodes());
    std::iota(shuffle.begin(), shuffle.end(), NodeId{0});
    for (NodeId i = natural.num_nodes(); i > 1; --i) {
      std::swap(shuffle[i - 1], shuffle[rng.below(i)]);
    }
    const Graph scrambled = reorder_graph(natural, shuffle);
    const double before = average_neighbor_distance(scrambled);
    const double after = average_neighbor_distance(
        reorder_graph(scrambled, ReorderPolicy::kBfs));
    EXPECT_LT(after, before);
  }
}

// Satellite invariant: the whole reorder pipeline — permutation, rebuild,
// engine construction over the result — must never trigger the lazy edges()
// rebuild on either graph.
TEST(Reorder, NeverTriggersLazyEdgesRebuild) {
  Graph g = random_graph(400, 6.0, 6);
  static_cast<void>(g.edges());  // materialize the cache once
  const std::uint64_t before = g.edges_rebuild_count();
  Graph r = reorder_graph(g, ReorderPolicy::kBfs);
  EXPECT_EQ(g.edges_rebuild_count(), before);
  EXPECT_EQ(r.edges_rebuild_count(), 0u);

  const unison::AlgAu alg(3);
  auto sched = sched::make_scheduler("synchronous", r);
  Engine engine(r, alg, *sched, Configuration(r.num_nodes(), 0), 7,
                EngineOptions{.reorder = ReorderMode::kOff});
  engine.run_rounds(3);
  EXPECT_EQ(r.edges_rebuild_count(), 0u);

  Graph fresh = random_graph(400, 6.0, 6);
  auto sched2 = sched::make_scheduler("synchronous", fresh);
  Engine reordering(fresh, alg, *sched2, Configuration(fresh.num_nodes(), 0),
                    7, EngineOptions{.reorder = ReorderMode::kBfs});
  reordering.run_rounds(3);
  EXPECT_EQ(fresh.edges_rebuild_count(), 0u);
}

// --- exactness against the reference implementations -------------------------
//
// reorder_permutation counting-sorts its seeds and sorts packed frontier
// keys, and reorder_graph relabels row by row. The straightforward versions
// they replaced live on here as references — a comparator sort, a stable
// sort and a two-pass GraphBuilder edge scatter — and the fast code must
// reproduce them exactly: permutation, every row, the degree statistics,
// the slot layout and both id maps.

namespace reference {

std::vector<NodeId> bfs_order(const Graph& g) {
  const NodeId n = g.num_nodes();
  std::vector<NodeId> order;
  order.reserve(n);
  std::vector<std::uint8_t> visited(n, 0);
  std::vector<NodeId> seeds(n);
  std::iota(seeds.begin(), seeds.end(), NodeId{0});
  std::sort(seeds.begin(), seeds.end(), [&](NodeId a, NodeId b) {
    const auto da = g.degree(a), db = g.degree(b);
    return da != db ? da < db : a < b;
  });
  std::vector<NodeId> sorted_nb;
  std::size_t head = 0;
  for (const NodeId seed : seeds) {
    if (visited[seed]) continue;
    visited[seed] = 1;
    order.push_back(seed);
    while (head < order.size()) {
      const NodeId v = order[head++];
      sorted_nb.clear();
      for (const NodeId u : g.neighbors(v)) {
        if (!visited[u]) sorted_nb.push_back(u);
      }
      std::sort(sorted_nb.begin(), sorted_nb.end(), [&](NodeId a, NodeId b) {
        const auto da = g.degree(a), db = g.degree(b);
        return da != db ? da < db : a < b;
      });
      for (const NodeId u : sorted_nb) {
        visited[u] = 1;
        order.push_back(u);
      }
    }
  }
  return order;
}

std::vector<NodeId> degree_order(const Graph& g) {
  std::vector<NodeId> order(g.num_nodes());
  std::iota(order.begin(), order.end(), NodeId{0});
  std::stable_sort(order.begin(), order.end(), [&](NodeId a, NodeId b) {
    return g.degree(a) > g.degree(b);
  });
  return order;
}

std::vector<NodeId> permutation(const Graph& g, ReorderPolicy policy) {
  const std::vector<NodeId> order =
      policy == ReorderPolicy::kBfs ? bfs_order(g) : degree_order(g);
  std::vector<NodeId> perm(g.num_nodes());
  for (NodeId k = 0; k < g.num_nodes(); ++k) perm[order[k]] = k;
  return perm;
}

Graph reorder_graph(const Graph& g, const std::vector<NodeId>& perm,
                    graph::GraphOptions options) {
  const NodeId n = g.num_nodes();
  graph::GraphBuilder b(n, options);
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (v < u) b.count_edge(perm[v], perm[u]);
    }
  }
  b.finish_counting();
  for (NodeId v = 0; v < n; ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (v < u) b.fill_edge(perm[v], perm[u]);
    }
  }
  Graph out = std::move(b).finish();
  std::vector<NodeId> to_internal(n);
  std::vector<NodeId> to_user(n);
  for (NodeId u = 0; u < n; ++u) {
    const NodeId i = perm[g.to_internal(u)];
    to_internal[u] = i;
    to_user[i] = u;
  }
  out.attach_permutation(std::move(to_internal), std::move(to_user));
  return out;
}

}  // namespace reference

void expect_identical_layout(const Graph& got, const Graph& want) {
  ASSERT_EQ(got.num_nodes(), want.num_nodes());
  EXPECT_EQ(got.num_edges(), want.num_edges());
  EXPECT_EQ(got.max_degree(), want.max_degree());
  EXPECT_EQ(got.avg_degree(), want.avg_degree());
  // Equal heap footprints: the same slot capacities (slack included), the
  // same histogram and the same id maps, with no extra array retained.
  EXPECT_EQ(got.dynamic_memory_usage(), want.dynamic_memory_usage());
  for (NodeId v = 0; v < got.num_nodes(); ++v) {
    const auto a = got.neighbors(v);
    const auto b = want.neighbors(v);
    ASSERT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << "row " << v;
  }
  EXPECT_TRUE(std::ranges::equal(got.permutation(), want.permutation()));
  EXPECT_TRUE(std::ranges::equal(got.inverse_permutation(),
                                 want.inverse_permutation()));
}

void expect_matches_reference(const Graph& g, graph::GraphOptions options) {
  for (const ReorderPolicy policy :
       {ReorderPolicy::kBfs, ReorderPolicy::kDegree}) {
    SCOPED_TRACE(policy == ReorderPolicy::kBfs ? "bfs" : "degree");
    const std::vector<NodeId> perm = reorder_permutation(g, policy);
    ASSERT_EQ(perm, reference::permutation(g, policy));
    const Graph got = reorder_graph(g, perm, options);
    expect_identical_layout(got, reference::reorder_graph(g, perm, options));
    // The churn-facing degree histogram must match too: strip every edge
    // of the top-degree node and the maintained maximum must walk down alike.
    Graph got_churned = got;
    Graph want_churned = reference::reorder_graph(g, perm, options);
    NodeId hub = 0;
    for (NodeId v = 1; v < g.num_nodes(); ++v) {
      if (got.degree(v) > got.degree(hub)) hub = v;
    }
    graph::TopologyDelta cut;
    if (g.num_nodes() > 0) {
      for (const NodeId u : got.neighbors(hub)) cut.remove.emplace_back(hub, u);
    }
    got_churned.apply_delta(cut);
    want_churned.apply_delta(cut);
    EXPECT_EQ(got_churned.max_degree(), want_churned.max_degree());
  }
}

TEST(ReorderReference, DegreeTiesOnRegularAndRandomGraphs) {
  expect_matches_reference(graph::torus(30, 40), {});  // all degrees tie
  expect_matches_reference(graph::hypercube(9), {});
  expect_matches_reference(graph::star(50), {});
  // Dense rows (32 and 33 entries), every pair of degrees tied.
  expect_matches_reference(graph::complete(33), {});
  expect_matches_reference(graph::complete(34), {});
  expect_matches_reference(graph::caterpillar(40, 3), {});
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    expect_matches_reference(random_graph(3000, 7.0, seed), {});
  }
}

TEST(ReorderReference, ArbitraryPermutationsMatch) {
  // reorder_graph takes any permutation, not only the locality orders: a
  // uniform shuffle maps every row, short or long, to an unsorted image.
  util::Rng rng(29);
  for (const Graph& g : {random_graph(600, 50.0, 30),
                         random_graph(2000, 7.0, 31), graph::complete(40)}) {
    std::vector<NodeId> shuffle(g.num_nodes());
    std::iota(shuffle.begin(), shuffle.end(), NodeId{0});
    for (NodeId i = g.num_nodes(); i > 1; --i) {
      std::swap(shuffle[i - 1], shuffle[rng.below(i)]);
    }
    for (const double slack : {0.0, 0.5}) {
      expect_identical_layout(
          reorder_graph(g, shuffle, {.slack = slack}),
          reference::reorder_graph(g, shuffle, {.slack = slack}));
    }
  }
}

TEST(ReorderReference, SeveralComponentsAndIsolatedNodes) {
  // A sparse G(n, m) draw below the connectivity threshold: a giant
  // component, small trees and isolated nodes, entered seed by seed.
  util::Rng rng(17);
  const NodeId n = 2000;
  std::vector<std::pair<NodeId, NodeId>> edges;
  for (int i = 0; i < 900; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u != v) edges.emplace_back(u, v);
  }
  const Graph g(n, std::move(edges));
  const auto labels = graph::component_labels(g);
  ASSERT_GT(*std::max_element(labels.begin(), labels.end()), 100u);
  expect_matches_reference(g, {});
  expect_matches_reference(Graph(5, {}), {});  // edgeless
  expect_matches_reference(Graph(0, {}), {});  // empty
}

TEST(ReorderReference, SlackLayoutsMatch) {
  const Graph g = random_graph(2500, 6.0, 21);
  expect_matches_reference(g, {.slack = 0.5});
  expect_matches_reference(g, {.slack = 2.0});
}

TEST(ReorderReference, ReorderedAndChurnedSourcesMatch) {
  // An already-reordered source composes its maps; a churned one reads
  // rows from relocated slots with slack and dead pool entries.
  const Graph g = random_graph(2500, 6.0, 22);
  expect_matches_reference(reorder_graph(g, ReorderPolicy::kDegree), {});
  expect_matches_reference(reorder_graph(g, ReorderPolicy::kBfs), {});
  Graph churned = g;
  util::Rng rng(23);
  graph::TopologyDelta delta;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<NodeId>(rng.below(g.num_nodes()));
    const auto v = static_cast<NodeId>(rng.below(g.num_nodes()));
    if (u == v) continue;
    (i % 3 == 0 ? delta.remove : delta.add).emplace_back(u, v);
  }
  for (const NodeId u : g.neighbors(0)) delta.remove.emplace_back(0, u);
  churned.apply_delta(delta);
  expect_matches_reference(churned, {});
  expect_matches_reference(reorder_graph(churned, ReorderPolicy::kBfs),
                           {.slack = 0.25});
}

// --- shard sizing -------------------------------------------------------------

TEST(ShardSizing, RecommendedShardCountScalesWithFootprint) {
  {
    const Graph tiny = random_graph(500, 6.0, 61);  // ~17 KiB working set
    EXPECT_EQ(core::recommended_shard_count(tiny, 8), 1u);
    EXPECT_EQ(core::recommended_shard_count(tiny, 1), 1u);
  }
  {
    const Graph mid = random_graph(120000, 8.0, 62);  // a few MiB
    const unsigned k = core::recommended_shard_count(mid, 16);
    EXPECT_GT(k, 1u);
    EXPECT_LE(k, 16u);
    // Monotone in the budget: a bigger budget never yields fewer shards.
    EXPECT_GE(core::recommended_shard_count(mid, 32),
              core::recommended_shard_count(mid, 8));
  }
  {
    // Past ~budget * kMinShardFootprintBytes the full budget is used.
    const Graph big = random_graph(400000, 10.0, 63);
    EXPECT_EQ(core::recommended_shard_count(big, 8), 8u);
  }
}

// --- EngineOptions::reorder routing -----------------------------------------

TEST(EngineReorder, AutoEngagesOnlyAtScale) {
  const unison::AlgAu alg(3);
  {
    Graph small = random_graph(1000, 6.0, 8);
    auto sched = sched::make_scheduler("synchronous", small);
    Engine e(small, alg, *sched, Configuration(small.num_nodes(), 0), 9);
    EXPECT_FALSE(small.reordered());
  }
  {
    Graph big = random_graph(70000, 4.0, 8);
    auto sched = sched::make_scheduler("synchronous", big);
    Engine e(big, alg, *sched, Configuration(big.num_nodes(), 0), 9);
    EXPECT_TRUE(big.reordered());
    e.run_rounds(2);
    EXPECT_EQ(e.rounds_completed(), 2u);
  }
}

TEST(EngineReorder, ConstGraphAndPreReorderedGraphAreLeftAlone) {
  const unison::AlgAu alg(3);
  const Graph g = random_graph(300, 5.0, 10);
  auto sched = sched::make_scheduler("synchronous", g);
  // Const overload: the option cannot (and does not) rebuild the graph.
  Engine e(g, alg, *sched, Configuration(g.num_nodes(), 0), 11,
           EngineOptions{.reorder = ReorderMode::kBfs});
  EXPECT_FALSE(g.reordered());

  Graph pre = reorder_graph(g, ReorderPolicy::kBfs);
  const std::vector<NodeId> perm(pre.permutation().begin(),
                                 pre.permutation().end());
  auto sched2 = sched::make_scheduler("synchronous", pre);
  Engine e2(pre, alg, *sched2, Configuration(pre.num_nodes(), 0), 11,
            EngineOptions{.reorder = ReorderMode::kBfs});
  ASSERT_TRUE(pre.reordered());
  EXPECT_TRUE(std::equal(perm.begin(), perm.end(),
                         pre.permutation().begin()));  // not compounded
}

// --- permutation-equivalence differential suite ------------------------------

/// A plain graph with exactly the subject's internal CSR and no relabelling:
/// the baseline substrate of the differential oracle.
Graph strip_permutation(const Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> edges;
  edges.reserve(g.num_edges());
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const NodeId u : g.neighbors(v)) {
      if (v < u) edges.push_back({v, u});
    }
  }
  return Graph(g.num_nodes(), std::move(edges));
}

struct EquivalenceCell {
  std::string scheduler;
  unsigned threads = 1;
  SignalFieldMode field = SignalFieldMode::kOff;
  std::uint64_t steps = 200;
};

/// Drives subject (reordered) and baseline (same layout, identity ids) in
/// lockstep and compares every user-visible observable through the
/// permutation. `churn_at` nonzero applies one adversarial topology delta
/// (in user ids to the subject, translated to the baseline) mid-run, so the
/// equivalence is also held across a churn event.
void run_equivalence_cell(const core::Automaton& alg, const EquivalenceCell& c,
                          std::uint64_t seed, std::uint64_t churn_at = 0) {
  SCOPED_TRACE(c.scheduler + " threads=" + std::to_string(c.threads) +
               " field=" + std::to_string(static_cast<int>(c.field)) +
               (churn_at != 0 ? " churn" : ""));
  const NodeId n = 200;
  util::Rng rng(seed);
  const Graph g0 = graph::random_connected(n, 14.0 / n, rng);
  const Configuration c0 = core::random_configuration(alg, n, rng);

  EngineOptions opts;
  opts.thread_count = c.threads;
  opts.sparse_activation_threshold = 64;  // let random-subset shard at n=200
  opts.signal_field = c.field;

  Graph subject_graph = g0;
  auto subject_sched = sched::make_scheduler(c.scheduler, subject_graph);
  EngineOptions subject_opts = opts;
  subject_opts.reorder = ReorderMode::kBfs;
  Engine subject(subject_graph, alg, *subject_sched, c0, seed, subject_opts);
  ASSERT_TRUE(subject_graph.reordered());

  Graph baseline_graph = strip_permutation(subject_graph);
  Configuration baseline_c0(n);
  for (NodeId i = 0; i < n; ++i) {
    baseline_c0[i] = c0[subject_graph.to_user(i)];
  }
  auto baseline_sched = sched::make_scheduler(c.scheduler, baseline_graph);
  EngineOptions baseline_opts = opts;
  baseline_opts.reorder = ReorderMode::kOff;  // mutable overload: no rebuild
  Engine baseline(baseline_graph, alg, *baseline_sched,
                  std::move(baseline_c0), seed, baseline_opts);
  ASSERT_FALSE(baseline_graph.reordered());

  const auto compare = [&] {
    ASSERT_EQ(subject.time(), baseline.time());
    ASSERT_EQ(subject.rounds_completed(), baseline.rounds_completed());
    const Configuration& user = subject.config();
    for (NodeId v = 0; v < n; ++v) {
      const NodeId i = subject_graph.to_internal(v);
      ASSERT_EQ(subject.state_of(v), baseline.state_of(i)) << "node " << v;
      ASSERT_EQ(user[v], baseline.state_of(i)) << "node " << v;
      ASSERT_EQ(subject.activation_count(v), baseline.activation_count(i))
          << "node " << v;
    }
  };

  std::uint64_t done = 0;
  const auto advance = [&](std::uint64_t until) {
    for (; done < until; ++done) {
      subject.step();
      baseline.step();
    }
  };
  if (churn_at != 0 && churn_at < c.steps) {
    advance(churn_at);
    util::Rng churn_rng(seed ^ 0x9E3779B97F4A7C15ULL);
    core::ChurnAdversary adversary(subject_graph,
                                   {.fail_p = 0.2, .heal_p = 0.5});
    const graph::TopologyDelta user_delta = adversary.next_event(churn_rng);
    ASSERT_FALSE(user_delta.empty());
    graph::TopologyDelta internal_delta;
    for (const auto& [u, v] : user_delta.remove) {
      internal_delta.remove.emplace_back(subject_graph.to_internal(u),
                                         subject_graph.to_internal(v));
    }
    for (const auto& [u, v] : user_delta.add) {
      internal_delta.add.emplace_back(subject_graph.to_internal(u),
                                      subject_graph.to_internal(v));
    }
    subject.apply_topology_delta(user_delta);
    baseline.apply_topology_delta(internal_delta);
    compare();
  }
  advance(c.steps / 2);
  compare();
  advance(c.steps);
  compare();
}

const char* const kAllSchedulers[] = {
    "synchronous", "uniform-single", "random-subset", "rotating-single",
    "laggard",     "wave",           "permutation",   "burst"};

TEST(PermutationEquivalence, AlgAuAllSchedulersAllThreadCounts) {
  const unison::AlgAu alg(3);
  for (const char* sched : kAllSchedulers) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const SignalFieldMode field :
           {SignalFieldMode::kOff, SignalFieldMode::kOn}) {
        run_equivalence_cell(alg, {sched, threads, field, 160}, 21);
      }
    }
  }
}

TEST(PermutationEquivalence, AlgMisAllSchedulersAllThreadCounts) {
  // Randomized δ: the sharpest probe of the internal-id-keyed draw streams.
  const mis::AlgMis alg(mis::AlgMisParams{});
  for (const char* sched : kAllSchedulers) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const SignalFieldMode field :
           {SignalFieldMode::kOff, SignalFieldMode::kOn}) {
        run_equivalence_cell(alg, {sched, threads, field, 120}, 22);
      }
    }
  }
}

TEST(PermutationEquivalence, AlgLeAllSchedulersAllThreadCounts) {
  const le::AlgLe alg(le::AlgLeParams{});
  for (const char* sched : kAllSchedulers) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      for (const SignalFieldMode field :
           {SignalFieldMode::kOff, SignalFieldMode::kOn}) {
        run_equivalence_cell(alg, {sched, threads, field, 120}, 23);
      }
    }
  }
}

TEST(PermutationEquivalence, HoldsAcrossChurnEvents) {
  const unison::AlgAu alg(3);
  for (const char* sched : {"uniform-single", "random-subset", "wave"}) {
    for (const unsigned threads : {1u, 4u}) {
      run_equivalence_cell(alg, {sched, threads, SignalFieldMode::kOff, 160},
                           24, /*churn_at=*/80);
    }
  }
  const mis::AlgMis mis_alg(mis::AlgMisParams{});
  run_equivalence_cell(mis_alg,
                       {"random-subset", 2, SignalFieldMode::kOn, 120}, 25,
                       /*churn_at=*/60);
}

// Listener streams cross the boundary too: a reordered engine must report
// the same transitions at the same times under USER ids, in the same order.
TEST(PermutationEquivalence, ListenerStreamsMatchUnderUserIds) {
  using Record = std::tuple<NodeId, core::StateId, core::StateId, core::Time>;
  const unison::AlgAu alg(3);
  for (const char* sched : {"synchronous", "uniform-single"}) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(sched) + " threads=" + std::to_string(threads));
      const NodeId n = 150;
      util::Rng rng(31);
      const Graph g0 = graph::random_connected(n, 12.0 / n, rng);
      const Configuration c0 = core::random_configuration(alg, n, rng);

      EngineOptions opts;
      opts.thread_count = threads;
      Graph subject_graph = g0;
      auto subject_sched = sched::make_scheduler(sched, subject_graph);
      EngineOptions subject_opts = opts;
      subject_opts.reorder = ReorderMode::kBfs;
      Engine subject(subject_graph, alg, *subject_sched, c0, 32, subject_opts);
      ASSERT_TRUE(subject_graph.reordered());

      const Graph baseline_graph = strip_permutation(subject_graph);
      Configuration baseline_c0(n);
      for (NodeId i = 0; i < n; ++i) {
        baseline_c0[i] = c0[subject_graph.to_user(i)];
      }
      auto baseline_sched = sched::make_scheduler(sched, baseline_graph);
      EngineOptions baseline_opts = opts;
      baseline_opts.reorder = ReorderMode::kOff;
      Engine baseline(baseline_graph, alg, *baseline_sched,
                      std::move(baseline_c0), 32, baseline_opts);

      std::vector<Record> subject_stream;
      std::vector<Record> baseline_stream;
      subject.set_transition_listener(
          [&](NodeId v, core::StateId from, core::StateId to,
              const core::Signal&, core::Time t) {
            subject_stream.emplace_back(v, from, to, t);
          });
      baseline.set_transition_listener(
          [&](NodeId v, core::StateId from, core::StateId to,
              const core::Signal&, core::Time t) {
            baseline_stream.emplace_back(subject_graph.to_user(v), from, to,
                                         t);
          });
      for (int s = 0; s < 60; ++s) {
        subject.step();
        baseline.step();
      }
      EXPECT_EQ(subject_stream, baseline_stream);
    }
  }
}

// --- user-space API semantics on a reordered engine --------------------------

TEST(EngineReorder, InjectionsAndQueriesSpeakUserIds) {
  const unison::AlgAu alg(5);
  const NodeId n = 240;
  util::Rng rng(41);
  Graph g = graph::random_connected(n, 10.0 / n, rng);
  auto sched = sched::make_scheduler("uniform-single", g);
  Engine e(g, alg, *sched, Configuration(n, 0), 42,
           EngineOptions{.reorder = ReorderMode::kBfs});
  ASSERT_TRUE(g.reordered());

  Configuration injected = core::random_configuration(alg, n, rng);
  e.inject_configuration(injected);
  EXPECT_EQ(e.config(), injected);
  for (NodeId v = 0; v < n; v += 17) {
    EXPECT_EQ(e.state_of(v), injected[v]);
  }

  e.inject_state(7, 3);
  EXPECT_EQ(e.state_of(7), 3u);
  // signal_of(v) senses v's USER neighborhood: exactly the distinct states
  // of v and its user-id neighbors.
  std::vector<core::StateId> sensed{e.state_of(7)};
  for (const NodeId nb : g.neighbors(g.to_internal(7))) {
    sensed.push_back(e.state_of(g.to_user(nb)));
  }
  EXPECT_EQ(e.signal_of(7), core::Signal::from_states(std::move(sensed)));
  EXPECT_THROW(e.inject_state(n, 0), std::invalid_argument);
}

// --- snapshot round trip with a permutation ----------------------------------

TEST(EngineReorder, SnapshotRoundTripCarriesThePermutation) {
  const mis::AlgMis alg(mis::AlgMisParams{});
  const NodeId n = 220;
  util::Rng rng(51);
  Graph g = graph::random_connected(n, 12.0 / n, rng);
  auto sched = sched::make_scheduler("random-subset", g);
  Engine original(g, alg, *sched, core::random_configuration(alg, n, rng), 52,
                  EngineOptions{.reorder = ReorderMode::kBfs});
  ASSERT_TRUE(g.reordered());
  for (int s = 0; s < 80; ++s) original.step();

  const auto bytes = core::snapshot::save(original);
  Graph restored_graph = core::snapshot::restore_graph(bytes);
  ASSERT_TRUE(restored_graph.reordered());
  EXPECT_TRUE(std::equal(g.permutation().begin(), g.permutation().end(),
                         restored_graph.permutation().begin()));

  auto restored_sched = sched::make_scheduler("random-subset", restored_graph);
  auto restored = core::snapshot::restore(bytes, restored_graph, alg,
                                          *restored_sched);
  // The restored engine must never re-reorder the wire layout, whatever the
  // recorded options said.
  EXPECT_EQ(restored->options().reorder, ReorderMode::kOff);
  EXPECT_EQ(core::engine_state_hash(original),
            core::engine_state_hash(*restored));
  for (int s = 0; s < 40; ++s) {
    original.step();
    restored->step();
  }
  EXPECT_EQ(core::engine_state_hash(original),
            core::engine_state_hash(*restored));
  EXPECT_EQ(original.config(), restored->config());

  // A caller graph with the right topology but the WRONG (absent)
  // relabelling must be rejected: the serialized state arrays would not
  // reconcile with it.
  Graph stripped = strip_permutation(g);
  auto stripped_sched = sched::make_scheduler("random-subset", stripped);
  EXPECT_THROW(core::snapshot::restore(bytes, stripped, alg, *stripped_sched),
               util::SnapshotError);
}

// --- the AU checks on a reordered engine ----------------------------------

TEST(EngineReorder, AuChecksAgreeAcrossLayouts) {
  // engine.graph() walks layout ids while engine.config() speaks user ids;
  // the AU checks must bridge the two, or on a reordered engine they judge
  // edges the run never had (here run_to_good reported round 140 instead
  // of the true 136). The synchronous trajectory of a deterministic
  // automaton is the unreordered one relabelled, so every check must read
  // the same rounds under kOff and kBfs.
  const unison::AlgAu alg(12);
  const Graph g0 = random_graph(3000, 6.0, 100);
  util::Rng init_rng(7);
  const Configuration c0 =
      core::random_configuration(alg, g0.num_nodes(), init_rng);
  std::vector<std::uint64_t> good_rounds;
  std::vector<std::tuple<std::uint64_t, std::uint64_t, std::uint64_t>>
      phase_rounds;
  std::vector<std::vector<bool>> grounded;
  std::vector<std::size_t> unprotected_edges;
  for (const ReorderMode mode : {ReorderMode::kOff, ReorderMode::kBfs}) {
    Graph g = g0;
    auto sched = sched::make_scheduler("synchronous", g);
    Engine e(g, alg, *sched, c0, 42, EngineOptions{.reorder = mode});
    ASSERT_EQ(g.reordered(), mode == ReorderMode::kBfs);
    grounded.push_back(unison::grounded_nodes(alg.turns(), g, e.config()));
    unprotected_edges.push_back(
        unison::measure_potential(alg.turns(), g, e.config())
            .non_protected_edges);
    const core::RunOutcome out = unison::run_to_good(e, alg, 100000);
    ASSERT_TRUE(out.reached);
    good_rounds.push_back(out.rounds);
    EXPECT_TRUE(unison::graph_good(alg.turns(), e.graph(), e.config()));
    const auto report = unison::verify_post_stabilization(e, alg, 16);
    EXPECT_TRUE(report.safety_ok);
    EXPECT_TRUE(report.outputs_ok);
    EXPECT_TRUE(report.ticks_plus_one);
    EXPECT_TRUE(report.liveness_ok);

    Graph h = g0;
    auto phase_sched = sched::make_scheduler("synchronous", h);
    Engine f(h, alg, *phase_sched, c0, 42, EngineOptions{.reorder = mode});
    const unison::PhaseTimes phases = unison::track_phases(f, alg, 100000);
    ASSERT_TRUE(phases.reached_t2);
    EXPECT_TRUE(phases.monotone);
    phase_rounds.emplace_back(phases.t0_rounds, phases.t1_rounds,
                              phases.t2_rounds);
  }
  EXPECT_EQ(good_rounds[0], good_rounds[1]);
  EXPECT_EQ(phase_rounds[0], phase_rounds[1]);
  EXPECT_EQ(std::get<2>(phase_rounds[0]), good_rounds[0]);
  // C_0 is far from good: the checks must see the same torn edges and
  // grounded nodes (indexed by user id) in either layout.
  EXPECT_GT(unprotected_edges[0], 0u);
  EXPECT_EQ(unprotected_edges[0], unprotected_edges[1]);
  EXPECT_EQ(grounded[0], grounded[1]);
}

// The MIS and baseline predicates read a user-id configuration, like the
// AU checks above. Randomized automata do not share trajectories across
// layouts, so each check judges an injected configuration, one legitimate
// and one not, built in user ids on the unreordered graph; on a kBfs engine
// it must give the same verdicts over engine.graph() and engine.config().
template <typename Legit>
void expect_verdicts_survive_reorder(const Graph& g0,
                                     const core::Automaton& alg,
                                     const Configuration& legit,
                                     const Configuration& illegit,
                                     Legit&& check) {
  ASSERT_TRUE(check(g0, legit));
  ASSERT_FALSE(check(g0, illegit));
  Graph g = g0;
  auto sched = sched::make_scheduler("synchronous", g);
  Engine e(g, alg, *sched, illegit, 3,
           EngineOptions{.reorder = ReorderMode::kBfs});
  ASSERT_TRUE(g.reordered());
  e.inject_configuration(legit);
  ASSERT_EQ(e.config(), legit);
  EXPECT_TRUE(check(e.graph(), e.config()));
  e.inject_configuration(illegit);
  EXPECT_FALSE(check(e.graph(), e.config()));
}

TEST(EngineReorder, MisAndBaselineChecksAgreeAcrossLayouts) {
  const Graph g0 = random_graph(600, 6.0, 31);
  const std::vector<std::uint32_t> dist = graph::bfs_distances(g0, 0);
  const NodeId n = g0.num_nodes();
  const NodeId far = static_cast<NodeId>(
      std::max_element(dist.begin(), dist.end()) - dist.begin());

  {  // Greedy MIS in user ids; then an adjacent IN pair.
    const mis::AlgMis alg(mis::AlgMisParams{.diameter_bound = 12});
    const core::StateId in = alg.encode({.mode = mis::MisState::Mode::kIn});
    const core::StateId out = alg.encode({.mode = mis::MisState::Mode::kOut});
    Configuration legit(n, out);
    for (NodeId v = 0; v < n; ++v) {
      const auto nb = g0.neighbors(v);
      if (std::none_of(nb.begin(), nb.end(),
                       [&](NodeId u) { return legit[u] == in; })) {
        legit[v] = in;
      }
    }
    Configuration illegit = legit;
    illegit[g0.neighbors(0).front()] = in;  // node 0 is IN (greedy order)
    expect_verdicts_survive_reorder(
        g0, alg, legit, illegit, [&](const Graph& g, const Configuration& c) {
          return mis::mis_outputs_correct(alg, g, c);
        });
    expect_verdicts_survive_reorder(
        g0, alg, legit, illegit, [&](const Graph& g, const Configuration& c) {
          return mis::mis_legitimate(alg, g, c);
        });
  }
  // The unison baselines: clocks = BFS distance from node 0, which every
  // edge changes by at most 1; then the farthest node pushed 3 ticks ahead.
  {
    const unison::MinPlusOneUnison alg;
    const Configuration legit(dist.begin(), dist.end());
    Configuration illegit = legit;
    illegit[far] += 3;
    expect_verdicts_survive_reorder(
        g0, alg, legit, illegit, [&](const Graph& g, const Configuration& c) {
          return alg.legitimate(g, c);
        });
  }
  {
    const unison::ResetUnison alg(4, 11);
    Configuration legit(n);
    for (NodeId v = 0; v < n; ++v) {
      legit[v] = alg.clock_id(static_cast<int>(dist[v]) % alg.modulus());
    }
    Configuration illegit = legit;
    illegit[far] =
        alg.clock_id((static_cast<int>(dist[far]) + 3) % alg.modulus());
    expect_verdicts_survive_reorder(
        g0, alg, legit, illegit, [&](const Graph& g, const Configuration& c) {
          return alg.legitimate(g, c);
        });
  }
  {
    const unison::FailedAu alg(5);  // turns 0..10
    Configuration legit(n);
    for (NodeId v = 0; v < n; ++v) {
      legit[v] = alg.able_id(static_cast<int>(dist[v]) % alg.num_turns());
    }
    Configuration illegit = legit;
    illegit[far] =
        alg.able_id((static_cast<int>(dist[far]) + 3) % alg.num_turns());
    expect_verdicts_survive_reorder(
        g0, alg, legit, illegit, [&](const Graph& g, const Configuration& c) {
          return alg.legitimate(g, c);
        });
  }
}

}  // namespace
}  // namespace ssau
