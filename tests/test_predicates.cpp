// The graph-level legitimacy predicates walk CSR rows (core/row_walk.hpp)
// with id arithmetic. Here they are held to the literal definitions — the
// edge-list bodies they replaced, kept below as references — on random
// graphs (sparse, dense, with isolated nodes, edgeless, churned into
// relocated slots with slack, reordered) × configurations (near-legitimate,
// uniformly random, sprinkled with faulty turns) × D ∈ {1, 2, 5, 16, 20}.
// The input rules (one state per node, every state in range) and the
// "never rebuild Graph::edges()" guarantee of the check paths are pinned
// as well.
#include "core/row_walk.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "graph/metrics.hpp"
#include "graph/reorder.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "unison/au_monitor.hpp"
#include "unison/au_potential.hpp"
#include "unison/baselines.hpp"
#include "unison/failed_au.hpp"
#include "util/rng.hpp"

namespace ssau {
namespace {

using core::Configuration;
using core::NodeId;
using core::StateId;
using graph::Graph;
using unison::Level;
using unison::TurnSystem;

// --- references: the literal definitions over Graph::edges() ----------------

namespace reference {

Configuration layout(const Graph& g, const Configuration& user_c) {
  if (!g.reordered()) return user_c;
  Configuration c(user_c.size());
  for (NodeId i = 0; i < g.num_nodes(); ++i) c[i] = user_c[g.to_user(i)];
  return c;
}

bool edge_protected(const TurnSystem& ts, const Configuration& c, NodeId u,
                    NodeId v) {
  return ts.adjacent(ts.level_of(c[u]), ts.level_of(c[v]));
}

bool node_protected(const TurnSystem& ts, const Graph& g,
                    const Configuration& c, NodeId v) {
  for (const NodeId u : g.neighbors(v)) {
    if (!reference::edge_protected(ts, c, u, v)) return false;
  }
  return true;
}

bool node_out_protected(const TurnSystem& ts, const Graph& g,
                        const Configuration& c, NodeId v) {
  const Level lv = ts.level_of(c[v]);
  for (const NodeId u : g.neighbors(v)) {
    if (ts.far_outwards(ts.level_of(c[u]), lv)) return false;
  }
  return true;
}

bool justifiably_faulty(const TurnSystem& ts, const Graph& g,
                        const Configuration& c, NodeId v) {
  if (!ts.is_faulty(c[v])) return false;
  if (!reference::node_protected(ts, g, c, v)) return true;
  const Level inward = ts.outwards(ts.level_of(c[v]), -1);
  if (!ts.has_faulty(inward)) return false;
  const StateId want = ts.faulty_id(inward);
  for (const NodeId u : g.neighbors(v)) {
    if (c[u] == want) return true;
  }
  return false;
}

bool graph_protected(const TurnSystem& ts, const Graph& g,
                     const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  for (const auto& [u, v] : g.edges()) {
    if (!reference::edge_protected(ts, c, u, v)) return false;
  }
  return true;
}

bool graph_good(const TurnSystem& ts, const Graph& g, const Configuration& c) {
  for (const StateId q : c) {
    if (ts.is_faulty(q)) return false;
  }
  return reference::graph_protected(ts, g, c);
}

bool graph_out_protected(const TurnSystem& ts, const Graph& g,
                         const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (!reference::node_out_protected(ts, g, c, v)) return false;
  }
  return true;
}

bool graph_l_out_protected(const TurnSystem& ts, const Graph& g,
                           const Configuration& user_c, Level l) {
  const Configuration c = layout(g, user_c);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.weakly_outwards(ts.level_of(c[v]), l) &&
        !reference::node_out_protected(ts, g, c, v)) {
      return false;
    }
  }
  return true;
}

bool graph_justified(const TurnSystem& ts, const Graph& g,
                     const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v]) && !reference::justifiably_faulty(ts, g, c, v)) {
      return false;
    }
  }
  return true;
}

std::vector<bool> grounded_nodes(const TurnSystem& ts, const Graph& g,
                                 const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  const NodeId n = g.num_nodes();
  std::vector<bool> is_protected(n);
  for (NodeId v = 0; v < n; ++v) {
    is_protected[v] = reference::node_protected(ts, g, c, v);
  }
  constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
  std::vector<std::uint32_t> depth(n, kUnreached);
  std::queue<NodeId> frontier;
  for (NodeId v = 0; v < n; ++v) {
    const Level l = ts.level_of(c[v]);
    if (is_protected[v] && (l == 1 || l == -1)) {
      depth[v] = 0;
      frontier.push(v);
    }
  }
  const auto max_depth = static_cast<std::uint32_t>(ts.diameter_bound());
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop();
    if (depth[v] == max_depth) continue;
    for (const NodeId u : g.neighbors(v)) {
      if (is_protected[u] && depth[u] == kUnreached) {
        depth[u] = depth[v] + 1;
        frontier.push(u);
      }
    }
  }
  std::vector<bool> grounded(n, false);
  for (NodeId v = 0; v < n; ++v) {
    grounded[g.to_user(v)] = depth[v] != kUnreached;
  }
  return grounded;
}

unison::PotentialSnapshot measure_potential(const TurnSystem& ts,
                                            const Graph& g,
                                            const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  unison::PotentialSnapshot snap;
  for (const auto& [u, v] : g.edges()) {
    if (!reference::edge_protected(ts, c, u, v)) {
      ++snap.non_protected_edges;
      const int gap = std::abs(ts.level_of(c[u]) - ts.level_of(c[v]));
      snap.max_level_gap = std::max(snap.max_level_gap, gap);
    }
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v])) {
      ++snap.faulty_nodes;
      if (!reference::justifiably_faulty(ts, g, c, v)) {
        ++snap.unjustified_nodes;
      }
    }
    if (!reference::node_out_protected(ts, g, c, v)) {
      ++snap.non_out_protected_nodes;
    }
  }
  return snap;
}

bool mis_outputs_correct(const mis::AlgMis& alg, const Graph& g,
                         const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  std::vector<bool> in(c.size());
  for (NodeId v = 0; v < c.size(); ++v) {
    const mis::MisState s = alg.decode(c[v]);
    if (s.mode != mis::MisState::Mode::kIn &&
        s.mode != mis::MisState::Mode::kOut) {
      return false;
    }
    in[v] = s.mode == mis::MisState::Mode::kIn;
  }
  for (const auto& [u, v] : g.edges()) {
    if (in[u] && in[v]) return false;
  }
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (in[v]) continue;
    bool dominated = false;
    for (const NodeId u : g.neighbors(v)) dominated = dominated || in[u];
    if (!dominated) return false;
  }
  return true;
}

bool min_plus_one_legitimate(const Graph& g, const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  for (const auto& [u, v] : g.edges()) {
    const auto a = c[u];
    const auto b = c[v];
    if ((a > b ? a - b : b - a) > 1) return false;
  }
  return true;
}

bool reset_unison_legitimate(const unison::ResetUnison& alg, const Graph& g,
                             const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  const int m = alg.modulus();
  for (const StateId q : c) {
    if (alg.is_sigma(q)) return false;
  }
  for (const auto& [u, v] : g.edges()) {
    const int diff = ((alg.value_of(c[u]) - alg.value_of(c[v])) % m + m) % m;
    if (diff > 1 && diff < m - 1) return false;
  }
  return true;
}

bool failed_au_legitimate(const unison::FailedAu& alg, const Graph& g,
                          const Configuration& user_c) {
  const Configuration c = layout(g, user_c);
  const int m = alg.num_turns();
  for (const StateId q : c) {
    if (alg.is_reset(q)) return false;
  }
  for (const auto& [u, v] : g.edges()) {
    const int diff = ((alg.value_of(c[u]) - alg.value_of(c[v])) % m + m) % m;
    if (diff > 1 && diff < m - 1) return false;
  }
  return true;
}

}  // namespace reference

// --- instances --------------------------------------------------------------

/// Rows relocated to the pool's end, in-slot slack left by removals, and a
/// dirty edges() cache.
void churn(Graph& g, util::Rng& rng, int edits) {
  const NodeId n = g.num_nodes();
  graph::TopologyDelta delta;
  for (int i = 0; i < edits; ++i) {
    const auto u = static_cast<NodeId>(rng.below(n));
    const auto v = static_cast<NodeId>(rng.below(n));
    if (u != v) (i % 4 == 0 ? delta.remove : delta.add).emplace_back(u, v);
  }
  g.apply_delta(delta);
}

std::vector<Graph> graphs() {
  util::Rng rng(2024);
  std::vector<Graph> out;
  out.push_back(Graph(1, {}));
  out.push_back(Graph(12, {}));  // edgeless
  out.push_back(graph::path(2));
  out.push_back(graph::cycle(9));
  out.push_back(graph::complete(7));
  out.push_back(graph::random_connected(60, 0.08, rng));
  out.push_back(graph::random_connected(40, 0.5, rng));
  {  // isolated nodes around a random component
    std::vector<std::pair<NodeId, NodeId>> edges;
    for (int i = 0; i < 60; ++i) {
      const auto u = static_cast<NodeId>(rng.below(25));
      const auto v = static_cast<NodeId>(rng.below(25));
      if (u != v) edges.emplace_back(u, v);
    }
    out.push_back(Graph(40, edges));
  }
  {
    Graph g = graph::random_connected(80, 0.06, rng);
    churn(g, rng, 300);
    out.push_back(g);
  }
  out.push_back(graph::reorder_graph(graph::random_connected(90, 0.05, rng),
                                     graph::ReorderPolicy::kBfs));
  out.push_back(graph::reorder_graph(graph::random_connected(50, 0.2, rng),
                                     graph::ReorderPolicy::kDegree));
  {
    Graph g = graph::random_connected(70, 0.07, rng);
    churn(g, rng, 200);
    out.push_back(graph::reorder_graph(g, graph::ReorderPolicy::kBfs,
                                       {.slack = 0.5}));
  }
  return out;
}

/// Hop distance from `src` (0 for nodes it does not reach), in user ids.
std::vector<std::uint32_t> hops(const Graph& g, NodeId src) {
  // bfs_distances speaks the graph's own ids; translate both ends.
  const auto d = graph::bfs_distances(g, g.to_internal(src));
  std::vector<std::uint32_t> out(g.num_nodes());
  for (NodeId i = 0; i < g.num_nodes(); ++i) {
    out[g.to_user(i)] =
        d[i] == std::numeric_limits<std::uint32_t>::max() ? 0 : d[i];
  }
  return out;
}

/// near-legitimate / uniformly random / sprinkled with faulty turns.
std::vector<Configuration> au_configurations(const TurnSystem& ts,
                                             const Graph& g, util::Rng& rng) {
  const NodeId n = g.num_nodes();
  std::vector<Configuration> out;
  for (int rep = 0; rep < 4; ++rep) {
    const auto dist = hops(g, static_cast<NodeId>(rng.below(n)));
    const auto base = static_cast<int>(rng.below(2 * ts.k()));
    Configuration legit(n);
    for (NodeId v = 0; v < n; ++v) {
      legit[v] =
          ts.able_id(ts.level_at_clock(base + static_cast<int>(dist[v])));
    }
    out.push_back(legit);
    Configuration near = legit;  // a few clocks nudged by up to 2 ticks
    Configuration faulty = legit;
    for (NodeId v = 0; v < n; ++v) {
      const Level l = ts.level_of(legit[v]);
      if (rng.below(8) == 0) {
        near[v] = ts.able_id(
            ts.forward(l, static_cast<int>(rng.below(5)) - 2));
      }
      if (rng.below(6) == 0 && ts.has_faulty(l)) {
        // The level's own faulty turn, or the one just outwards of it
        // (justified when its inward neighbour is faulty too).
        const bool outwards = rng.below(2) == 0 && std::abs(l) < ts.k();
        faulty[v] = ts.faulty_id(outwards ? ts.outwards(l, 1) : l);
      }
    }
    out.push_back(near);
    out.push_back(faulty);
    Configuration uniform(n);
    for (auto& q : uniform) q = rng.below(ts.state_count());
    out.push_back(uniform);
    Configuration sprinkled = rng.below(2) == 0 ? legit : near;
    for (auto& q : sprinkled) {
      if (rng.below(10) == 0) {
        q = 2 * static_cast<StateId>(ts.k()) +
            rng.below(ts.state_count() - 2 * static_cast<StateId>(ts.k()));
      }
    }
    out.push_back(sprinkled);
  }
  return out;
}

/// Counts both verdicts of one predicate over the whole differential, so a
/// predicate that only ever said "true" (or "false") fails the test.
struct Verdicts {
  int yes = 0;
  int no = 0;
  void add(bool v) { ++(v ? yes : no); }
};

TEST(PredicateReference, AuPredicatesMatchTheLiteralDefinitions) {
  util::Rng rng(99);
  Verdicts good, prot, out_prot, l_out, justified;
  int instances = 0;
  for (const Graph& g : graphs()) {
    for (const int d : {1, 2, 5, 16, 20}) {
      const TurnSystem ts(d);
      for (const Configuration& c : au_configurations(ts, g, rng)) {
        SCOPED_TRACE("n=" + std::to_string(g.num_nodes()) +
                     " m=" + std::to_string(g.num_edges()) +
                     " D=" + std::to_string(d) +
                     " reordered=" + std::to_string(g.reordered()));
        ++instances;
        const bool want_good = reference::graph_good(ts, g, c);
        ASSERT_EQ(unison::graph_good(ts, g, c), want_good);
        good.add(want_good);
        const bool want_prot = reference::graph_protected(ts, g, c);
        ASSERT_EQ(unison::graph_protected(ts, g, c), want_prot);
        ASSERT_EQ(unison::au_safety_holds(ts, g, c), want_prot);
        prot.add(want_prot);
        const bool want_op = reference::graph_out_protected(ts, g, c);
        ASSERT_EQ(unison::graph_out_protected(ts, g, c), want_op);
        out_prot.add(want_op);
        const int k = ts.k();
        for (const Level l : {1, -1, 2, -2, k / 2, -k / 2, k, -k}) {
          const bool want = reference::graph_l_out_protected(ts, g, c, l);
          ASSERT_EQ(unison::graph_l_out_protected(ts, g, c, l), want) << l;
          l_out.add(want);
        }
        const bool want_just = reference::graph_justified(ts, g, c);
        ASSERT_EQ(unison::graph_justified(ts, g, c), want_just);
        justified.add(want_just);
        ASSERT_EQ(unison::grounded_nodes(ts, g, c),
                  reference::grounded_nodes(ts, g, c));
        const auto got = unison::measure_potential(ts, g, c);
        const auto want = reference::measure_potential(ts, g, c);
        ASSERT_EQ(got.non_protected_edges, want.non_protected_edges);
        ASSERT_EQ(got.faulty_nodes, want.faulty_nodes);
        ASSERT_EQ(got.non_out_protected_nodes, want.non_out_protected_nodes);
        ASSERT_EQ(got.unjustified_nodes, want.unjustified_nodes);
        ASSERT_EQ(got.max_level_gap, want.max_level_gap);
      }
    }
  }
  EXPECT_GT(instances, 1000);
  for (const Verdicts* v : {&good, &prot, &out_prot, &l_out, &justified}) {
    EXPECT_GT(v->yes, 0);
    EXPECT_GT(v->no, 0);
  }
}

TEST(PredicateReference, MisPredicatesMatchTheLiteralDefinition) {
  util::Rng rng(5);
  Verdicts verdicts;
  for (const Graph& g : graphs()) {
    for (const int d : {1, 2, 5, 16, 20}) {
      const mis::AlgMis alg(mis::AlgMisParams{.diameter_bound = d});
      const StateId in = alg.encode({.mode = mis::MisState::Mode::kIn});
      const StateId out = alg.encode({.mode = mis::MisState::Mode::kOut});
      const NodeId n = g.num_nodes();
      for (int rep = 0; rep < 6; ++rep) {
        // A greedy MIS in a random user order, then a few nodes flipped
        // between IN and OUT, or some set to random states.
        std::vector<NodeId> order(n);
        for (NodeId v = 0; v < n; ++v) order[v] = v;
        for (NodeId i = n; i > 1; --i) {
          std::swap(order[i - 1], order[rng.below(i)]);
        }
        Configuration c(n, out);
        for (const NodeId v : order) {
          const auto nb = g.neighbors(g.to_internal(v));
          if (std::none_of(nb.begin(), nb.end(), [&](NodeId u) {
                return c[g.to_user(u)] == in;
              })) {
            c[v] = in;
          }
        }
        for (int variant = 0; variant < 3; ++variant) {
          Configuration x = c;
          for (auto& q : x) {
            if (variant == 1 && rng.below(10) == 0) q = q == in ? out : in;
            if (variant == 2 && rng.below(30) == 0) {
              q = rng.below(alg.state_count());
            }
          }
          const bool want = reference::mis_outputs_correct(alg, g, x);
          ASSERT_EQ(mis::mis_outputs_correct(alg, g, x), want);
          ASSERT_EQ(mis::mis_legitimate(alg, g, x), want);
          verdicts.add(want);
        }
      }
    }
  }
  EXPECT_GT(verdicts.yes, 0);
  EXPECT_GT(verdicts.no, 0);
}

TEST(PredicateReference, BaselinePredicatesMatchTheLiteralDefinitions) {
  util::Rng rng(6);
  Verdicts min_plus, reset, failed;
  for (const Graph& g : graphs()) {
    const NodeId n = g.num_nodes();
    for (const int d : {1, 2, 5, 16, 20}) {
      const unison::MinPlusOneUnison mpo(1000);
      const unison::ResetUnison ru(d, 3 + d % 7);
      const unison::FailedAu fa(d, {.c = 1 + d % 2});
      for (int rep = 0; rep < 6; ++rep) {
        const auto dist = hops(g, static_cast<NodeId>(rng.below(n)));
        const bool perturb = rep % 2 == 1;
        const bool random = rep >= 4;
        Configuration a(n), b(n), f(n);
        for (NodeId v = 0; v < n; ++v) {
          const int shift = perturb && rng.below(8) == 0
                                ? static_cast<int>(rng.below(5)) - 2
                                : 0;
          const int h = static_cast<int>(dist[v]) + 2 + shift;
          a[v] = random ? rng.below(mpo.state_count())
                        : static_cast<StateId>(h);
          b[v] = random ? rng.below(ru.state_count())
                        : ru.clock_id(h % ru.modulus());
          f[v] = random ? rng.below(fa.state_count())
                        : fa.able_id(h % fa.num_turns());
        }
        if (perturb && n > 0) {  // a reset / σ node now and then
          if (rng.below(3) == 0) b[rng.below(n)] = ru.sigma_id(0);
          if (rng.below(3) == 0) f[rng.below(n)] = fa.reset_id(0);
        }
        const bool want_a = reference::min_plus_one_legitimate(g, a);
        ASSERT_EQ(mpo.legitimate(g, a), want_a);
        min_plus.add(want_a);
        const bool want_b = reference::reset_unison_legitimate(ru, g, b);
        ASSERT_EQ(ru.legitimate(g, b), want_b);
        reset.add(want_b);
        const bool want_f = reference::failed_au_legitimate(fa, g, f);
        ASSERT_EQ(fa.legitimate(g, f), want_f);
        failed.add(want_f);
      }
    }
  }
  for (const Verdicts* v : {&min_plus, &reset, &failed}) {
    EXPECT_GT(v->yes, 0);
    EXPECT_GT(v->no, 0);
  }
}

// --- input rules ------------------------------------------------------------

// A configuration of the wrong length, or one holding a state >= |Q|, is a
// caller error whatever the verdict would have been: the bad state sits on
// the last node, behind an edge that already fails.
TEST(PredicateInput, WrongLengthOrOutOfRangeStatesThrow) {
  const Graph g = graph::path(4);
  const TurnSystem ts(2);
  const Configuration short_c(2, ts.able_id(1));
  Configuration bad_state = {ts.able_id(1), ts.able_id(-3), ts.able_id(1),
                             ts.state_count()};
  for (const Configuration& c : {short_c, bad_state}) {
    EXPECT_THROW((void)unison::graph_good(ts, g, c), std::invalid_argument);
    EXPECT_THROW((void)unison::graph_protected(ts, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::au_safety_holds(ts, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::graph_out_protected(ts, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::graph_l_out_protected(ts, g, c, 1),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::graph_justified(ts, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::grounded_nodes(ts, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)unison::measure_potential(ts, g, c),
                 std::invalid_argument);
  }
  // A faulty turn before the bad state: graph_good's scan must not stop at
  // the faulty one.
  bad_state[0] = ts.faulty_id(2);
  EXPECT_THROW((void)unison::graph_good(ts, g, bad_state),
               std::invalid_argument);
  EXPECT_THROW((void)unison::graph_justified(ts, g, bad_state),
               std::invalid_argument);

  const mis::AlgMis mis_alg(mis::AlgMisParams{.diameter_bound = 2});
  const StateId out = mis_alg.encode({.mode = mis::MisState::Mode::kOut});
  const Configuration mis_short(2, out);
  const Configuration mis_bad = {out, out, out, mis_alg.state_count()};
  for (const Configuration& c : {mis_short, mis_bad}) {
    EXPECT_THROW((void)mis::mis_outputs_correct(mis_alg, g, c),
                 std::invalid_argument);
    EXPECT_THROW((void)mis::mis_legitimate(mis_alg, g, c),
                 std::invalid_argument);
  }

  const unison::MinPlusOneUnison mpo(100);
  const unison::ResetUnison ru(2, 5);
  const unison::FailedAu fa(2);
  EXPECT_THROW((void)mpo.legitimate(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)mpo.legitimate(g, {0, 9, 0, 100}), std::invalid_argument);
  EXPECT_THROW((void)ru.legitimate(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)ru.legitimate(g, {0, 3, 0, ru.state_count()}),
               std::invalid_argument);
  EXPECT_THROW((void)fa.legitimate(g, {0, 0}), std::invalid_argument);
  EXPECT_THROW((void)fa.legitimate(g, {0, 3, 0, fa.state_count()}),
               std::invalid_argument);
}

// --- no edge list on check paths --------------------------------------------

TEST(PredicateWalk, ChecksNeverRebuildTheEdgeList) {
  util::Rng rng(41);
  Graph g = graph::random_connected(300, 0.03, rng);
  graph::TopologyDelta delta;
  for (int i = 0; i < 400; ++i) {
    const auto u = static_cast<NodeId>(rng.below(300));
    const auto v = static_cast<NodeId>(rng.below(300));
    if (u != v) delta.add.emplace_back(u, v);
  }
  for (const NodeId u : g.neighbors(7)) {
    if (g.degree(u) > 1) delta.remove.emplace_back(7, u);
  }
  g.apply_delta(delta);  // relocated rows, slack, a dirty edges() cache
  ASSERT_TRUE(g.connected());
  ASSERT_EQ(g.edges_rebuild_count(), 0u);

  const unison::AlgAu alg(static_cast<int>(graph::diameter(g)));
  const TurnSystem& ts = alg.turns();
  auto sched = sched::make_scheduler("synchronous", g);
  core::Engine e(g, alg, *sched,
                 core::random_configuration(alg, g.num_nodes(), rng), 3);
  (void)unison::measure_potential(ts, g, e.config());
  ASSERT_TRUE(unison::run_to_good(e, alg, 100000).reached);
  EXPECT_TRUE(unison::verify_post_stabilization(e, alg, 8).safety_ok);
  e.inject_configuration(core::random_configuration(alg, g.num_nodes(), rng));
  EXPECT_TRUE(unison::track_phases(e, alg, 100000).reached_t2);
  (void)unison::grounded_nodes(ts, g, e.config());

  const mis::AlgMis mis_alg(mis::AlgMisParams{.diameter_bound = 8});
  auto mis_sched = sched::make_scheduler("synchronous", g);
  core::Engine m(g, mis_alg, *mis_sched,
                 core::random_configuration(mis_alg, g.num_nodes(), rng), 4);
  m.run_rounds(20);
  (void)mis::mis_legitimate(mis_alg, g, m.config());
  (void)mis::mis_outputs_correct(mis_alg, g, m.config());

  const unison::ResetUnison ru(8, 5);
  (void)ru.legitimate(g, Configuration(g.num_nodes(), 0));
  EXPECT_EQ(g.edges_rebuild_count(), 0u);
}

}  // namespace
}  // namespace ssau
