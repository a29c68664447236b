// The churn differential suite: Engine::apply_topology_delta (in-place edge
// churn through every engine layer) pinned bit-identical to oracles.
//
// Two oracle notions cover the two halves of the refactor:
//
//   * TRAJECTORY oracle — the reference interpreter
//     (tests/support/reference_engine.hpp). It owns NO topology-derived
//     state beyond the graph itself (no signal field, no scratch masks, no
//     shard plan), so "reference interpreter + the same in-place graph
//     edits" is exactly a rebuilt-from-scratch engine that
//     carried every piece of continuation state (time, rounds, rng streams)
//     across each event. Any drift in the delta-patched fast/field/sharded
//     engines — configs, time, round stamps, activation counts, listener
//     streams — is a churn-patching bug by construction.
//   * STATE oracle — after every delta, the engine's derived state must equal
//     a FRESH build on the churned topology: signal_of() against a fresh
//     engine, and the live signal field's counters/masks/senses against a
//     freshly constructed SignalField(graph, |Q|, config).
//
// The matrix: AU + MIS + LE x all 8 schedulers x threads {1, 2, 3, 4, 8},
// with the signal field forced on and a tiny sparse threshold so the
// large-set daemons route through the sharded sparse-activation kernel
// mid-churn. Under the synchronous daemon every pooled engine re-balances its
// over-decomposed shard plan after each event, keeping its shard count.
// Dense AND sparse field representations are churned, as is a delta applied
// while the field is stale (pending its post-injection lazy rebuild).
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "core/signal_field.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "sync/simple_sync_algs.hpp"
#include "unison/alg_au.hpp"
#include "util/rng.hpp"
#include "support/reference_engine.hpp"

namespace ssau {
namespace {

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names = sched::async_scheduler_names();
  names.insert(names.begin(), "synchronous");
  return names;
}

/// A deterministic churn script: alternating remove/re-add waves over a
/// fixed stride of the base edge set, plus one fresh chord per event. Every
/// engine under comparison applies the same script to its own graph copy.
std::vector<graph::TopologyDelta> make_churn_script(const graph::Graph& base,
                                                    int events,
                                                    std::uint64_t seed) {
  util::Rng rng(seed);
  std::vector<graph::TopologyDelta> script;
  const std::vector<std::pair<graph::NodeId, graph::NodeId>> edges(
      base.edges().begin(), base.edges().end());
  std::vector<std::pair<graph::NodeId, graph::NodeId>> out;  // currently removed
  for (int e = 0; e < events; ++e) {
    graph::TopologyDelta delta;
    // Heal roughly half of what is currently out...
    for (std::size_t i = 0; i < out.size(); ++i) {
      if (rng.bernoulli(0.5)) delta.add.push_back(out[i]);
    }
    for (const auto& healed : delta.add) {
      std::erase(out, healed);
    }
    // ...and fail a fresh slice of the base set (absent edges are ignored by
    // apply_delta, so overlap with `out` is harmless and exercises no-ops).
    for (std::size_t i = e % 3; i < edges.size(); i += 3 + e) {
      if (rng.bernoulli(0.35)) {
        delta.remove.push_back(edges[i]);
        if (std::find(out.begin(), out.end(), edges[i]) == out.end()) {
          out.push_back(edges[i]);
        }
      }
    }
    script.push_back(std::move(delta));
  }
  return script;
}

/// Drives a delta-patched engine (field forced on, tiny sparse threshold,
/// `threads` shards) and the reference interpreter in lockstep through a churn
/// script, asserting full observable equality after every step and every
/// churn event.
void expect_churn_matches_oracle(const graph::Graph& base,
                                 const core::Automaton& alg,
                                 const core::Configuration& initial,
                                 const std::string& sched_name,
                                 unsigned threads, std::uint64_t seed,
                                 int steps_per_segment, int events) {
  graph::Graph fast_g = base;
  graph::Graph legacy_g = base;
  auto fast_sched = sched::make_scheduler(sched_name, fast_g);
  auto legacy_sched = sched::make_scheduler(sched_name, legacy_g);
  core::Engine fast(fast_g, alg, *fast_sched, initial, seed,
                    core::EngineOptions{
                        .thread_count = threads,
                        .sparse_activation_threshold = 2,
                        .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(legacy_g, alg, *legacy_sched, initial, seed);
  ASSERT_TRUE(fast.signal_field_active());

  const std::vector<graph::TopologyDelta> script =
      make_churn_script(base, events, seed + 1);
  for (int e = 0; e <= events; ++e) {
    if (e > 0) {
      const graph::TopologyDelta applied =
          fast.apply_topology_delta(script[e - 1]);
      const graph::TopologyDelta legacy_applied =
          legacy.apply_topology_delta(script[e - 1]);
      ASSERT_EQ(applied.remove, legacy_applied.remove);
      ASSERT_EQ(applied.add, legacy_applied.add);
      ASSERT_EQ(fast_g.num_edges(), legacy_g.num_edges());
    }
    for (int s = 0; s < steps_per_segment; ++s) {
      fast.step();
      legacy.step();
      ASSERT_EQ(fast.config(), legacy.config())
          << sched_name << " threads=" << threads << " event=" << e
          << " diverged at step " << s;
      ASSERT_EQ(fast.time(), legacy.time());
      ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed())
          << sched_name << " threads=" << threads << " round drift";
      ASSERT_EQ(fast.round_index_now(), legacy.round_index_now());
    }
  }
  for (core::NodeId v = 0; v < base.num_nodes(); ++v) {
    ASSERT_EQ(fast.activation_count(v), legacy.activation_count(v));
  }
}

TEST(ChurnDifferential, AlgAuAllSchedulersAllThreadCounts) {
  const unison::AlgAu alg(3);
  util::Rng rng(301);
  const graph::Graph g = graph::damaged_clique(24, 0.2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      expect_churn_matches_oracle(g, alg, c0, sched_name, threads, 311,
                                  /*steps_per_segment=*/120, /*events=*/5);
    }
  }
}

TEST(ChurnDifferential, AlgMisAllSchedulersAllThreadCounts) {
  // Randomized: additionally pins the per-node rng draw sequences across
  // churn events (streams must carry over, never restart).
  const mis::AlgMis alg({.diameter_bound = 4});
  util::Rng rng(307);
  const graph::Graph g = graph::damaged_clique(20, 0.25, rng);
  const core::Configuration c0 =
      mis::mis_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      expect_churn_matches_oracle(g, alg, c0, sched_name, threads, 313,
                                  /*steps_per_segment=*/120, /*events=*/5);
    }
  }
}

TEST(ChurnDifferential, AlgLeAllSchedulersAllThreadCounts) {
  const le::AlgLe alg({.diameter_bound = 4});
  util::Rng rng(317);
  const graph::Graph g = graph::damaged_clique(18, 0.25, rng);
  const core::Configuration c0 =
      le::le_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 3u, 4u, 8u}) {
      expect_churn_matches_oracle(g, alg, c0, sched_name, threads, 331,
                                  /*steps_per_segment=*/120, /*events=*/5);
    }
  }
}

TEST(ChurnDifferential, SparseFieldRepresentationUnderChurn) {
  // |Q| > kDenseStateLimit routes the field to the sorted-multiset
  // representation; edge churn must patch that representation too.
  const sync::MinPropagation alg(core::SignalField::kDenseStateLimit + 50);
  util::Rng rng(337);
  const graph::Graph g = graph::damaged_clique(16, 0.2, rng);
  const core::Configuration c0 =
      core::random_configuration(alg, g.num_nodes(), rng);
  {
    graph::Graph probe = g;
    auto sched = sched::make_scheduler("uniform-single", probe);
    core::Engine e(probe, alg, *sched, c0, 347,
                   core::EngineOptions{
                       .signal_field = core::SignalFieldMode::kOn});
    ASSERT_TRUE(e.signal_field_active());
    ASSERT_FALSE(e.signal_field()->dense());
  }
  for (const char* sched_name : {"uniform-single", "burst", "wave"}) {
    expect_churn_matches_oracle(g, alg, c0, sched_name, 1, 349,
                                /*steps_per_segment=*/100, /*events=*/5);
  }
}

TEST(ChurnDifferential, DeltaCrossesTheDenseSparseFieldBoundary) {
  // The dense representation requires max_degree + 1 < kSaturated (a counter
  // is bounded by deg + 1). A hub one edge below that bound churns ACROSS
  // the boundary: the engine must recreate the field (construction re-routes
  // to the sparse multiset) and the trajectory must not notice. The heal
  // back below the bound is applied too (the representation stays sparse —
  // recreation is a one-way safety valve, which is fine: it is routing, not
  // semantics).
  const core::NodeId n = core::SignalField::kSaturated;  // 65535 nodes
  std::vector<std::pair<graph::NodeId, graph::NodeId>> spokes;
  for (core::NodeId v = 1; v + 1 < n; ++v) spokes.emplace_back(0, v);
  graph::Graph fast_g(n, spokes);   // hub degree n-2: one below the bound
  graph::Graph legacy_g = fast_g;
  ASSERT_EQ(fast_g.max_degree() + 2, core::SignalField::kSaturated);

  const sync::MinPropagation alg(8);
  core::Configuration c0(n);
  util::Rng rng(431);
  for (auto& q : c0) q = rng.below(alg.state_count());
  auto fast_sched = sched::make_scheduler("uniform-single", fast_g);
  auto legacy_sched = sched::make_scheduler("uniform-single", legacy_g);
  core::Engine fast(fast_g, alg, *fast_sched, c0, 433,
                    core::EngineOptions{
                        .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(legacy_g, alg, *legacy_sched, c0, 433);
  ASSERT_TRUE(fast.signal_field_active());
  ASSERT_TRUE(fast.signal_field()->dense());

  auto lockstep = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      fast.step();
      legacy.step();
      ASSERT_EQ(fast.config(), legacy.config()) << "step " << s;
    }
  };
  lockstep(30);
  const graph::TopologyDelta grow{.remove = {},
                                  .add = {{0, static_cast<graph::NodeId>(
                                                  n - 1)}}};
  fast.apply_topology_delta(grow);
  legacy.apply_topology_delta(grow);
  ASSERT_EQ(fast_g.max_degree() + 1, core::SignalField::kSaturated);
  EXPECT_FALSE(fast.signal_field()->dense());  // recreated across the boundary
  lockstep(30);
  fast.apply_topology_delta(grow.inverse());
  legacy.apply_topology_delta(grow.inverse());
  lockstep(30);
}

// --- fresh-rebuild state oracle ----------------------------------------------

TEST(ChurnStateOracle, DerivedStateEqualsFreshBuildAfterEveryDelta) {
  // After each delta the churned engine's topology-derived state must equal
  // an engine/field built FROM SCRATCH on the churned graph: signals,
  // field counters, presence masks, and sense spans.
  const unison::AlgAu alg(3);
  util::Rng rng(353);
  graph::Graph g = graph::damaged_clique(18, 0.2, rng);
  const graph::Graph base = g;
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  auto sched = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *sched, c0, 359,
                      core::EngineOptions{
                          .signal_field = core::SignalFieldMode::kOn});
  ASSERT_TRUE(engine.signal_field_active());

  const auto script = make_churn_script(base, 6, 361);
  std::vector<core::StateId> scratch_a;
  std::vector<core::StateId> scratch_b;
  for (const graph::TopologyDelta& delta : script) {
    for (int s = 0; s < 40; ++s) engine.step();
    engine.apply_topology_delta(delta);

    // Field state == fresh SignalField(churned graph, |Q|, current config).
    const core::SignalField fresh(g, alg.state_count(), engine.config());
    const core::SignalField& live = *engine.signal_field();
    ASSERT_FALSE(engine.signal_field_stale());
    for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
      for (core::StateId q = 0; q < alg.state_count(); ++q) {
        ASSERT_EQ(live.count_of(v, q), fresh.count_of(v, q))
            << "v=" << v << " q=" << q;
      }
      if (live.mask_exact()) {
        ASSERT_EQ(live.mask_of(v), fresh.mask_of(v)) << "v=" << v;
      }
      const core::SignalView a = live.sense(v, scratch_a);
      const core::SignalView b = fresh.sense(v, scratch_b);
      ASSERT_EQ(std::vector<core::StateId>(a.states().begin(),
                                           a.states().end()),
                std::vector<core::StateId>(b.states().begin(),
                                           b.states().end()));

      // signal_of == a fresh engine's signal_of on the churned topology.
      auto fresh_sched = sched::make_scheduler("uniform-single", g);
      core::Engine rebuilt(g, alg, *fresh_sched, engine.config(), 1);
      ASSERT_EQ(engine.signal_of(v), rebuilt.signal_of(v));
    }
  }
}

TEST(ChurnStateOracle, DeltaWhileFieldStaleRebuildsAgainstChurnedGraph) {
  // inject_configuration marks the field stale; a topology delta applied in
  // that window must NOT patch the stale counters — the lazy rebuild at the
  // next sense reads the churned graph and must land on fresh-build state,
  // and the continued run must track an oracle given the same injection +
  // delta sequence.
  const unison::AlgAu alg(2);
  util::Rng rng(367);
  graph::Graph fast_g = graph::damaged_clique(16, 0.2, rng);
  graph::Graph legacy_g = fast_g;
  const graph::Graph base = fast_g;
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, base, rng);
  core::Configuration mid(base.num_nodes());
  for (auto& q : mid) q = rng.below(alg.state_count());

  auto fast_sched = sched::make_scheduler("uniform-single", fast_g);
  auto legacy_sched = sched::make_scheduler("uniform-single", legacy_g);
  core::Engine fast(fast_g, alg, *fast_sched, c0, 373,
                    core::EngineOptions{
                        .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(legacy_g, alg, *legacy_sched, c0, 373);
  ASSERT_TRUE(fast.signal_field_active());

  auto lockstep = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      fast.step();
      legacy.step();
      ASSERT_EQ(fast.config(), legacy.config()) << "step " << s;
    }
  };
  lockstep(50);
  fast.inject_configuration(mid);
  legacy.inject_configuration(mid);
  EXPECT_TRUE(fast.signal_field_stale());

  const auto script = make_churn_script(base, 1, 379);
  fast.apply_topology_delta(script[0]);
  legacy.apply_topology_delta(script[0]);
  EXPECT_TRUE(fast.signal_field_stale());  // stale field is not patched

  lockstep(1);  // first field sense: lazy rebuild against the churned graph
  EXPECT_FALSE(fast.signal_field_stale());
  const core::SignalField fresh(fast_g, alg.state_count(), fast.config());
  for (core::NodeId v = 0; v < fast_g.num_nodes(); ++v) {
    for (core::StateId q = 0; q < alg.state_count(); ++q) {
      ASSERT_EQ(fast.signal_field()->count_of(v, q), fresh.count_of(v, q));
    }
  }
  lockstep(60);
  ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed());
}

// --- listener streams --------------------------------------------------------

TEST(ChurnDifferential, ListenerStreamsMatchOracleAcrossChurn) {
  const unison::AlgAu alg(2);
  util::Rng rng(383);
  const graph::Graph base = graph::damaged_clique(16, 0.25, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, base, rng);
  struct Event {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Event&) const = default;
  };
  const auto script = make_churn_script(base, 4, 389);
  for (const char* sched_name : {"uniform-single", "synchronous", "wave"}) {
    const auto observe = [&](auto& engine) {
      std::vector<Event> events;
      std::vector<core::Signal> signals;
      engine.set_transition_listener(
          [&](core::NodeId v, core::StateId from, core::StateId to,
              const core::Signal& sig, core::Time t) {
            events.push_back({v, from, to, t});
            signals.push_back(sig);  // must copy: the reference is scratch
          });
      for (const graph::TopologyDelta& delta : script) {
        for (int s = 0; s < 80; ++s) engine.step();
        engine.apply_topology_delta(delta);
      }
      for (int s = 0; s < 80; ++s) engine.step();
      return std::make_pair(events, signals);
    };
    graph::Graph field_g = base;
    auto field_sched = sched::make_scheduler(sched_name, field_g);
    core::Engine field(field_g, alg, *field_sched, c0, 397,
                       {.thread_count = 4,
                        .sparse_activation_threshold = 2,
                        .signal_field = core::SignalFieldMode::kOn});
    graph::Graph legacy_g = base;
    auto legacy_sched = sched::make_scheduler(sched_name, legacy_g);
    oracle::ReferenceEngine legacy(legacy_g, alg, *legacy_sched, c0, 397);
    const auto [field_events, field_signals] = observe(field);
    const auto [legacy_events, legacy_signals] = observe(legacy);
    EXPECT_EQ(field_events, legacy_events) << sched_name;
    EXPECT_EQ(field_signals, legacy_signals) << sched_name;
    EXPECT_FALSE(field_events.empty()) << sched_name;
  }
}

// --- API contract ------------------------------------------------------------

TEST(ChurnApi, ConstGraphEngineRejectsChurn) {
  const graph::Graph g = graph::cycle(6);  // const: binds the immutable ctor
  const unison::AlgAu alg(2);
  auto sched = sched::make_scheduler("uniform-single", g);
  util::Rng rng(401);
  core::Engine e(g, alg, *sched,
                 unison::au_adversarial_configuration("random", alg, g, rng),
                 5);
  EXPECT_THROW(e.apply_topology_delta({.remove = {{0, 1}}, .add = {}}),
               std::logic_error);
}

TEST(ChurnApi, InvalidDeltaThrowsAndLeavesEverythingUntouched) {
  graph::Graph g = graph::cycle(6);
  const unison::AlgAu alg(2);
  auto sched = sched::make_scheduler("uniform-single", g);
  util::Rng rng(409);
  core::Engine e(g, alg, *sched,
                 unison::au_adversarial_configuration("random", alg, g, rng),
                 5);
  const std::size_t edges_before = g.num_edges();
  EXPECT_THROW(e.apply_topology_delta({.remove = {{0, 0}}, .add = {}}),
               std::invalid_argument);
  EXPECT_THROW(e.apply_topology_delta({.remove = {}, .add = {{0, 99}}}),
               std::invalid_argument);
  EXPECT_EQ(g.num_edges(), edges_before);
}

TEST(ChurnApi, WaveSchedulerFollowsTheChurnedTopology) {
  // Partition a path mid-run: the wave layers must re-seed per component
  // (the engine's on_topology_change hook), keeping the daemon fair — every
  // node keeps getting activated, and a full cycle closes rounds.
  graph::Graph g = graph::path(10);
  const sync::MinPropagation alg(16);
  sched::WaveScheduler sched(g);
  core::Engine e(g, alg, sched,
                 core::Configuration{5, 3, 9, 1, 7, 2, 8, 4, 6, 0}, 5);
  for (int s = 0; s < 30; ++s) e.step();
  // Cut {4,5}: two components of 5 nodes each.
  const auto applied = e.apply_topology_delta({.remove = {{4, 5}}, .add = {}});
  ASSERT_EQ(applied.remove.size(), 1u);
  ASSERT_FALSE(g.connected());
  const std::uint64_t rounds_before = e.rounds_completed();
  const auto counts_before = [&] {
    std::vector<std::uint64_t> c;
    for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
      c.push_back(e.activation_count(v));
    }
    return c;
  }();
  for (int s = 0; s < 40; ++s) e.step();
  EXPECT_GT(e.rounds_completed(), rounds_before);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    EXPECT_GT(e.activation_count(v), counts_before[v]) << "starved v=" << v;
  }
  // Each side converges to its own minimum — the churned topology's fixpoint.
  auto run_until_stable = [&] {
    for (int s = 0; s < 400; ++s) e.step();
  };
  run_until_stable();
  for (core::NodeId v = 0; v < 5; ++v) EXPECT_EQ(e.state_of(v), 1u);
  for (core::NodeId v = 5; v < 10; ++v) EXPECT_EQ(e.state_of(v), 0u);
}

TEST(ChurnApi, PartitionAndHealScript) {
  // Scripted partition-and-heal: split a damaged clique, let AU run
  // fragmented, heal, and verify the engine tracks the reference interpreter
  // across both events (the heal delta is the partition delta's inverse).
  const unison::AlgAu alg(3);
  util::Rng rng(419);
  graph::Graph fast_g = graph::damaged_clique(14, 0.15, rng);
  graph::Graph legacy_g = fast_g;
  std::vector<bool> side(fast_g.num_nodes(), false);
  for (core::NodeId v = fast_g.num_nodes() / 2; v < fast_g.num_nodes(); ++v) {
    side[v] = true;
  }
  const graph::TopologyDelta cut = core::partition_delta(fast_g, side);
  ASSERT_FALSE(cut.remove.empty());

  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, fast_g, rng);
  auto fast_sched = sched::make_scheduler("uniform-single", fast_g);
  auto legacy_sched = sched::make_scheduler("uniform-single", legacy_g);
  core::Engine fast(fast_g, alg, *fast_sched, c0, 421,
                    core::EngineOptions{
                        .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(legacy_g, alg, *legacy_sched, c0, 421);
  auto lockstep = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      fast.step();
      legacy.step();
      ASSERT_EQ(fast.config(), legacy.config());
    }
  };
  lockstep(60);
  const auto applied_fast = fast.apply_topology_delta(cut);
  legacy.apply_topology_delta(cut);
  EXPECT_FALSE(fast_g.connected());
  EXPECT_GE(graph::component_diameters(fast_g).size(), 2u);
  lockstep(120);
  // Heal: the inverse of what was EFFECTIVELY cut.
  fast.apply_topology_delta(applied_fast.inverse());
  legacy.apply_topology_delta(applied_fast.inverse());
  EXPECT_TRUE(fast_g.connected());
  lockstep(120);
  ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed());
}

}  // namespace
}  // namespace ssau
