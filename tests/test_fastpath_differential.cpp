// Differential tests pinning the engine's kernels (SignalView scratch,
// step_mask bit kernels, CompiledAutomaton tables, batched synchronous
// double-buffering) bit-for-bit to the reference interpreter
// (tests/support/reference_engine.hpp: Signal::from_states +
// Automaton::step per activation).
//
// AU, MIS, and LE run under the synchronous schedule and every scheduler in
// async_scheduler_names() with fixed seeds; at every step the two engines
// must agree on the configuration, time, completed rounds, round stamp, and
// per-node activation counts.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "sync/simple_sync_algs.hpp"
#include "sync/synchronizer.hpp"
#include "unison/alg_au.hpp"
#include "unison/baselines.hpp"
#include "util/rng.hpp"
#include "support/field_routing.hpp"
#include "support/reference_engine.hpp"

namespace ssau {
namespace {

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names = sched::async_scheduler_names();
  names.insert(names.begin(), "synchronous");
  return names;
}

/// A random-subset daemon whose draw is usually empty on these small
/// graphs, so most of its steps fall back to one node (the one-pass step)
/// and the rest activate several (the two-phase loop).
constexpr double kSparseSubsetP = 0.03;

/// Runs `steps` steps in lockstep and asserts the full engine state agrees,
/// then runs rounds one at a time: each run_rounds(1) must end on the step
/// that closes the round, with a boundary's round stamp.
void expect_identical_trajectories(const graph::Graph& g,
                                   const core::Automaton& alg,
                                   const core::Configuration& initial,
                                   const std::string& sched_name,
                                   std::uint64_t seed, int steps,
                                   double subset_p = 0.5) {
  auto fast_sched = sched::make_scheduler(sched_name, g, subset_p);
  auto legacy_sched = sched::make_scheduler(sched_name, g, subset_p);
  core::Engine fast(g, alg, *fast_sched, initial, seed);
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, initial, seed);
  for (int s = 0; s < steps; ++s) {
    fast.step();
    legacy.step();
    ASSERT_EQ(fast.config(), legacy.config())
        << sched_name << " diverged at step " << s;
    ASSERT_EQ(fast.time(), legacy.time());
    ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed())
        << sched_name << " round drift at step " << s;
    ASSERT_EQ(fast.round_index_now(), legacy.round_index_now());
  }
  for (int r = 0; r < 3; ++r) {
    fast.run_rounds(1);
    legacy.run_rounds(1);
    ASSERT_EQ(fast.time(), legacy.time()) << sched_name << " run_rounds";
    ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed());
    ASSERT_EQ(fast.round_index_now(), fast.rounds_completed());
    ASSERT_EQ(fast.config(), legacy.config()) << sched_name << " run_rounds";
  }
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(fast.activation_count(v), legacy.activation_count(v));
  }
}

TEST(FastPathDifferential, AlgAuEverySchedulerEveryAdversary) {
  // D = 2: |Q| = 30 -> native bitmask kernel on the fast path.
  const unison::AlgAu alg(2);
  util::Rng rng(11);
  const graph::Graph g = graph::random_bounded_diameter(12, 2, rng);
  for (const std::string& kind : unison::au_adversary_kinds()) {
    const core::Configuration c0 =
        unison::au_adversarial_configuration(kind, alg, g, rng);
    for (const std::string& sched_name : all_scheduler_names()) {
      expect_identical_trajectories(g, alg, c0, sched_name, 101, 300);
    }
    expect_identical_trajectories(g, alg, c0, "random-subset", 101, 300,
                                  kSparseSubsetP);
  }
}

TEST(FastPathDifferential, AlgAuLargeDiameterSparsePath) {
  // D = 5, 16, 20: |Q| = 66, 198, 246 > 64 -> the byte store senses into
  // the exact 256-bit set and AlgAu's native step_set runs δ; on a dense
  // graph a random start populates every word it can, and every scheduler
  // must still match the reference interpreter exactly.
  util::Rng rng(13);
  const graph::Graph g = graph::random_bounded_diameter(40, 3, rng);
  ASSERT_GE(g.avg_degree(), 8.0);
  for (const int d : {5, 16, 20}) {
    const unison::AlgAu alg(d);
    const core::Configuration c0 =
        unison::au_adversarial_configuration("random", alg, g, rng);
    for (const std::string& sched_name : all_scheduler_names()) {
      expect_identical_trajectories(g, alg, c0, sched_name, 103, 300);
    }
  }
}

TEST(FastPathDifferential, AlgMisEveryScheduler) {
  // Randomized: the differential additionally pins the rng draw sequence
  // (any reordering of coin tosses would diverge within a few steps).
  const mis::AlgMis alg({.diameter_bound = 2});
  util::Rng rng(17);
  const graph::Graph g = graph::random_bounded_diameter(12, 2, rng);
  for (const char* kind : {"random", "adjacent-in", "skewed-steps"}) {
    const core::Configuration c0 =
        mis::mis_adversarial_configuration(kind, alg, g, rng);
    for (const std::string& sched_name : all_scheduler_names()) {
      expect_identical_trajectories(g, alg, c0, sched_name, 107, 300);
    }
    expect_identical_trajectories(g, alg, c0, "random-subset", 107, 300,
                                  kSparseSubsetP);
  }
}

TEST(FastPathDifferential, AlgLeEveryScheduler) {
  const le::AlgLe alg({.diameter_bound = 2});
  util::Rng rng(19);
  const graph::Graph g = graph::random_bounded_diameter(10, 2, rng);
  for (const char* kind : {"random", "two-leaders", "zero-leaders"}) {
    const core::Configuration c0 =
        le::le_adversarial_configuration(kind, alg, g, rng);
    for (const std::string& sched_name : all_scheduler_names()) {
      expect_identical_trajectories(g, alg, c0, sched_name, 109, 300);
    }
    expect_identical_trajectories(g, alg, c0, "random-subset", 109, 300,
                                  kSparseSubsetP);
  }
}

TEST(FastPathDifferential, AlgMisAndLeWideStores) {
  // D = 12 and 14: MIS |Q| = 274 and 310, LE 571 and 659 — wide stores that
  // sense into the wide set for the native step_wide. At the 1,024 boundary,
  // MIS D = 53 (1,012 states) and LE D = 22 (1,011) take the wide set, MIS
  // D = 54 (1,030) and LE D = 23 (1,055) the sorted view. kAuto builds no
  // field on a wide store, so every asynchronous daemon runs the rescan.
  util::Rng rng(41);
  const graph::Graph g = graph::random_bounded_diameter(14, 2, rng);
  for (const int d : {12, 14, 53, 54}) {
    const mis::AlgMis alg({.diameter_bound = d});
    ASSERT_EQ(alg.native_wide_kernel(),
              alg.state_count() <= core::WideStateSet::kBits);
    for (const char* kind : {"random", "adjacent-in", "orphan-out"}) {
      const core::Configuration c0 =
          mis::mis_adversarial_configuration(kind, alg, g, rng);
      for (const std::string& sched_name : all_scheduler_names()) {
        expect_identical_trajectories(g, alg, c0, sched_name, 151, 200);
      }
      expect_identical_trajectories(g, alg, c0, "random-subset", 151, 200,
                                    kSparseSubsetP);
    }
  }
  for (const int d : {12, 14, 22, 23}) {
    const le::AlgLe alg({.diameter_bound = d});
    ASSERT_EQ(alg.native_wide_kernel(),
              alg.state_count() <= core::WideStateSet::kBits);
    for (const char* kind : {"random", "two-leaders", "zero-leaders"}) {
      const core::Configuration c0 =
          le::le_adversarial_configuration(kind, alg, g, rng);
      for (const std::string& sched_name : all_scheduler_names()) {
        expect_identical_trajectories(g, alg, c0, sched_name, 157, 200);
      }
      expect_identical_trajectories(g, alg, c0, "random-subset", 157, 200,
                                    kSparseSubsetP);
    }
  }
}

TEST(FastPathDifferential, SmallDeterministicAutomataCompileToTables) {
  // ResetUnison (dense table) and the Blinker synchronizer product (sparse
  // view; |Q*| > 64) both ride the fast path.
  const unison::ResetUnison reset(1, 6);
  const sync::Blinker blinker;
  const sync::Synchronizer synced(blinker, 1);
  util::Rng rng(23);
  const graph::Graph g = graph::wheel(9);
  const core::Configuration r0 =
      core::random_configuration(reset, g.num_nodes(), rng);
  const core::Configuration s0 =
      core::random_configuration(synced, g.num_nodes(), rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    expect_identical_trajectories(g, reset, r0, sched_name, 113, 400);
    expect_identical_trajectories(g, synced, s0, sched_name, 113, 120);
  }
}

TEST(FastPathDifferential, ListenerSeesIdenticalTransitions) {
  // Attaching a listener switches the fast engine off the mask-only loop
  // (rotating-single) or onto the logged-and-replayed synchronous kernel
  // (synchronous, serial engine: one [0, n) shard); the set kernel (AlgAu
  // at D = 16) and the wide-set kernel (AlgMis and AlgLe at D = 14, |Q| =
  // 310 and 659) emit from their own sense, rescanned or read from a
  // forced-on field. The observed transition streams must match the
  // reference interpreter's exactly.
  util::Rng rng(29);
  const graph::Graph g = graph::cycle(8);
  struct Event {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Event&) const = default;
  };
  const unison::AlgAu au1(1);
  const unison::AlgAu au16(16);
  const mis::AlgMis mis14({.diameter_bound = 14});
  const le::AlgLe le14({.diameter_bound = 14});
  const std::vector<std::pair<const core::Automaton*, core::Configuration>>
      workloads = {
          {&au1, unison::au_adversarial_configuration("tear", au1, g, rng)},
          {&au16, unison::au_adversarial_configuration("tear", au16, g, rng)},
          {&mis14, mis::mis_adversarial_configuration("skewed-steps", mis14,
                                                      g, rng)},
          {&le14, le::le_adversarial_configuration("two-leaders", le14, g,
                                                   rng)},
      };
  for (const auto& [alg_ptr, c0] : workloads) {
    const core::Automaton& alg = *alg_ptr;
    const core::StateId d = alg.state_count();  // names the leg in messages
    for (const core::SignalFieldMode field :
         {core::SignalFieldMode::kOff, core::SignalFieldMode::kOn}) {
      for (const char* sched_name : {"rotating-single", "synchronous"}) {
        const auto run = [&](auto& engine) {
          std::vector<Event> events;
          std::vector<core::Signal> signals;
          engine.set_transition_listener(
              [&](core::NodeId v, core::StateId from, core::StateId to,
                  const core::Signal& sig, core::Time t) {
                events.push_back({v, from, to, t});
                signals.push_back(sig);
              });
          for (int s = 0; s < 200; ++s) engine.step();
          return std::make_pair(events, signals);
        };
        auto fast_sched = sched::make_scheduler(sched_name, g);
        core::Engine fast(g, alg, *fast_sched, c0, 131,
                          core::EngineOptions{.signal_field = field});
        auto legacy_sched = sched::make_scheduler(sched_name, g);
        oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 131);
        const auto [fast_events, fast_signals] = run(fast);
        const auto [legacy_events, legacy_signals] = run(legacy);
        EXPECT_EQ(fast_events, legacy_events) << sched_name << " |Q|=" << d;
        EXPECT_EQ(fast_signals, legacy_signals) << sched_name << " |Q|=" << d;
        EXPECT_FALSE(fast_events.empty()) << sched_name << " |Q|=" << d;
      }
    }
  }
}

TEST(FastPathDifferential, ShardedKernelMatchesLegacyOracle) {
  // The sharded multi-threaded synchronous kernel must sit on the same
  // trajectory as the reference interpreter — for the deterministic AlgAu mask
  // kernel and for randomized MIS (per-node rng streams).
  util::Rng rng(31);
  const graph::Graph g = graph::random_bounded_diameter(60, 2, rng);
  const unison::AlgAu au(2);
  const mis::AlgMis mis({.diameter_bound = 2});
  const std::vector<std::pair<const core::Automaton*, core::Configuration>>
      workloads = {
          {&au, unison::au_adversarial_configuration("random", au, g, rng)},
          {&mis, mis::mis_adversarial_configuration("random", mis, g, rng)},
      };
  for (const auto& [alg, c0] : workloads) {
    for (const unsigned threads : {2u, 4u, 8u}) {
      auto sharded_sched = sched::make_scheduler("synchronous", g);
      auto legacy_sched = sched::make_scheduler("synchronous", g);
      core::Engine sharded(g, *alg, *sharded_sched, c0, 127,
                           core::EngineOptions{.thread_count = threads});
      oracle::ReferenceEngine legacy(g, *alg, *legacy_sched, c0, 127);
      ASSERT_EQ(sharded.shard_count(), threads);
      for (int s = 0; s < 120; ++s) {
        sharded.step();
        legacy.step();
        ASSERT_EQ(sharded.config(), legacy.config())
            << "threads=" << threads << " diverged at step " << s;
      }
      ASSERT_EQ(sharded.rounds_completed(), legacy.rounds_completed());
    }
  }
  // D = 16 (|Q| = 198): the 256-bit set kernel at 4 threads, with the
  // signal field forced on and forced off. A synchronous engine never
  // senses, so the routing rule builds no field in either mode.
  const unison::AlgAu au16(16);
  const core::Configuration c16 =
      unison::au_adversarial_configuration("random", au16, g, rng);
  for (const core::SignalFieldMode field :
       {core::SignalFieldMode::kOn, core::SignalFieldMode::kOff}) {
    auto sharded_sched = sched::make_scheduler("synchronous", g);
    auto legacy_sched = sched::make_scheduler("synchronous", g);
    const core::EngineOptions opts{.thread_count = 4, .signal_field = field};
    core::Engine sharded(g, au16, *sharded_sched, c16, 127, opts);
    oracle::ReferenceEngine legacy(g, au16, *legacy_sched, c16, 127);
    ASSERT_EQ(sharded.shard_count(), 4u);
    ASSERT_EQ(sharded.signal_field_active(),
              oracle::field_routed(g, au16, *sharded_sched, opts));
    ASSERT_FALSE(sharded.signal_field_active());
    for (int s = 0; s < 120; ++s) {
      sharded.step();
      legacy.step();
      ASSERT_EQ(sharded.config(), legacy.config())
          << "D=16 field=" << static_cast<int>(field) << " step " << s;
    }
    ASSERT_EQ(sharded.rounds_completed(), legacy.rounds_completed());
  }
}

TEST(FastPathDifferential, SparseKernelMatchesLegacyOracle) {
  // The sparse-activation sharded kernel (asynchronous daemons with large
  // A_t, phase 1 fanned out over the worker pool) must sit on the same
  // trajectory as the reference interpreter — for the deterministic AlgAu mask
  // kernel and for randomized MIS and LE (per-node rng streams) under every
  // daemon routed into it. Its threshold check runs before the serial
  // step's |A_t| split, so at thresholds 0 and 1 a central daemon's one-node
  // steps run sharded too (the merge's clock then reads nonzero).
  util::Rng rng(37);
  const graph::Graph g = graph::random_bounded_diameter(80, 2, rng);
  const unison::AlgAu au(2);
  const mis::AlgMis mis({.diameter_bound = 2});
  const le::AlgLe le({.diameter_bound = 2});
  const std::vector<std::pair<const core::Automaton*, core::Configuration>>
      workloads = {
          {&au, unison::au_adversarial_configuration("random", au, g, rng)},
          {&mis, mis::mis_adversarial_configuration("random", mis, g, rng)},
          {&le, le::le_adversarial_configuration("random", le, g, rng)},
      };
  const std::vector<std::pair<const char*, std::size_t>> daemons = {
      {"laggard", 2}, {"random-subset", 2}, {"wave", 2},
      {"uniform-single", 0}, {"uniform-single", 1}};
  for (const auto& [alg, c0] : workloads) {
    for (const auto& [sched_name, threshold] : daemons) {
      for (const unsigned threads : {2u, 4u, 8u}) {
        auto sparse_sched = sched::make_scheduler(sched_name, g);
        auto legacy_sched = sched::make_scheduler(sched_name, g);
        core::Engine sparse(
            g, *alg, *sparse_sched, c0, 137,
            core::EngineOptions{.thread_count = threads,
                                .sparse_activation_threshold = threshold});
        oracle::ReferenceEngine legacy(g, *alg, *legacy_sched, c0, 137);
        ASSERT_EQ(sparse.shard_count(), threads) << sched_name;
        for (int s = 0; s < 150; ++s) {
          sparse.step();
          legacy.step();
          ASSERT_EQ(sparse.config(), legacy.config())
              << sched_name << " threads=" << threads << " threshold="
              << threshold << " diverged at step " << s;
        }
        ASSERT_EQ(sparse.rounds_completed(), legacy.rounds_completed());
        EXPECT_GT(sparse.apply_phase_ns(), 0u) << sched_name;
        for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
          ASSERT_EQ(sparse.activation_count(v), legacy.activation_count(v));
        }
      }
    }
  }
  // D = 16 (|Q| = 198): the 256-bit set kernel at 4 threads, with the
  // signal field forced on and forced off. A sparse-eligible engine's steps
  // below the threshold run the serial step but never sense through a
  // field: the routing rule builds none where the shard kernels run.
  const unison::AlgAu au16(16);
  const core::Configuration c16 =
      unison::au_adversarial_configuration("random", au16, g, rng);
  for (const core::SignalFieldMode field :
       {core::SignalFieldMode::kOn, core::SignalFieldMode::kOff}) {
    for (const char* sched_name : {"laggard", "random-subset", "wave"}) {
      auto sparse_sched = sched::make_scheduler(sched_name, g);
      auto legacy_sched = sched::make_scheduler(sched_name, g);
      const core::EngineOptions opts{.thread_count = 4,
                                     .sparse_activation_threshold = 8,
                                     .signal_field = field};
      core::Engine sparse(g, au16, *sparse_sched, c16, 137, opts);
      oracle::ReferenceEngine legacy(g, au16, *legacy_sched, c16, 137);
      ASSERT_EQ(sparse.shard_count(), 4u) << sched_name;
      ASSERT_EQ(sparse.signal_field_active(),
                oracle::field_routed(g, au16, *sparse_sched, opts));
      ASSERT_FALSE(sparse.signal_field_active()) << sched_name;
      for (int s = 0; s < 150; ++s) {
        sparse.step();
        legacy.step();
        ASSERT_EQ(sparse.config(), legacy.config())
            << "D=16 " << sched_name << " field=" << static_cast<int>(field)
            << " step " << s;
      }
      ASSERT_EQ(sparse.rounds_completed(), legacy.rounds_completed());
      for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(sparse.activation_count(v), legacy.activation_count(v));
      }
    }
  }
}

TEST(FastPathDifferential, EngineCompilesOnlyEligibleAutomata) {
  const graph::Graph g = graph::path(4);
  sched::SynchronousScheduler sched(4);

  // ResetUnison: deterministic, |Q| = 9, no native kernel -> compiled.
  const unison::ResetUnison reset(1, 6);
  core::Engine e1(g, reset, sched, core::uniform_configuration(4, 0), 1);
  EXPECT_NE(e1.compiled(), nullptr);
  EXPECT_TRUE(e1.compiled()->dense());

  // AlgAu D=2: native bitmask kernel -> no table wrapped around it.
  const unison::AlgAu au(2);
  core::Engine e2(g, au, sched, core::uniform_configuration(4, 0), 1);
  EXPECT_EQ(e2.compiled(), nullptr);

  // AlgMis: randomized -> never compiled.
  const mis::AlgMis mis({.diameter_bound = 2});
  core::Engine e3(g, mis, sched,
                  core::uniform_configuration(4, mis.initial_state()), 1);
  EXPECT_EQ(e3.compiled(), nullptr);
}

}  // namespace
}  // namespace ssau
