// Tests for the comparison baselines: the unbounded-state min+1 unison and
// the bounded Restart-chain reset unison.
#include "unison/baselines.hpp"

#include <gtest/gtest.h>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"

namespace ssau::unison {
namespace {

TEST(MinPlusOne, StepTakesMinimumPlusOne) {
  MinPlusOneUnison alg;
  util::Rng rng(1);
  const auto s = core::Signal::from_states({7, 3, 9});
  EXPECT_EQ(alg.step(7, s, rng), 4u);
}

TEST(MinPlusOne, StabilizesWithinDiameterishRounds) {
  const graph::Graph g = graph::grid(3, 4);
  MinPlusOneUnison alg;
  sched::SynchronousScheduler sched(g.num_nodes());
  util::Rng rng(2);
  core::Configuration init(g.num_nodes());
  for (auto& q : init) q = rng.below(1000);
  core::Engine engine(g, alg, sched, init, 3);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return alg.legitimate(g, c); },
      4 * graph::diameter(g) + 8);
  EXPECT_TRUE(outcome.reached);
  // O(D) rounds, matching the unbounded-state baseline's guarantee.
  EXPECT_LE(outcome.rounds, 2 * graph::diameter(g) + 2);
}

TEST(MinPlusOne, StaysLegitimateAndLive) {
  const graph::Graph g = graph::cycle(6);
  MinPlusOneUnison alg;
  sched::SynchronousScheduler sched(6);
  core::Engine engine(g, alg, sched, core::Configuration(6, 5), 4);
  for (int t = 1; t <= 30; ++t) {
    engine.step();
    EXPECT_TRUE(alg.legitimate(g, engine.config()));
  }
  // All clocks advanced by one per synchronous round (liveness).
  EXPECT_EQ(engine.state_of(0), 35u);
}

TEST(MinPlusOne, AsynchronousSafetyConvergence) {
  const graph::Graph g = graph::path(5);
  MinPlusOneUnison alg;
  util::Rng seed_rng(5);
  auto sched = sched::make_scheduler("uniform-single", g);
  core::Configuration init{900, 3, 500, 0, 77};
  core::Engine engine(g, alg, *sched, init, 9);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return alg.legitimate(g, c); },
      5000);
  EXPECT_TRUE(outcome.reached);
}

TEST(ResetUnison, StateLayoutAndNames) {
  ResetUnison alg(3, 8);
  EXPECT_EQ(alg.state_count(), 8u + 7u);
  EXPECT_FALSE(alg.is_sigma(alg.clock_id(7)));
  EXPECT_TRUE(alg.is_sigma(alg.sigma_id(0)));
  EXPECT_EQ(alg.value_of(alg.sigma_id(5)), 5);
  EXPECT_EQ(alg.state_name(alg.sigma_id(2)), "s2");
  EXPECT_EQ(alg.state_name(alg.clock_id(2)), "2");
  EXPECT_THROW(ResetUnison(0, 8), std::invalid_argument);
  EXPECT_THROW(ResetUnison(3, 2), std::invalid_argument);
  // The state count M + 2D + 1 and the clock sum c + M - 1 (c < M) must
  // fit an int.
  EXPECT_EQ(ResetUnison(1073741820, 5).state_count(), 2147483646u);
  EXPECT_THROW(ResetUnison(1073741821, 5), std::invalid_argument);
  EXPECT_EQ(ResetUnison(1, 1073741823).state_count(), 1073741826u);
  EXPECT_THROW(ResetUnison(1, 1073741824), std::invalid_argument);
}

TEST(ResetUnison, TickAndDetect) {
  ResetUnison alg(2, 8);
  util::Rng rng(1);
  // Local minimum ticks.
  EXPECT_EQ(alg.step(alg.clock_id(3),
                     core::Signal::from_states({alg.clock_id(3),
                                                alg.clock_id(4)}),
                     rng),
            alg.clock_id(4));
  // Lagging neighbor blocks.
  EXPECT_EQ(alg.step(alg.clock_id(3),
                     core::Signal::from_states({alg.clock_id(3),
                                                alg.clock_id(2)}),
                     rng),
            alg.clock_id(3));
  // Discrepancy triggers the reset wave.
  EXPECT_EQ(alg.step(alg.clock_id(3),
                     core::Signal::from_states({alg.clock_id(3),
                                                alg.clock_id(6)}),
                     rng),
            alg.sigma_id(0));
  // A sensed σ drags the node in.
  EXPECT_EQ(alg.step(alg.clock_id(3),
                     core::Signal::from_states({alg.clock_id(3),
                                                alg.sigma_id(2)}),
                     rng),
            alg.sigma_id(0));
}

TEST(ResetUnison, SynchronousSelfStabilization) {
  const graph::Graph g = graph::grid(3, 3);
  const int diam = static_cast<int>(graph::diameter(g));
  ResetUnison alg(diam, 4 * diam + 4);
  sched::SynchronousScheduler sched(g.num_nodes());
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    util::Rng rng(seed);
    core::Engine engine(g, alg, sched,
                        core::random_configuration(alg, g.num_nodes(), rng),
                        seed);
    const auto outcome = engine.run_until(
        [&](const core::Configuration& c) { return alg.legitimate(g, c); },
        30ULL * diam + 200);
    ASSERT_TRUE(outcome.reached) << "seed " << seed;
    // Legitimacy is preserved once reached (synchronous schedule).
    for (int t = 0; t < 30; ++t) {
      engine.step();
      EXPECT_TRUE(alg.legitimate(g, engine.config()));
    }
  }
}

TEST(ResetUnison, SynchronousStabilizationIsLinearInD) {
  // The reset-based baseline stabilizes in O(D) synchronous rounds — fast,
  // but only under synchrony (the contrast bench E10 quantifies this).
  for (const int n : {6, 10, 14}) {
    const graph::Graph g = graph::cycle(n);
    const int diam = static_cast<int>(graph::diameter(g));
    ResetUnison alg(diam, 4 * diam + 4);
    sched::SynchronousScheduler sched(g.num_nodes());
    util::Rng rng(n);
    core::Engine engine(g, alg, sched,
                        core::random_configuration(alg, g.num_nodes(), rng),
                        n);
    const auto outcome = engine.run_until(
        [&](const core::Configuration& c) { return alg.legitimate(g, c); },
        30ULL * diam + 200);
    ASSERT_TRUE(outcome.reached);
    EXPECT_LE(outcome.rounds, static_cast<std::uint64_t>(8 * diam + 16));
  }
}

}  // namespace
}  // namespace ssau::unison
