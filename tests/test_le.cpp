// End-to-end tests for AlgLE (Thm 1.3) under the synchronous scheduler: from
// scratch and from every adversarial configuration, the system converges to
// exactly one leader and stays there.
#include "le/alg_le.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "analysis/experiment.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"

namespace ssau::le {
namespace {

graph::Graph make_graph(const std::string& name) {
  util::Rng rng(31337);
  if (name == "clique6") return graph::complete(6);
  if (name == "star9") return graph::star(9);
  if (name == "cycle8") return graph::cycle(8);
  if (name == "grid3x3") return graph::grid(3, 3);
  if (name == "random12") return graph::random_connected(12, 0.35, rng);
  throw std::invalid_argument("bad graph name");
}

/// Budget generous relative to O(D log n) rounds (epochs are D+1 rounds and
/// restarts add O(D) each).
std::uint64_t le_budget(int d, core::NodeId n) {
  const double logn = std::log2(std::max<double>(n, 2));
  return static_cast<std::uint64_t>(600.0 * (d + 1) * (logn + 1)) + 600;
}

class LeConvergence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(LeConvergence, ExactlyOneLeaderFromAnywhere) {
  const auto& [graph_name, adversary] = GetParam();
  const graph::Graph g = make_graph(graph_name);
  const int diam = std::max<int>(1, static_cast<int>(graph::diameter(g)));
  const AlgLe alg({.diameter_bound = diam});

  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 104729);
    sched::SynchronousScheduler sched(g.num_nodes());
    core::Engine engine(g, alg, sched,
                        le_adversarial_configuration(adversary, alg, g, rng),
                        seed);
    const auto outcome = engine.run_until(
        [&](const core::Configuration& c) { return le_legitimate(alg, g, c); },
        le_budget(diam, g.num_nodes()));
    ASSERT_TRUE(outcome.reached)
        << graph_name << "/" << adversary << " seed " << seed;

    // Legitimacy is absorbing along real executions: outputs stay fixed with
    // exactly one leader for a long observation window.
    bool stable = true;
    for (std::uint64_t r = 0; r < 12ULL * (diam + 1); ++r) {
      engine.step();
      if (le_leader_count(alg, engine.config()) != 1) stable = false;
    }
    EXPECT_TRUE(stable) << graph_name << "/" << adversary;
    if (stable) ++successes;
  }
  EXPECT_GE(successes, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LeConvergence,
    ::testing::Combine(::testing::Values("clique6", "star9", "cycle8",
                                         "grid3x3", "random12"),
                       ::testing::Values("random", "zero-leaders",
                                         "two-leaders", "all-leaders",
                                         "mid-restart", "skewed-rounds")));

TEST(Le, FromScratchOnCompleteGraph) {
  const graph::Graph g = graph::complete(8);
  const AlgLe alg({.diameter_bound = 1});
  sched::SynchronousScheduler sched(8);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(8, alg.initial_state()), 3);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return le_legitimate(alg, g, c); },
      le_budget(1, 8));
  ASSERT_TRUE(outcome.reached);
  EXPECT_EQ(le_leader_count(alg, engine.config()), 1u);
}

TEST(Le, SingleNodeElectsItself) {
  const graph::Graph g(1, {});
  const AlgLe alg({.diameter_bound = 1});
  sched::SynchronousScheduler sched(1);
  core::Engine engine(g, alg, sched, {alg.initial_state()}, 7);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return le_legitimate(alg, g, c); },
      le_budget(1, 1));
  EXPECT_TRUE(outcome.reached);
}

TEST(Le, ConsistentEpochRoundsDuringCleanExecution) {
  // From the uniform initial configuration, all nodes always agree on the
  // epoch round number and never invoke Restart (detection soundness).
  const graph::Graph g = graph::cycle(6);
  const AlgLe alg({.diameter_bound = 3});
  sched::SynchronousScheduler sched(6);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(6, alg.initial_state()), 11);
  for (int t = 0; t < 400; ++t) {
    engine.step();
    int round = -2;
    for (core::NodeId v = 0; v < 6; ++v) {
      const LeState s = alg.decode(engine.state_of(v));
      ASSERT_NE(s.mode, LeState::Mode::kRestart)
          << "clean run invoked Restart at step " << t;
      if (round == -2) round = s.r;
      EXPECT_EQ(s.r, round) << "epoch round disagreement at step " << t;
    }
  }
}

TEST(Le, ElectKeepsAtLeastOneCandidate) {
  // §3.2.1: at least one node survives as candidate at every epoch end.
  const graph::Graph g = graph::complete(5);
  const AlgLe alg({.diameter_bound = 1});
  sched::SynchronousScheduler sched(5);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(5, alg.initial_state()), 13);
  for (int t = 0; t < 600; ++t) {
    engine.step();
    std::size_t candidates = 0;
    bool all_compute = true;
    for (core::NodeId v = 0; v < 5; ++v) {
      const LeState s = alg.decode(engine.state_of(v));
      if (s.mode != LeState::Mode::kCompute) all_compute = false;
      if (s.mode == LeState::Mode::kCompute && s.candidate) ++candidates;
    }
    if (all_compute) {
      EXPECT_GE(candidates, 1u) << "all candidates eliminated at step " << t;
    }
  }
}

TEST(Le, StabilizationRoundsScaleGentlyWithN) {
  // Thm 1.3 shape probe: rounds-to-legitimacy on cliques grows far slower
  // than linearly in n (it is O(D log n) with D = 1).
  std::vector<double> ns, rounds;
  for (const core::NodeId n : {4u, 8u, 16u, 32u}) {
    const graph::Graph g = graph::complete(n);
    const AlgLe alg({.diameter_bound = 1});
    const auto samples = analysis::run_trials(
        6, 1000 + n, [&](std::size_t, util::Rng& rng) {
          sched::SynchronousScheduler sched(n);
          core::Engine engine(g, alg, sched,
                              core::random_configuration(alg, n, rng),
                              rng());
          const auto outcome = engine.run_until(
              [&](const core::Configuration& c) {
                return le_legitimate(alg, g, c);
              },
              le_budget(1, n));
          EXPECT_TRUE(outcome.reached);
          return static_cast<double>(outcome.rounds);
        });
    ns.push_back(n);
    rounds.push_back(util::summarize(samples).mean);
  }
  // Mean rounds from n=4 to n=32 should grow by far less than 8x.
  EXPECT_LT(rounds.back(), rounds.front() * 6.0)
      << "LE stabilization grows too fast with n";
}

// --- native set kernels ------------------------------------------------------

/// A state a neighbor of `self` plausibly holds: mostly one of self's
/// (stage, round) class with random bits, so the flood and DetectLE rules
/// fire; sometimes the next round or the other stage, so the consistency
/// check does; rarely (any σ state sends δ down the restart rules) a σ
/// state, the exit most often.
core::StateId nearby_state(const AlgLe& alg, const LeState& self,
                           util::Rng& rng) {
  const AlgLeParams& p = alg.params();
  const int e = alg.epoch_length();
  LeState s;
  const auto pick = rng.below(10);
  if (pick == 0) {
    s.mode = LeState::Mode::kRestart;
    s.sigma = rng.below(2) == 0
                  ? 2 * p.diameter_bound
                  : static_cast<int>(rng.below(
                        static_cast<std::uint64_t>(2 * p.diameter_bound + 1)));
    return alg.encode(s);
  }
  s.mode = self.mode == LeState::Mode::kRestart ? LeState::Mode::kCompute
                                                : self.mode;
  s.r = self.r;
  if (pick == 1) s.r = (self.r + 1) % e;
  if (pick == 2) {
    s.mode = s.mode == LeState::Mode::kCompute ? LeState::Mode::kVerify
                                               : LeState::Mode::kCompute;
  }
  if (s.mode == LeState::Mode::kCompute) {
    s.flag = rng.coin();
    s.flag_acc = rng.below(3) == 0;
    s.candidate = rng.coin();
    s.coin = rng.coin();
    s.coin_acc = rng.below(3) == 0;
  } else {
    s.leader = rng.below(4) == 0;
    s.slot = rng.coin() ? 0
                        : static_cast<int>(rng.below(static_cast<std::uint64_t>(
                              p.id_alphabet + 1)));
  }
  return alg.encode(s);
}

/// The states of one random sensed set around q (q included): up to five
/// more, mostly nearby, otherwise drawn from the whole state set.
std::vector<core::StateId> random_states_around(const AlgLe& alg,
                                                core::StateId q,
                                                util::Rng& rng) {
  std::vector<core::StateId> states{q};
  const LeState self = alg.decode(q);
  const bool sigma_only =
      self.mode == LeState::Mode::kRestart && rng.below(2) == 0;
  const auto extra = rng.below(6);
  for (std::uint64_t i = 0; i < extra; ++i) {
    if (sigma_only) {
      // The exit half the time, so St(v) = {σ(2D)} comes up at every D.
      const int exit = 2 * alg.params().diameter_bound;
      states.push_back(alg.encode(
          {.mode = LeState::Mode::kRestart,
           .sigma = rng.coin() ? exit
                               : static_cast<int>(rng.below(
                                     static_cast<std::uint64_t>(exit + 1)))}));
    } else if (rng.below(8) == 0) {
      states.push_back(rng.below(alg.state_count()));
    } else {
      states.push_back(nearby_state(alg, self, rng));
    }
  }
  return states;
}

TEST(LeSetKernel, MatchesStepFastDrawForDraw) {
  // D = 2 and 4: |Q| = 131 and 219, the StateSet kernel (and the wide one
  // over the same states); D = 12, 14 and 22: |Q| = 571, 659 and 1,011, the
  // wide kernel only. k_id = 7 at D = 14 puts more identifier slots in
  // play. Every call must return step_fast's state and leave the rng
  // exactly where step_fast leaves it. At D = 23 (|Q| = 1,055) no wide set
  // holds the states, and the engine keeps the sorted view.
  EXPECT_FALSE(AlgLe({.diameter_bound = 23}).native_wide_kernel());
  const std::vector<AlgLeParams> params = {
      {.diameter_bound = 2},
      {.diameter_bound = 4},
      {.diameter_bound = 12},
      {.diameter_bound = 14, .id_alphabet = 7},
      {.diameter_bound = 22}};
  for (const AlgLeParams& p : params) {
    const AlgLe alg(p);
    const int d = p.diameter_bound;
    const bool narrow = alg.state_count() <= core::StateSet::kBits;
    ASSERT_TRUE(alg.native_wide_kernel()) << "D=" << d;
    util::Rng rng(5000 + static_cast<std::uint64_t>(d));
    std::vector<core::StateId> scratch;
    std::set<std::pair<LeState::Mode, LeState::Mode>> seen;
    const int trials = d > 14 ? 100 : 200;
    for (core::StateId q = 0; q < alg.state_count(); ++q) {
      for (int trial = 0; trial < trials; ++trial) {
        const std::vector<core::StateId> states =
            random_states_around(alg, q, rng);
        core::WideStateSet wide;
        core::StateSet set;
        for (const core::StateId s : states) {
          wide.insert(s);
          if (narrow) set.insert(s);
        }
        const std::uint64_t seed = rng();
        util::Rng ref_rng(seed);
        const core::StateId want =
            alg.step_fast(q, core::unpack_set(wide, scratch), ref_rng);
        util::Rng wide_rng(seed);
        ASSERT_EQ(alg.step_wide(q, wide, wide_rng), want)
            << "D=" << d << " q=" << alg.state_name(q);
        ASSERT_EQ(wide_rng.state(), ref_rng.state())
            << "D=" << d << " q=" << alg.state_name(q);
        if (narrow) {
          util::Rng set_rng(seed);
          ASSERT_EQ(alg.step_set(q, set, set_rng), want)
              << "D=" << d << " q=" << alg.state_name(q);
          ASSERT_EQ(set_rng.state(), ref_rng.state())
              << "D=" << d << " q=" << alg.state_name(q);
        }
        seen.insert({alg.decode(q).mode, alg.decode(want).mode});
      }
    }
    // Compute -> all three stages, Verify -> itself and restart, restart
    // -> itself and (exit) Compute.
    EXPECT_EQ(seen.size(), 7u) << "D=" << d;
  }
}

}  // namespace
}  // namespace ssau::le
