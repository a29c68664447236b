// Tests for the asynchronous execution engine: SA step semantics, signals,
// double-buffered simultaneity, round-operator tracking, fault injection.
#include "core/engine.hpp"

#include <gtest/gtest.h>

#include "core/automaton.hpp"
#include "graph/generators.hpp"
#include "sched/scheduler.hpp"
#include "support/reference_engine.hpp"
#include "sync/simple_sync_algs.hpp"

namespace ssau::core {
namespace {

/// Increments own state mod m each activation, ignoring the signal.
class CounterAutomaton final : public Automaton {
 public:
  explicit CounterAutomaton(StateId m) : m_(m) {}
  StateId state_count() const override { return m_; }
  bool is_output(StateId) const override { return true; }
  std::int64_t output(StateId q) const override {
    return static_cast<std::int64_t>(q);
  }
  StateId step(StateId q, const Signal&, util::Rng&) const override {
    return (q + 1) % m_;
  }

 private:
  StateId m_;
};

TEST(Engine, SynchronousStepAdvancesEveryNode) {
  const graph::Graph g = graph::path(4);
  CounterAutomaton alg(10);
  sched::SynchronousScheduler sched(4);
  Engine engine(g, alg, sched, Configuration{0, 1, 2, 3}, 1);
  engine.step();
  EXPECT_EQ(engine.config(), (Configuration{1, 2, 3, 4}));
  EXPECT_EQ(engine.time(), 1u);
  EXPECT_EQ(engine.rounds_completed(), 1u);
}

TEST(Engine, NonActivatedNodesKeepState) {
  const graph::Graph g = graph::path(3);
  CounterAutomaton alg(10);
  sched::RotatingSingleScheduler sched(3);
  Engine engine(g, alg, sched, Configuration{0, 0, 0}, 1);
  engine.step();  // activates node 0
  EXPECT_EQ(engine.config(), (Configuration{1, 0, 0}));
}

TEST(Engine, SignalIsInclusiveNeighborhoodSet) {
  const graph::Graph g = graph::path(3);  // 0-1-2
  CounterAutomaton alg(10);
  sched::SynchronousScheduler sched(3);
  Engine engine(g, alg, sched, Configuration{5, 5, 7}, 1);
  const Signal s0 = engine.signal_of(0);  // senses {5} (self and node 1)
  EXPECT_EQ(s0, Signal::from_states({5}));
  const Signal s1 = engine.signal_of(1);  // senses {5, 7}
  EXPECT_EQ(s1, Signal::from_states({5, 7}));
}

TEST(Engine, UpdatesAreSimultaneousWithinAStep) {
  // Min-propagation on a path: in one synchronous step, the minimum travels
  // exactly one hop, proving all nodes read the pre-step configuration.
  const graph::Graph g = graph::path(3);
  sync::MinPropagation alg(10);
  sched::SynchronousScheduler sched(3);
  Engine engine(g, alg, sched, Configuration{0, 9, 9}, 1);
  engine.step();
  EXPECT_EQ(engine.config(), (Configuration{0, 0, 9}));
  engine.step();
  EXPECT_EQ(engine.config(), (Configuration{0, 0, 0}));
}

TEST(Engine, RoundTrackingSynchronous) {
  const graph::Graph g = graph::cycle(5);
  CounterAutomaton alg(100);
  sched::SynchronousScheduler sched(5);
  Engine engine(g, alg, sched, Configuration(5, 0), 1);
  for (int i = 0; i < 7; ++i) engine.step();
  EXPECT_EQ(engine.rounds_completed(), 7u);  // R(i) = i under synchrony
}

TEST(Engine, RoundTrackingRotatingSingle) {
  const graph::Graph g = graph::cycle(5);
  CounterAutomaton alg(100);
  sched::RotatingSingleScheduler sched(5);
  Engine engine(g, alg, sched, Configuration(5, 0), 1);
  engine.run_rounds(3);
  // One round needs all 5 nodes activated once: exactly 5 steps per round.
  EXPECT_EQ(engine.time(), 15u);
}

TEST(Engine, RoundIndexNowRoundsUpMidRound) {
  const graph::Graph g = graph::path(2);
  CounterAutomaton alg(100);
  sched::RotatingSingleScheduler sched(2);
  Engine engine(g, alg, sched, Configuration(2, 0), 1);
  EXPECT_EQ(engine.round_index_now(), 0u);
  engine.step();  // node 0 only: mid-round
  EXPECT_EQ(engine.rounds_completed(), 0u);
  EXPECT_EQ(engine.round_index_now(), 1u);
  engine.step();  // node 1: round closes exactly now
  EXPECT_EQ(engine.rounds_completed(), 1u);
  EXPECT_EQ(engine.round_index_now(), 1u);
}

TEST(Engine, RoundIndexNowExactlyAtBoundaries) {
  // Satellite regression: at every time R(i) (including t = 0 = R(0)) the
  // round stamp must be exactly i — not i+1 — and strictly inside a round it
  // must round up. Exercised over several consecutive rounds, on the engine
  // and on the reference interpreter.
  const auto check = [](auto& engine, const char* label) {
    EXPECT_EQ(engine.time(), 0u);
    EXPECT_EQ(engine.round_index_now(), 0u);  // t = 0 = R(0)
    for (std::uint64_t i = 1; i <= 4; ++i) {
      engine.step();  // node 0: round i begins
      EXPECT_EQ(engine.round_index_now(), i) << "mid-round, " << label;
      engine.step();  // node 1: still mid-round
      EXPECT_EQ(engine.round_index_now(), i) << "mid-round, " << label;
      engine.step();  // node 2: round i closes exactly now (time == R(i))
      EXPECT_EQ(engine.rounds_completed(), i);
      EXPECT_EQ(engine.time(), 3 * i);
      EXPECT_EQ(engine.round_index_now(), i) << "boundary, " << label;
    }
  };
  const graph::Graph g = graph::path(3);
  CounterAutomaton alg(100);
  sched::RotatingSingleScheduler sched(3);
  Engine engine(g, alg, sched, Configuration(3, 0), 1);
  check(engine, "engine");
  sched::RotatingSingleScheduler reference_sched(3);
  oracle::ReferenceEngine reference(g, alg, reference_sched,
                                    Configuration(3, 0), 1);
  check(reference, "reference");
}

TEST(Engine, RoundIndexNowSynchronousBoundaryEveryStep) {
  // Under synchrony every step ends on a boundary: R(i) = i, and the stamp
  // must never round up.
  const graph::Graph g = graph::cycle(4);
  CounterAutomaton alg(100);
  sched::SynchronousScheduler sched(4);
  Engine engine(g, alg, sched, Configuration(4, 0), 1);
  for (std::uint64_t i = 1; i <= 5; ++i) {
    engine.step();
    EXPECT_EQ(engine.time(), i);
    EXPECT_EQ(engine.rounds_completed(), i);
    EXPECT_EQ(engine.round_index_now(), i);
  }
}

TEST(Engine, PendingCountSurvivesLargeNodeCounts) {
  // Satellite regression for the pending_count_ type fix: a full round over
  // n nodes driven one activation at a time keeps exact bookkeeping.
  const NodeId n = 300;
  const graph::Graph g = graph::cycle(n);
  CounterAutomaton alg(1000);
  sched::RotatingSingleScheduler sched(n);
  Engine engine(g, alg, sched, Configuration(n, 0), 1);
  engine.run_rounds(2);
  EXPECT_EQ(engine.time(), 2u * n);
  EXPECT_EQ(engine.rounds_completed(), 2u);
  for (NodeId v = 0; v < n; ++v) EXPECT_EQ(engine.activation_count(v), 2u);
}

TEST(Engine, RunUntilStopsAtPredicate) {
  const graph::Graph g = graph::path(4);
  sync::OrFlood alg;
  sched::SynchronousScheduler sched(4);
  Engine engine(g, alg, sched, Configuration{1, 0, 0, 0}, 1);
  const RunOutcome out = engine.run_until(
      [](const Configuration& c) {
        for (const StateId q : c) {
          if (q == 0) return false;
        }
        return true;
      },
      100);
  EXPECT_TRUE(out.reached);
  EXPECT_EQ(out.time, 3u);  // the 1 floods one hop per synchronous step
  EXPECT_EQ(out.rounds, 3u);
}

TEST(Engine, RunUntilChecksInitialConfiguration) {
  const graph::Graph g = graph::path(2);
  sync::OrFlood alg;
  sched::SynchronousScheduler sched(2);
  Engine engine(g, alg, sched, Configuration{1, 1}, 1);
  const RunOutcome out = engine.run_until(
      [](const Configuration& c) { return c[0] == 1 && c[1] == 1; }, 10);
  EXPECT_TRUE(out.reached);
  EXPECT_EQ(out.time, 0u);
  EXPECT_EQ(out.rounds, 0u);
}

TEST(Engine, RunUntilGivesUpAfterMaxRounds) {
  const graph::Graph g = graph::path(2);
  CounterAutomaton alg(2);
  sched::SynchronousScheduler sched(2);
  Engine engine(g, alg, sched, Configuration{0, 1}, 1);
  const RunOutcome out = engine.run_until(
      [](const Configuration& c) { return c[0] == c[1]; }, 25);
  EXPECT_FALSE(out.reached);
  EXPECT_EQ(engine.rounds_completed(), 25u);
}

TEST(Engine, TransitionListenerSeesChanges) {
  const graph::Graph g = graph::path(2);
  CounterAutomaton alg(4);
  sched::SynchronousScheduler sched(2);
  Engine engine(g, alg, sched, Configuration{0, 1}, 1);
  int events = 0;
  engine.set_transition_listener(
      [&](NodeId, StateId from, StateId to, const Signal&, Time) {
        EXPECT_EQ((from + 1) % 4, to);
        ++events;
      });
  engine.step();
  EXPECT_EQ(events, 2);
}

TEST(Engine, ActivationCountsAreTracked) {
  const graph::Graph g = graph::path(3);
  CounterAutomaton alg(100);
  sched::RotatingSingleScheduler sched(3);
  Engine engine(g, alg, sched, Configuration(3, 0), 1);
  for (int i = 0; i < 7; ++i) engine.step();
  EXPECT_EQ(engine.activation_count(0), 3u);
  EXPECT_EQ(engine.activation_count(1), 2u);
  EXPECT_EQ(engine.activation_count(2), 2u);
}

TEST(Engine, InjectionOverridesStates) {
  const graph::Graph g = graph::path(3);
  CounterAutomaton alg(100);
  sched::SynchronousScheduler sched(3);
  Engine engine(g, alg, sched, Configuration(3, 0), 1);
  engine.inject_state(1, 50);
  EXPECT_EQ(engine.state_of(1), 50u);
  engine.inject_configuration(Configuration{7, 8, 9});
  EXPECT_EQ(engine.config(), (Configuration{7, 8, 9}));
  EXPECT_THROW(engine.inject_state(0, 1000), std::invalid_argument);
  EXPECT_THROW(engine.inject_configuration(Configuration{1, 2}),
               std::invalid_argument);
  // Out-of-range states must be rejected too (the bitmask kernels index
  // state-indexed tables, so this failing loudly is load-bearing).
  EXPECT_THROW(engine.inject_configuration(Configuration{1, 2, 1000}),
               std::invalid_argument);
  EXPECT_EQ(engine.config(), (Configuration{7, 8, 9}));  // unchanged on throw
}

TEST(Engine, RejectsBadInitialConfiguration) {
  const graph::Graph g = graph::path(2);
  CounterAutomaton alg(4);
  sched::SynchronousScheduler sched(2);
  EXPECT_THROW(Engine(g, alg, sched, Configuration{0}, 1),
               std::invalid_argument);
  EXPECT_THROW(Engine(g, alg, sched, Configuration{0, 99}, 1),
               std::invalid_argument);
}

TEST(Engine, DeterministicGivenSeed) {
  const graph::Graph g = graph::cycle(6);
  CounterAutomaton alg(17);
  sched::UniformSingleScheduler s1(6), s2(6);
  Engine e1(g, alg, s1, Configuration(6, 0), 77);
  Engine e2(g, alg, s2, Configuration(6, 0), 77);
  for (int i = 0; i < 200; ++i) {
    e1.step();
    e2.step();
  }
  EXPECT_EQ(e1.config(), e2.config());
  EXPECT_EQ(e1.rounds_completed(), e2.rounds_completed());
}

}  // namespace
}  // namespace ssau::core
