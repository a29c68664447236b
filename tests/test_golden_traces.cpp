// Golden-trace tests: hand-computed step-by-step executions of AlgAU and the
// Restart module, locking the exact dynamics (any behavioural regression in
// the transition functions shows up as a trace mismatch here). Each trace
// runs through the engine and through the reference interpreter the
// differential suites judge the engine by, so that oracle is itself pinned
// to hand-checked data.
#include <gtest/gtest.h>

#include <vector>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "restart/restart.hpp"
#include "sched/scheduler.hpp"
#include "support/reference_engine.hpp"
#include "unison/alg_au.hpp"

namespace ssau {
namespace {

using core::Configuration;

/// Runs C0 under the synchronous daemon on the engine and on the reference
/// interpreter; after step i both must hold golden[i].
void expect_trace(const graph::Graph& g, const core::Automaton& alg,
                  const Configuration& c0, std::uint64_t seed,
                  const std::vector<Configuration>& golden) {
  const auto follow = [&](auto& e, const char* label) {
    for (std::size_t i = 0; i < golden.size(); ++i) {
      e.step();
      ASSERT_EQ(e.config(), golden[i]) << label << " diverged at step " << i;
    }
  };
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(g, alg, sched, c0, seed);
  follow(engine, "engine");
  sched::SynchronousScheduler reference_sched(g.num_nodes());
  oracle::ReferenceEngine reference(g, alg, reference_sched, c0, seed);
  follow(reference, "reference");
}

TEST(GoldenTrace, TwoNodeTearHealsExactlyAsAnalyzed) {
  // path(2), D = 1 (k = 5), synchronous. C0 = (able 1, able 5): the tear.
  // Hand-derivation:
  //  t0: (1, 5)    edge unprotected (dist(1,5)=4>1).
  //      u=1: |1|=1 has no faulty twin -> stays. v=5: AF -> ^5.
  //  t1: (1, ^5)   v senses {1,^5}: level 1 not strictly outwards of 5
  //      (same-sign check: sign differs? both positive: 1 < 5) -> FA to 4.
  //      u stays (unprotected, no faulty twin at |1|).
  //  t2: (1, 4)    still unprotected (dist(1,4)=3). v: AF -> ^4.
  //  t3: (1, ^4)   v: FA -> 3. u stays.
  //  t4: (1, 3)    unprotected (dist=2). v: AF -> ^3.
  //  t5: (1, ^3)   v: FA -> 2.
  //  t6: (1, 2)    adjacent! good graph. u: Λ={1,2}={ℓ,φℓ} -> AA to 2;
  //      v: Λ={1,2}, 1 = φ^{-1}(2) ∈ Λ -> no AA -> stays.
  //  t7: (2, 2)    both tick together from here.
  const graph::Graph g = graph::path(2);
  const unison::AlgAu alg(1);
  const auto& ts = alg.turns();
  const std::vector<Configuration> golden = {
      {ts.able_id(1), ts.faulty_id(5)},  // after step 0
      {ts.able_id(1), ts.able_id(4)},
      {ts.able_id(1), ts.faulty_id(4)},
      {ts.able_id(1), ts.able_id(3)},
      {ts.able_id(1), ts.faulty_id(3)},
      {ts.able_id(1), ts.able_id(2)},
      {ts.able_id(2), ts.able_id(2)},
      {ts.able_id(3), ts.able_id(3)},  // synced ticking
      {ts.able_id(4), ts.able_id(4)},
  };
  expect_trace(g, alg, {ts.able_id(1), ts.able_id(5)}, 1, golden);
}

TEST(GoldenTrace, OppositeSignsMeetAtPlusMinusOne) {
  // path(2), D = 1. C0 = (able -3, able 3): opposite signs, unprotected
  // (dist(κ(-3)=7, κ(3)=2) = 5 > 1).
  //  t0: both AF (unprotected, |±3| >= 2) -> (^-3, ^3).
  //  t1: neither senses a level strictly outwards of its own (opposite
  //      signs don't count) -> both FA inwards -> (-2, 2). Still
  //      unprotected (dist(κ(-2)=8, κ(2)=1) = 3).
  //  t2: both AF -> (^-2, ^2).
  //  t3: both FA -> (-1, 1). Adjacent (φ(-1) = 1): good.
  //  t4: u=-1: Λ={-1,1}={ℓ,φℓ} -> AA to 1. v=1: Λ={-1,1}: -1 ∉ {1,2} -> no.
  //  t5: (1, 1) -> hmm wait t4 gives (1, 1)?
  const graph::Graph g = graph::path(2);
  const unison::AlgAu alg(1);
  const auto& ts = alg.turns();
  const std::vector<Configuration> golden = {
      {ts.faulty_id(-3), ts.faulty_id(3)},
      {ts.able_id(-2), ts.able_id(2)},
      {ts.faulty_id(-2), ts.faulty_id(2)},
      {ts.able_id(-1), ts.able_id(1)},
      {ts.able_id(1), ts.able_id(1)},
      {ts.able_id(2), ts.able_id(2)},
  };
  expect_trace(g, alg, {ts.able_id(-3), ts.able_id(3)}, 2, golden);
}

TEST(GoldenTrace, RestartWaveOnPathOfThree) {
  // path(3), D = 2 (σ(0..4)), synchronous. C0 = (σ0, h1, h1), q0* = h0.
  //  t0: v0 senses {σ0, h1} -> rule 1 -> σ0 (stays σ0 by re-entry);
  //      v1 senses {σ0, h1} -> rule 1 -> σ0; v2 senses {h1} -> inert.
  //  t1: v0: all-σ {σ0} -> σ1; v1 senses {σ0,σ1... wait at t1 config is
  //      (σ0, σ0, h1): v0 senses {σ0} -> σ1; v1 senses {σ0, h1} -> rule 1
  //      -> σ0; v2 senses {σ0, h1} -> rule 1 -> σ0.
  //  t2: (σ1, σ0, σ0): v0 senses {σ1,σ0} -> σ1; v1 {σ1,σ0} -> σ1;
  //      v2 {σ0} -> σ1.
  //  t3: (σ1, σ1, σ1) -> all see {σ1} -> σ2 ... lockstep climb.
  //  t6: (σ4, σ4, σ4) -> exit -> all h0.
  const graph::Graph g = graph::path(3);
  const restart::StandaloneRestart alg(2, 2);
  const std::vector<Configuration> golden = {
      {alg.sigma_id(0), alg.sigma_id(0), alg.host_id(1)},
      {alg.sigma_id(1), alg.sigma_id(0), alg.sigma_id(0)},
      {alg.sigma_id(1), alg.sigma_id(1), alg.sigma_id(1)},
      {alg.sigma_id(2), alg.sigma_id(2), alg.sigma_id(2)},
      {alg.sigma_id(3), alg.sigma_id(3), alg.sigma_id(3)},
      {alg.sigma_id(4), alg.sigma_id(4), alg.sigma_id(4)},
      {alg.host_id(0), alg.host_id(0), alg.host_id(0)},  // concurrent exit
  };
  expect_trace(g, alg, {alg.sigma_id(0), alg.host_id(1), alg.host_id(1)}, 3,
               golden);
}

}  // namespace
}  // namespace ssau
