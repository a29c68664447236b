// Sharded multi-threaded synchronous kernel: partition correctness and the
// engine's bit-identity guarantee — the parallel kernel at every thread
// count must walk exactly the trajectory of the serial fast path and the
// reference interpreter (configurations, time, rounds, activation counts, and
// listener streams), for deterministic and randomized automata alike, under
// full-activation and asynchronous schedulers. The shard pool underneath is
// pinned directly too: every shard runs once per call (also on shard lists
// longer than the pool, which the engine's over-decomposed plans pass), no
// participant runs two bodies at once, a throwing shard still lets the call
// finish, and a failed thread spawn throws cleanly.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "core/shard.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "sync/simple_sync_algs.hpp"
#include "sync/synchronizer.hpp"
#include "thread_spawn_failure.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "util/rng.hpp"
#include "support/reference_engine.hpp"

namespace ssau {
namespace {

using core::EngineOptions;
using core::Shard;

// --- sharding ---------------------------------------------------------------

void expect_valid_partition(const graph::Graph& g,
                            const std::vector<Shard>& shards,
                            unsigned requested) {
  ASSERT_FALSE(shards.empty());
  EXPECT_LE(shards.size(), static_cast<std::size_t>(requested));
  EXPECT_LE(shards.size(), static_cast<std::size_t>(g.num_nodes()));
  core::NodeId expected_begin = 0;
  for (const Shard& s : shards) {
    EXPECT_EQ(s.begin, expected_begin);
    EXPECT_GT(s.end, s.begin) << "empty shard";
    expected_begin = s.end;
  }
  EXPECT_EQ(expected_begin, g.num_nodes());
}

TEST(Shards, PartitionContiguousNonEmptyCovering) {
  util::Rng rng(5);
  for (const core::NodeId n : {1u, 2u, 7u, 64u, 500u}) {
    const graph::Graph g = graph::random_connected(n, 0.05, rng);
    for (const unsigned k : {1u, 2u, 3u, 8u, 64u, 1000u}) {
      expect_valid_partition(g, core::make_shards(g, k), k);
    }
  }
}

TEST(Shards, DegreeWeightedBalance) {
  // A star graph: the hub carries half the total weight, so with 4 shards a
  // node-count split would give the hub shard ~2x the ideal weight of every
  // other; the degree-weighted split must keep every shard at or below
  // ideal + heaviest node.
  util::Rng rng(7);
  const graph::Graph g = graph::random_connected(400, 0.02, rng);
  const unsigned k = 4;
  const std::vector<Shard> shards = core::make_shards(g, k);
  ASSERT_EQ(shards.size(), k);
  std::uint64_t total = 0;
  std::uint64_t heaviest = 0;
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    total += g.degree(v) + 1;
    heaviest = std::max<std::uint64_t>(heaviest, g.degree(v) + 1);
  }
  for (const Shard& s : shards) {
    std::uint64_t w = 0;
    for (core::NodeId v = s.begin; v < s.end; ++v) w += g.degree(v) + 1;
    EXPECT_LE(w, total / k + heaviest)
        << "shard [" << s.begin << "," << s.end << ") over weight";
  }
}

TEST(Shards, MoreShardsThanNodesClamps) {
  const graph::Graph g = graph::path(3);
  const std::vector<Shard> shards = core::make_shards(g, 16);
  ASSERT_EQ(shards.size(), 3u);
  for (const Shard& s : shards) EXPECT_EQ(s.size(), 1u);
}

TEST(Shards, WeightedIndexRangePartition) {
  // The sparse-activation kernel partitions [0, |A_t|) of the activation
  // list, not [0, n): the same contiguity/coverage invariants must hold for
  // an arbitrary weight callback over an arbitrary count.
  std::vector<Shard> shards;
  for (const core::NodeId count : {1u, 2u, 5u, 63u, 512u}) {
    for (const unsigned k : {1u, 2u, 4u, 8u, 600u}) {
      core::make_weighted_shards_into(shards, count, k, [&](core::NodeId i) {
        return std::uint64_t{1} + (i % 7);
      });
      ASSERT_FALSE(shards.empty());
      EXPECT_LE(shards.size(), static_cast<std::size_t>(k));
      EXPECT_LE(shards.size(), static_cast<std::size_t>(count));
      core::NodeId expected_begin = 0;
      for (const Shard& s : shards) {
        EXPECT_EQ(s.begin, expected_begin);
        EXPECT_GT(s.end, s.begin) << "empty shard";
        expected_begin = s.end;
      }
      EXPECT_EQ(expected_begin, count);
    }
  }
  // count == 0 (no activations) produces no shards, not a bogus [0, 0).
  core::make_weighted_shards_into(shards, 0, 4,
                                  [](core::NodeId) { return 1; });
  EXPECT_TRUE(shards.empty());
}

TEST(Shards, WeightedIndexRangeBalance) {
  // A heavily skewed weight profile (one hub index) must not overload any
  // shard beyond ideal + heaviest, mirroring the node-partition guarantee.
  std::vector<Shard> shards;
  const core::NodeId count = 256;
  const auto weight = [](core::NodeId i) {
    return i == 17 ? std::uint64_t{200} : std::uint64_t{2};
  };
  std::uint64_t total = 0;
  std::uint64_t heaviest = 0;
  for (core::NodeId i = 0; i < count; ++i) {
    total += weight(i);
    heaviest = std::max(heaviest, weight(i));
  }
  const unsigned k = 4;
  core::make_weighted_shards_into(shards, count, k, weight);
  ASSERT_EQ(shards.size(), k);
  for (const Shard& s : shards) {
    std::uint64_t w = 0;
    for (core::NodeId i = s.begin; i < s.end; ++i) w += weight(i);
    EXPECT_LE(w, total / k + heaviest)
        << "shard [" << s.begin << "," << s.end << ") over weight";
  }
}

// --- worker pool ------------------------------------------------------------

TEST(ParallelEnginePool, RunsEveryShardEveryCall) {
  core::ParallelEngine pool(3);
  EXPECT_EQ(pool.participants(), 3u);
  const std::vector<Shard> shards = {{0, 10}, {10, 25}, {25, 30}};
  std::vector<int> hits(3, 0);
  std::vector<core::NodeId> begins(3, 0);
  for (int call = 0; call < 50; ++call) {
    pool.run(shards, [&](const Shard& s, unsigned idx, unsigned) {
      ++hits[idx];  // each index claimed by exactly one participant per call
      begins[idx] = s.begin;
    });
  }
  EXPECT_EQ(hits, (std::vector<int>{50, 50, 50}));
  EXPECT_EQ(begins, (std::vector<core::NodeId>{0, 10, 25}));
}

TEST(ParallelEnginePool, ShorterShardListsLeaveParticipantsIdle) {
  // The sparse-activation kernel passes a fresh shard list every step; the
  // pool must run exactly that list, and participants beyond the call's
  // shard count must sit it out without disturbing the join.
  core::ParallelEngine pool(4);
  std::vector<int> hits(4, 0);
  std::vector<Shard> seen(4);
  const std::vector<Shard> two = {{0, 7}, {7, 13}};
  for (int call = 0; call < 50; ++call) {
    pool.run(two, [&](const Shard& s, unsigned idx, unsigned) {
      ++hits[idx];
      seen[idx] = s;
    });
  }
  EXPECT_EQ(hits, (std::vector<int>{50, 50, 0, 0}));
  EXPECT_EQ(seen[0].begin, 0u);
  EXPECT_EQ(seen[0].end, 7u);
  EXPECT_EQ(seen[1].begin, 7u);
  EXPECT_EQ(seen[1].end, 13u);

  // Full-width and shorter calls interleave cleanly.
  const std::vector<Shard> four = {{0, 10}, {10, 20}, {20, 30}, {30, 40}};
  pool.run(four, [&](const Shard& s, unsigned idx, unsigned) {
    ++hits[idx];
    seen[idx] = s;
  });
  EXPECT_EQ(hits, (std::vector<int>{51, 51, 1, 1}));
  EXPECT_EQ(seen[3].begin, 30u);
  EXPECT_EQ(seen[3].end, 40u);
}

TEST(ParallelEnginePool, LongerShardListsRunOnceOnExclusiveParticipants) {
  // The engine cuts kShardsPerParticipant shards per participant, so run()
  // takes lists longer than the pool: every shard must run exactly once per
  // call, every body must see a participant index below P, and a
  // participant must never be inside two bodies at once (the engine indexes
  // its sense scratch and lazy memo by it).
  constexpr unsigned kP = 4;
  core::ParallelEngine pool(kP);
  std::vector<Shard> shards;
  for (core::NodeId i = 0; i < 3 * kP + 1; ++i) {
    shards.push_back({10 * i, 10 * i + 10});
  }
  std::vector<int> hits(shards.size(), 0);
  std::vector<Shard> seen(shards.size());
  std::array<std::atomic<bool>, kP> inside{};
  std::atomic<int> bad_participant{0};
  std::atomic<int> reentered{0};
  std::atomic<unsigned> spin{0};
  for (int call = 0; call < 200; ++call) {
    pool.run(shards, [&](const Shard& s, unsigned idx, unsigned participant) {
      if (participant >= kP) {
        ++bad_participant;
        return;
      }
      if (inside[participant].exchange(true)) ++reentered;
      ++hits[idx];
      seen[idx] = s;
      for (int i = 0; i < 200; ++i) spin.fetch_add(1, std::memory_order_relaxed);
      inside[participant].store(false);
    });
  }
  EXPECT_EQ(bad_participant.load(), 0);
  EXPECT_EQ(reentered.load(), 0);
  EXPECT_EQ(hits, std::vector<int>(shards.size(), 200));
  for (std::size_t i = 0; i < shards.size(); ++i) {
    EXPECT_EQ(seen[i].begin, shards[i].begin) << "shard " << i;
    EXPECT_EQ(seen[i].end, shards[i].end) << "shard " << i;
  }

  // A one-shard list runs inline on the caller, participant 0.
  unsigned single_participant = kP;
  pool.run(std::vector<Shard>{{0, 5}},
           [&](const Shard&, unsigned, unsigned participant) {
             single_participant = participant;
           });
  EXPECT_EQ(single_participant, 0u);

  // The empty list is still rejected.
  EXPECT_THROW(pool.run(std::vector<Shard>{},
                        [](const Shard&, unsigned, unsigned) {}),
               std::invalid_argument);
}

TEST(ParallelEnginePool, ShardExceptionCompletesBarrierAndRethrows) {
  // A throwing shard must neither terminate a worker nor let the caller
  // unwind while shards are still executing: the call completes its join,
  // then the first captured exception is rethrown on the caller.
  core::ParallelEngine pool(3);
  const std::vector<Shard> shards = {{0, 8}, {8, 16}, {16, 24}};
  std::atomic<int> completed{0};
  for (int call = 0; call < 20; ++call) {
    // Alternate which shard throws — including shards the caller claims.
    const unsigned thrower = static_cast<unsigned>(call % 3);
    EXPECT_THROW(
        pool.run(shards, [&](const Shard&, unsigned idx, unsigned) {
          if (idx == thrower) throw std::runtime_error("shard failure");
          ++completed;
        }),
        std::runtime_error);
  }
  EXPECT_EQ(completed.load(), 20 * 2);  // the two non-throwing shards ran
  // The pool remains usable after failed calls.
  std::vector<int> hits(3, 0);
  pool.run(shards, [&](const Shard&, unsigned idx, unsigned) { ++hits[idx]; });
  EXPECT_EQ(hits, (std::vector<int>{1, 1, 1}));
}

TEST(ParallelEnginePool, FailedThreadSpawnJoinsStartedWorkersAndThrows) {
#ifdef SSAU_SHADOW_MEMORY_SANITIZER
  GTEST_SKIP() << "sanitizer shadow memory exceeds any RLIMIT_AS cap";
#endif
  // Re-exec the binary for the child: a forked child would inherit this
  // process's address space, so the cap could starve the very first spawn
  // and hide a constructor that leaks joinable threads.
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_EXIT(testing_support::construct_under_address_cap([] {
                core::ParallelEngine pool(testing_support::kSpawnTestThreads);
              }),
              ::testing::ExitedWithCode(0), "caught: ");
}

TEST(ParallelEnginePool, ResolveThreadCount) {
  EXPECT_EQ(core::ParallelEngine::resolve_thread_count(1), 1u);
  EXPECT_EQ(core::ParallelEngine::resolve_thread_count(6), 6u);
  EXPECT_GE(core::ParallelEngine::resolve_thread_count(0), 1u);  // auto
}

// --- engine bit-identity ----------------------------------------------------

/// Runs a reference engine (serial fast path) and one engine per thread count
/// in lockstep; every aspect of the engine state must stay bit-identical.
/// The counts include 3 and 5, whose shard plans (kShardsPerParticipant
/// shards per participant) do not divide n.
/// Also runs the reference interpreter when `against_legacy`.
/// `sparse_threshold` forces the sparse-activation kernel onto small test
/// instances (the default production threshold would keep them serial).
void expect_thread_count_invariance(const graph::Graph& g,
                                    const core::Automaton& alg,
                                    const core::Configuration& initial,
                                    const std::string& sched_name,
                                    std::uint64_t seed, int steps,
                                    bool against_legacy = true,
                                    std::size_t sparse_threshold = 1024) {
  auto ref_sched = sched::make_scheduler(sched_name, g);
  core::Engine reference(g, alg, *ref_sched, initial, seed,
                         EngineOptions{.thread_count = 1});

  struct Candidate {
    std::unique_ptr<sched::Scheduler> sched;
    std::unique_ptr<core::Engine> engine;
    std::string label;
  };
  std::vector<Candidate> candidates;
  for (const unsigned threads : {0u, 2u, 3u, 4u, 5u, 8u}) {
    Candidate c;
    c.sched = sched::make_scheduler(sched_name, g);
    c.engine = std::make_unique<core::Engine>(
        g, alg, *c.sched, initial, seed,
        EngineOptions{.thread_count = threads,
                      .sparse_activation_threshold = sparse_threshold});
    c.label = "threads=" + std::to_string(threads);
    candidates.push_back(std::move(c));
  }
  std::unique_ptr<sched::Scheduler> legacy_sched;
  std::unique_ptr<oracle::ReferenceEngine> legacy;
  if (against_legacy) {
    legacy_sched = sched::make_scheduler(sched_name, g);
    legacy = std::make_unique<oracle::ReferenceEngine>(g, alg, *legacy_sched,
                                                       initial, seed);
  }

  const auto expect_same = [&](const auto& e, const std::string& label,
                               int s) {
    ASSERT_EQ(e.config(), reference.config())
        << label << " diverged at step " << s << " (" << sched_name << ")";
    ASSERT_EQ(e.time(), reference.time()) << label;
    ASSERT_EQ(e.rounds_completed(), reference.rounds_completed()) << label;
    ASSERT_EQ(e.round_index_now(), reference.round_index_now()) << label;
  };
  for (int s = 0; s < steps; ++s) {
    reference.step();
    for (Candidate& c : candidates) {
      c.engine->step();
      ASSERT_NO_FATAL_FAILURE(expect_same(*c.engine, c.label, s));
    }
    if (legacy) {
      legacy->step();
      ASSERT_NO_FATAL_FAILURE(expect_same(*legacy, "legacy", s));
    }
  }
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (Candidate& c : candidates) {
      ASSERT_EQ(c.engine->activation_count(v), reference.activation_count(v))
          << c.label << " activation count drift at node " << v;
    }
    if (legacy) {
      ASSERT_EQ(legacy->activation_count(v), reference.activation_count(v))
          << "legacy activation count drift at node " << v;
    }
  }
}

TEST(ParallelEngine, AlgAuMaskKernelBitIdentical) {
  // D = 2 (|Q| = 30): the native AlgAu bitmask kernel runs sharded.
  const unison::AlgAu alg(2);
  util::Rng rng(41);
  const graph::Graph g = graph::random_connected(500, 0.01, rng);
  for (const char* kind : {"tear", "all-faulty", "random"}) {
    const core::Configuration c0 =
        unison::au_adversarial_configuration(kind, alg, g, rng);
    expect_thread_count_invariance(g, alg, c0, "synchronous", 211, 40);
  }
}

TEST(ParallelEngine, AlgAuViewKernelBitIdentical) {
  // D = 5 (|Q| = 66 > 64): the sorted-span SignalView path runs sharded.
  const unison::AlgAu alg(5);
  util::Rng rng(43);
  const graph::Graph g = graph::random_connected(200, 0.02, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  expect_thread_count_invariance(g, alg, c0, "synchronous", 223, 40);
}

TEST(ParallelEngine, LazyMemoCompiledKernelBitIdentical) {
  // Deterministic, 14 < |Q| <= 64, no native kernel: the engine compiles a
  // lazily memoized table — each shard must get its own memo instance.
  const sync::MinPropagation minprop(32);
  util::Rng rng(47);
  const graph::Graph g = graph::random_connected(300, 0.02, rng);
  const core::Configuration c0 =
      core::random_configuration(minprop, g.num_nodes(), rng);
  expect_thread_count_invariance(g, minprop, c0, "synchronous", 227, 30);
}

TEST(ParallelEngine, AlgMisBitIdenticalSynchronousAndAsync) {
  // Randomized: per-node counter-based rng streams keep every thread count
  // (and the reference interpreter) on the same trajectory; the uniform-single
  // scheduler additionally pins the scheduler's own rng stream.
  const mis::AlgMis alg({.diameter_bound = 2});
  util::Rng rng(53);
  const graph::Graph g = graph::random_connected(150, 0.04, rng);
  const core::Configuration c0 =
      mis::mis_adversarial_configuration("random", alg, g, rng);
  expect_thread_count_invariance(g, alg, c0, "synchronous", 229, 40);
  expect_thread_count_invariance(g, alg, c0, "uniform-single", 229, 600);
}

TEST(ParallelEngine, AlgLeBitIdenticalSynchronousAndAsync) {
  const le::AlgLe alg({.diameter_bound = 2});
  util::Rng rng(59);
  const graph::Graph g = graph::random_connected(120, 0.05, rng);
  const core::Configuration c0 =
      le::le_adversarial_configuration("random", alg, g, rng);
  expect_thread_count_invariance(g, alg, c0, "synchronous", 233, 40);
  expect_thread_count_invariance(g, alg, c0, "uniform-single", 233, 600);
}

TEST(ParallelEngine, FewerNodesThanShardsBitIdentical) {
  // 5 nodes: every pooled plan asks for more shards than there are nodes
  // (2 threads already want 2 * kShardsPerParticipant), and 8 threads want
  // more participants than nodes. The plan clamps to one node per shard and
  // the pool to one participant per node.
  const unison::AlgAu alg(2);
  util::Rng rng(101);
  const graph::Graph g = graph::random_connected(5, 0.5, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  expect_thread_count_invariance(g, alg, c0, "synchronous", 401, 40);
  expect_thread_count_invariance(g, alg, c0, "laggard", 403, 60,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/2);
  sched::SynchronousScheduler sync_sched(g.num_nodes());
  core::Engine engine(g, alg, sync_sched, c0, 1,
                      EngineOptions{.thread_count = 8});
  EXPECT_EQ(engine.shard_count(), 5u);
}

// --- sparse-activation kernel ----------------------------------------------

TEST(SparseActivationKernel, AlgAuLaggardBitIdentical) {
  // The laggard daemon activates n-1 nodes per step (then one): |A_t| sits
  // above the forced threshold, so phase 1 runs sharded over the activation
  // list; trajectories must match the serial fast path and the reference
  // interpreter at every thread count.
  const unison::AlgAu alg(2);
  util::Rng rng(71);
  const graph::Graph g = graph::random_connected(300, 0.015, rng);
  for (const char* kind : {"tear", "random"}) {
    const core::Configuration c0 =
        unison::au_adversarial_configuration(kind, alg, g, rng);
    expect_thread_count_invariance(g, alg, c0, "laggard", 307, 60,
                                   /*against_legacy=*/true,
                                   /*sparse_threshold=*/2);
  }
}

TEST(SparseActivationKernel, AlgAuViewKernelLaggard) {
  // D = 5 (|Q| = 66 > 64): the sparse kernel's sorted-span SignalView branch.
  const unison::AlgAu alg(5);
  util::Rng rng(73);
  const graph::Graph g = graph::random_connected(150, 0.03, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  expect_thread_count_invariance(g, alg, c0, "laggard", 311, 60,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/2);
}

TEST(SparseActivationKernel, RandomSubsetBitIdentical) {
  // |A_t| varies randomly around n/2, straddling the threshold: steps above
  // it shard, steps below it fall back to the serial path — the mix must
  // still be bit-identical, and the scheduler's rng stream (consumed on the
  // serial draw) must be unperturbed by the kernel choice.
  const unison::AlgAu au(2);
  const mis::AlgMis mis({.diameter_bound = 2});
  util::Rng rng(79);
  const graph::Graph g = graph::random_connected(200, 0.02, rng);
  const core::Configuration au0 =
      unison::au_adversarial_configuration("random", au, g, rng);
  const core::Configuration mis0 =
      mis::mis_adversarial_configuration("random", mis, g, rng);
  expect_thread_count_invariance(g, au, au0, "random-subset", 313, 80,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/100);
  // Randomized MIS: per-node rng streams must survive sharded phase 1.
  expect_thread_count_invariance(g, mis, mis0, "random-subset", 317, 80,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/100);
}

TEST(SparseActivationKernel, WaveBitIdenticalIncludingDisconnected) {
  // BFS-layer activation sets of wildly varying size; the disconnected graph
  // exercises the multi-component wave daemon through the sparse kernel (on
  // a disconnected G the daemon must still activate every node, or rounds
  // never close — guarded below by the round-progress check).
  const unison::AlgAu alg(2);
  util::Rng rng(83);
  const graph::Graph connected = graph::random_connected(240, 0.02, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, connected, rng);
  expect_thread_count_invariance(connected, alg, c0, "wave", 331, 80,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/2);

  // Two random components + an isolated node, stitched into one node range.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  const graph::Graph a = graph::random_connected(90, 0.05, rng);
  const graph::Graph b = graph::random_connected(60, 0.07, rng);
  for (const auto& [u, v] : a.edges()) edges.emplace_back(u, v);
  for (const auto& [u, v] : b.edges()) edges.emplace_back(u + 90, v + 90);
  const graph::Graph disconnected(151, std::move(edges));
  ASSERT_FALSE(disconnected.connected());
  const core::Configuration d0 = unison::au_adversarial_configuration(
      "random", alg, disconnected, rng);
  expect_thread_count_invariance(disconnected, alg, d0, "wave", 337, 80,
                                 /*against_legacy=*/true,
                                 /*sparse_threshold=*/2);

  // Fairness through the engine: rounds actually close under the wave daemon
  // on the disconnected graph (every node gets activated every cycle).
  auto sched = sched::make_scheduler("wave", disconnected);
  core::Engine engine(disconnected, alg, *sched, d0, 337,
                      EngineOptions{.thread_count = 4,
                                    .sparse_activation_threshold = 2});
  engine.run_rounds(5);
  EXPECT_GE(engine.rounds_completed(), 5u);
  for (graph::NodeId v = 0; v < disconnected.num_nodes(); ++v) {
    EXPECT_GE(engine.activation_count(v), 5u) << "node " << v << " starved";
  }
}

TEST(SparseActivationKernel, ZeroThresholdRunsEveryStepWithoutThrowing) {
  // sparse_activation_threshold = 0 ("always shard") must not push a
  // degenerate empty activation set into the pool (an empty shard list is
  // rejected there); the mix of single-node and bulk laggard steps
  // must run to completion and stay on the reference trajectory.
  const unison::AlgAu alg(2);
  util::Rng rng(97);
  const graph::Graph g = graph::random_connected(80, 0.05, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  auto sched = sched::make_scheduler("laggard", g);
  core::Engine engine(g, alg, *sched, c0, 353,
                      EngineOptions{.thread_count = 4,
                                    .sparse_activation_threshold = 0});
  auto ref_sched = sched::make_scheduler("laggard", g);
  core::Engine reference(g, alg, *ref_sched, c0, 353,
                         EngineOptions{.thread_count = 1});
  for (int s = 0; s < 100; ++s) {
    engine.step();
    reference.step();
    ASSERT_EQ(engine.config(), reference.config()) << "step " << s;
  }
  EXPECT_EQ(engine.rounds_completed(), reference.rounds_completed());
}

TEST(SparseActivationKernel, ListenerStreamBitIdentical) {
  // Workers log per-shard transitions during sharded phase 1; the replayed
  // stream (activation-list order, pre-step signals) must match the serial
  // fast path and the reference interpreter exactly.
  const unison::AlgAu alg(2);
  util::Rng rng(89);
  const graph::Graph g = graph::random_connected(140, 0.04, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("tear", alg, g, rng);

  struct Event {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Event&) const = default;
  };
  const auto observe = [&](auto& engine) {
    std::vector<Event> events;
    std::vector<core::Signal> signals;
    engine.set_transition_listener(
        [&](core::NodeId v, core::StateId from, core::StateId to,
            const core::Signal& sig, core::Time t) {
          events.push_back({v, from, to, t});
          signals.push_back(sig);
        });
    for (int s = 0; s < 60; ++s) engine.step();
    return std::make_pair(events, signals);
  };
  const auto run = [&](EngineOptions options) {
    auto sched = sched::make_scheduler("laggard", g);
    core::Engine engine(g, alg, *sched, c0, 347, options);
    return observe(engine);
  };

  const auto [serial_events, serial_signals] =
      run(EngineOptions{.thread_count = 1, .sparse_activation_threshold = 2});
  ASSERT_FALSE(serial_events.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto [events, signals] =
        run(EngineOptions{.thread_count = threads,
                          .sparse_activation_threshold = 2});
    EXPECT_EQ(events, serial_events) << "threads=" << threads;
    EXPECT_EQ(signals, serial_signals) << "threads=" << threads;
  }
  auto legacy_sched = sched::make_scheduler("laggard", g);
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 347);
  const auto [legacy_events, legacy_signals] = observe(legacy);
  EXPECT_EQ(legacy_events, serial_events);
  EXPECT_EQ(legacy_signals, serial_signals);
}

TEST(ParallelEngine, ListenerStreamBitIdentical) {
  // Workers log transitions per shard and the engine replays them in node
  // order: the observed (v, from, to, signal, t) stream must match the
  // serial fast path and the reference interpreter exactly.
  const unison::AlgAu alg(2);
  util::Rng rng(61);
  const graph::Graph g = graph::random_connected(160, 0.03, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("tear", alg, g, rng);

  struct Event {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Event&) const = default;
  };
  const auto observe = [&](auto& engine) {
    std::vector<Event> events;
    std::vector<core::Signal> signals;
    engine.set_transition_listener(
        [&](core::NodeId v, core::StateId from, core::StateId to,
            const core::Signal& sig, core::Time t) {
          events.push_back({v, from, to, t});
          signals.push_back(sig);
        });
    for (int s = 0; s < 30; ++s) engine.step();
    return std::make_pair(events, signals);
  };
  const auto run = [&](EngineOptions options) {
    auto sched = sched::make_scheduler("synchronous", g);
    core::Engine engine(g, alg, *sched, c0, 271, options);
    return observe(engine);
  };

  const auto [serial_events, serial_signals] =
      run(EngineOptions{.thread_count = 1});
  ASSERT_FALSE(serial_events.empty());
  for (const unsigned threads : {2u, 4u, 8u}) {
    const auto [events, signals] = run(EngineOptions{.thread_count = threads});
    EXPECT_EQ(events, serial_events) << "threads=" << threads;
    EXPECT_EQ(signals, serial_signals) << "threads=" << threads;
  }
  auto legacy_sched = sched::make_scheduler("synchronous", g);
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 271);
  const auto [legacy_events, legacy_signals] = observe(legacy);
  EXPECT_EQ(legacy_events, serial_events);
  EXPECT_EQ(legacy_signals, serial_signals);
}

TEST(ParallelEngine, RuntimeCountersReadZeroOnSerialEngines) {
  // barrier_wait_ns() and apply_phase_ns() feed the bench's runtime
  // metrics. Serial engines never read the clock, so both stay 0 however
  // long they run; a sharded synchronous engine times its post-barrier tail
  // on every step.
  const unison::AlgAu alg(2);
  util::Rng rng(71);
  const graph::Graph g = graph::random_connected(200, 0.05, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);

  for (const char* sched_name : {"synchronous", "uniform-single"}) {
    auto sched = sched::make_scheduler(sched_name, g);
    core::Engine serial(g, alg, *sched, c0, 3,
                        EngineOptions{.thread_count = 1});
    for (int s = 0; s < 50; ++s) serial.step();
    EXPECT_EQ(serial.barrier_wait_ns(), 0u) << sched_name;
    EXPECT_EQ(serial.apply_phase_ns(), 0u) << sched_name;
  }

  sched::SynchronousScheduler sync_sched(g.num_nodes());
  core::Engine sharded(g, alg, sync_sched, c0, 3,
                       EngineOptions{.thread_count = 4});
  ASSERT_EQ(sharded.shard_count(), 4u);
  for (int s = 0; s < 10; ++s) sharded.step();
  EXPECT_GT(sharded.apply_phase_ns(), 0u);
}

TEST(ParallelEngine, ShardCountReflectsRouting) {
  const unison::AlgAu alg(2);
  util::Rng rng(67);
  const graph::Graph g = graph::random_connected(64, 0.08, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);

  sched::SynchronousScheduler sync_sched(g.num_nodes());
  core::Engine sharded(g, alg, sync_sched, c0, 1,
                       EngineOptions{.thread_count = 4});
  EXPECT_EQ(sharded.shard_count(), 4u);

  core::Engine serial(g, alg, sync_sched, c0, 1,
                      EngineOptions{.thread_count = 1});
  EXPECT_EQ(serial.shard_count(), 1u);

  // Automata with mutable per-call scratch (parallel_safe() false, e.g. the
  // synchronizer product) never shard — the engine silently stays serial.
  const sync::Blinker blinker;
  const sync::Synchronizer synced(blinker, 1);
  core::Engine synced_engine(
      g, synced, sync_sched,
      core::uniform_configuration(g.num_nodes(), 0), 1,
      EngineOptions{.thread_count = 4});
  EXPECT_EQ(synced_engine.shard_count(), 1u);

  // Single-node daemons never shard, whatever thread_count asks for: their
  // max_activation_hint() (1) can never reach the sparse threshold.
  auto async_sched = sched::make_scheduler("uniform-single", g);
  core::Engine async_engine(g, alg, *async_sched, c0, 1,
                            EngineOptions{.thread_count = 4});
  EXPECT_EQ(async_engine.shard_count(), 1u);

  // Large-set daemons shard once the threshold is within their hint...
  auto laggard_sched = sched::make_scheduler("laggard", g);
  core::Engine sparse_engine(
      g, alg, *laggard_sched, c0, 1,
      EngineOptions{.thread_count = 4, .sparse_activation_threshold = 2});
  EXPECT_EQ(sparse_engine.shard_count(), 4u);

  // ...but stay serial (and spawn no workers) when the hint can't reach it
  // (here: n - 1 = 63 < the default 1024 threshold).
  auto laggard_serial = sched::make_scheduler("laggard", g);
  core::Engine sparse_serial(g, alg, *laggard_serial, c0, 1,
                             EngineOptions{.thread_count = 4});
  EXPECT_EQ(sparse_serial.shard_count(), 1u);

  // Auto (0) resolves to hardware concurrency, at least one shard.
  core::Engine auto_engine(g, alg, sync_sched, c0, 1,
                           EngineOptions{.thread_count = 0});
  EXPECT_GE(auto_engine.shard_count(), 1u);

  // run_until drives the sharded kernel to a legitimate configuration (all
  // nodes able with adjacent clocks).
  const auto outcome = sharded.run_until(
      [&](const core::Configuration& c) {
        for (const core::StateId q : c) {
          if (!alg.is_output(q)) return false;
        }
        return unison::au_safety_holds(alg.turns(), g, c);
      },
      5000);
  EXPECT_TRUE(outcome.reached);
}

}  // namespace
}  // namespace ssau
