// Thread budgets and the sharded synchronous kernel.
//
// Three layers of pinning:
//   * the thread-budget contract: recommended_threads divides the hardware
//     budget across sessions and never returns 0 (the pool's own tests,
//     including resolve_thread_count, live in test_parallel_engine.cpp);
//   * the sharded synchronous kernel — AU + MIS + LE under every scheduler
//     at threads {1, 2, 4, 8} must stay bit-identical to the serial engine,
//     stepped one at a time and driven through run_rounds(k) (the
//     sharded-synchronous differential);
//   * the sharded kernel under torture — inject_state, inject_configuration,
//     topology churn, and save/load fired between sharded steps must each
//     observe and mutate exactly the state the serial reference holds, and
//     a listener attached mid-run must see the serial transition stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/parallel_engine.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "util/binary_io.hpp"
#include "util/rng.hpp"

namespace ssau {
namespace {

using core::ParallelEngine;

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names = sched::async_scheduler_names();
  names.insert(names.begin(), "synchronous");
  return names;
}

// --- thread-count resolution contracts ---------------------------------------

TEST(TaskRuntime, RecommendedThreadsDividesHardwareAcrossSessions) {
  const unsigned hw = ParallelEngine::resolve_thread_count(0);
  EXPECT_EQ(ParallelEngine::recommended_threads(1), hw);
  EXPECT_EQ(ParallelEngine::recommended_threads(0),
            ParallelEngine::recommended_threads(1))
      << "0 sessions must clamp to 1, not divide by zero";
  // At or beyond the core count every session gets exactly 1 thread — the
  // pooled-service no-oversubscription guarantee.
  EXPECT_EQ(ParallelEngine::recommended_threads(hw), 1u);
  EXPECT_EQ(ParallelEngine::recommended_threads(hw + 7), 1u);
  EXPECT_EQ(ParallelEngine::recommended_threads(1u << 20), 1u);
  for (const unsigned sessions : {1u, 2u, 3u, 5u, 8u}) {
    EXPECT_LE(ParallelEngine::recommended_threads(sessions) * sessions,
              std::max(hw, sessions));
    EXPECT_GE(ParallelEngine::recommended_threads(sessions), 1u);
  }
}

// --- sharded synchronous kernel: differential --------------------------------

core::EngineOptions threaded(unsigned threads) {
  return core::EngineOptions{.thread_count = threads};
}

/// Serial reference vs an engine at `threads`, lockstep per-step comparison,
/// then run_rounds(`rounds`) on both: the sharded engine must advance
/// rounds by exactly `rounds` (and time too, under the synchronous daemon,
/// where every step closes one round) and land on the serial state.
void expect_sharded_matches_serial(const graph::Graph& g,
                                   const core::Automaton& alg,
                                   const core::Configuration& c0,
                                   const std::string& sched_name,
                                   std::uint64_t seed, unsigned threads,
                                   int lockstep_steps, std::uint64_t rounds) {
  auto sched_a = sched::make_scheduler(sched_name, g);
  auto sched_b = sched::make_scheduler(sched_name, g);
  core::Engine serial(g, alg, *sched_a, c0, seed, threaded(1));
  core::Engine sharded(g, alg, *sched_b, c0, seed, threaded(threads));
  for (int s = 0; s < lockstep_steps; ++s) {
    serial.step();
    sharded.step();
    ASSERT_EQ(sharded.config(), serial.config())
        << sched_name << " x" << threads << " diverged at step " << s;
    ASSERT_EQ(sharded.time(), serial.time());
    ASSERT_EQ(sharded.rounds_completed(), serial.rounds_completed());
    ASSERT_EQ(sharded.round_index_now(), serial.round_index_now());
  }
  const core::Time time_before = sharded.time();
  const std::uint64_t rounds_before = sharded.rounds_completed();
  serial.run_rounds(rounds);
  sharded.run_rounds(rounds);
  ASSERT_EQ(sharded.rounds_completed(), rounds_before + rounds)
      << sched_name << " x" << threads;
  if (sched_name == "synchronous") {
    ASSERT_EQ(sharded.time(), time_before + rounds) << "x" << threads;
  }
  ASSERT_EQ(sharded.config(), serial.config())
      << sched_name << " x" << threads << " diverged in run_rounds";
  ASSERT_EQ(sharded.time(), serial.time());
  ASSERT_EQ(sharded.rounds_completed(), serial.rounds_completed());
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(sharded.activation_count(v), serial.activation_count(v));
  }
}

TEST(ShardedSyncDifferential, AlgAuEverySchedulerEveryThreadCount) {
  const unison::AlgAu alg(2);
  util::Rng rng(23);
  const graph::Graph g = graph::random_bounded_diameter(40, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_sharded_matches_serial(g, alg, c0, sched_name, 211, threads, 60,
                                    20);
    }
  }
}

TEST(ShardedSyncDifferential, AlgMisEverySchedulerEveryThreadCount) {
  // Randomized: additionally pins the per-node rng draw sequences across
  // shard boundaries (any draw reordering diverges within a few steps).
  const mis::AlgMis alg({.diameter_bound = 2});
  util::Rng rng(29);
  const graph::Graph g = graph::random_bounded_diameter(36, 2, rng);
  const core::Configuration c0 =
      mis::mis_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_sharded_matches_serial(g, alg, c0, sched_name, 223, threads, 60,
                                    20);
    }
  }
}

TEST(ShardedSyncDifferential, AlgLeEverySchedulerEveryThreadCount) {
  const le::AlgLe alg({.diameter_bound = 2});
  util::Rng rng(31);
  const graph::Graph g = graph::random_bounded_diameter(32, 2, rng);
  const core::Configuration c0 =
      le::le_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_sharded_matches_serial(g, alg, c0, sched_name, 227, threads, 60,
                                    20);
    }
  }
}

TEST(ShardedSyncDifferential, SignalFieldPatchStaysBitIdentical) {
  // Forced-on field under the synchronous kernel: the sharded engine
  // patches it from the per-shard transition logs after each step's
  // barrier; the field's counters must end exactly where the serial
  // engine's patches put them.
  const unison::AlgAu alg(2);
  util::Rng rng(37);
  const graph::Graph g = graph::random_bounded_diameter(40, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  auto sched_a = sched::make_scheduler("synchronous", g);
  auto sched_b = sched::make_scheduler("synchronous", g);
  core::EngineOptions serial_opts = threaded(1);
  serial_opts.signal_field = core::SignalFieldMode::kOn;
  core::EngineOptions par_opts = threaded(4);
  par_opts.signal_field = core::SignalFieldMode::kOn;
  core::Engine serial(g, alg, *sched_a, c0, 241, serial_opts);
  core::Engine sharded(g, alg, *sched_b, c0, 241, par_opts);
  for (int s = 0; s < 200; ++s) {
    serial.step();
    sharded.step();
  }
  ASSERT_EQ(sharded.config(), serial.config());
  ASSERT_TRUE(sharded.signal_field_active());
  const core::SignalField* fa = sharded.signal_field();
  const core::SignalField* fb = serial.signal_field();
  ASSERT_NE(fa, nullptr);
  ASSERT_NE(fb, nullptr);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (core::StateId q = 0; q < alg.state_count(); ++q) {
      ASSERT_EQ(fa->count_of(v, q), fb->count_of(v, q))
          << "field diverged at node " << v << " state " << int(q);
    }
  }
}

// --- sharded synchronous kernel: torture ------------------------------------

TEST(ShardedSyncTorture, InjectionsChurnAndSnapshotsBetweenSteps) {
  // Drive a 4-thread engine and a serial reference through the same
  // interleaving of step bursts, targeted faults, configuration overwrites,
  // topology churn (which re-balances the sharded engine's partition), and
  // snapshot round trips — every mutation must see (and produce) exactly
  // the serial state.
  const unison::AlgAu alg(2);
  util::Rng rng(41);
  util::Rng mutation_rng(43);
  graph::Graph g_par = graph::random_bounded_diameter(48, 2, rng);
  graph::Graph g_ser = g_par;
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g_par, rng);
  auto sched_a = sched::make_scheduler("synchronous", g_ser);
  auto sched_b = sched::make_scheduler("synchronous", g_par);
  core::Engine serial(g_ser, alg, *sched_a, c0, 251, threaded(1));
  core::Engine sharded(g_par, alg, *sched_b, c0, 251, threaded(4));

  const auto random_delta = [&](const graph::Graph& g) {
    graph::TopologyDelta delta;
    const auto n = g.num_nodes();
    for (int i = 0; i < 3; ++i) {
      const core::NodeId u = mutation_rng.below(n);
      const core::NodeId v = mutation_rng.below(n);
      if (u == v) continue;
      if (g.has_edge(u, v)) {
        delta.remove.push_back({u, v});
      } else {
        delta.add.push_back({u, v});
      }
    }
    return delta;
  };

  for (int cycle = 0; cycle < 30; ++cycle) {
    const int burst = 1 + static_cast<int>(mutation_rng.below(9));
    for (int s = 0; s < burst; ++s) {
      serial.step();
      sharded.step();
    }
    switch (cycle % 4) {
      case 0: {  // targeted fault
        const core::NodeId v = mutation_rng.below(g_par.num_nodes());
        const core::StateId q =
            static_cast<core::StateId>(mutation_rng.below(alg.state_count()));
        serial.inject_state(v, q);
        sharded.inject_state(v, q);
        break;
      }
      case 1: {  // configuration overwrite
        core::Configuration fresh(g_par.num_nodes());
        for (auto& q : fresh) {
          q = static_cast<core::StateId>(mutation_rng.below(alg.state_count()));
        }
        serial.inject_configuration(fresh);
        sharded.inject_configuration(fresh);
        break;
      }
      case 2: {  // topology churn (the shard partition re-balances)
        const graph::TopologyDelta delta = random_delta(g_par);
        const graph::TopologyDelta applied_s = serial.apply_topology_delta(delta);
        const graph::TopologyDelta applied_p = sharded.apply_topology_delta(delta);
        ASSERT_EQ(applied_s.add, applied_p.add);
        ASSERT_EQ(applied_s.remove, applied_p.remove);
        break;
      }
      case 3: {  // snapshot round trip
        util::BinaryWriter ws;
        sharded.save_state(ws);
        util::BinaryWriter ws_ref;
        serial.save_state(ws_ref);
        ASSERT_EQ(ws.buffer().size(), ws_ref.buffer().size());
        util::BinaryReader rd(ws.buffer());
        sharded.load_state(rd);  // restore into the same engine
        break;
      }
    }
    ASSERT_EQ(sharded.config(), serial.config())
        << "diverged after mutation cycle " << cycle;
    ASSERT_EQ(sharded.time(), serial.time());
    ASSERT_EQ(sharded.rounds_completed(), serial.rounds_completed());
  }
}

TEST(ShardedSyncTorture, ListenerAttachedMidRunStaysExact) {
  // Attaching a listener mid-run turns on the per-shard transition logs and
  // the post-barrier replay; the observed transition stream must match the
  // serial engine's exactly from that point on.
  const unison::AlgAu alg(2);
  util::Rng rng(53);
  const graph::Graph g = graph::random_bounded_diameter(32, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  auto sched_a = sched::make_scheduler("synchronous", g);
  auto sched_b = sched::make_scheduler("synchronous", g);
  core::Engine serial(g, alg, *sched_a, c0, 269, threaded(1));
  core::Engine sharded(g, alg, *sched_b, c0, 269, threaded(4));
  for (int s = 0; s < 37; ++s) {
    serial.step();
    sharded.step();
  }
  struct Obs {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Obs&) const = default;
  };
  std::vector<Obs> seen_serial, seen_sharded;
  std::mutex obs_mu;  // listener runs on the stepping thread; mutex is belt
  serial.set_transition_listener([&](core::NodeId v, core::StateId from,
                                     core::StateId to, const core::Signal&,
                                     core::Time t) {
    const std::lock_guard<std::mutex> lock(obs_mu);
    seen_serial.push_back({v, from, to, t});
  });
  sharded.set_transition_listener([&](core::NodeId v, core::StateId from,
                                      core::StateId to, const core::Signal&,
                                      core::Time t) {
    const std::lock_guard<std::mutex> lock(obs_mu);
    seen_sharded.push_back({v, from, to, t});
  });
  for (int s = 0; s < 80; ++s) {
    serial.step();
    sharded.step();
  }
  EXPECT_EQ(seen_sharded, seen_serial);
  ASSERT_EQ(sharded.config(), serial.config());
}

}  // namespace
}  // namespace ssau
