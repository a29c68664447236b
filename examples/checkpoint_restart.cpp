// Checkpoint/restart: surviving a process crash mid-campaign.
//
// The paper's algorithms recover from arbitrary transient faults; this
// example makes the *simulation* equally robust. A fault campaign with
// FaultCampaignOptions::checkpoint_every periodically persists the full
// engine state (core/snapshot.hpp) with crash-consistent write-to-temp +
// rename semantics. We then simulate a crash — every in-process object is
// discarded — and restart from the newest valid checkpoint: the restored
// engine carries the exact configuration, round bookkeeping, rng streams,
// scheduler phase, and (churned) topology, so it recovers from fresh faults
// just like the original would have, and two restores of the same
// checkpoint walk bit-identical trajectories.
#include <cstdio>
#include <cstdint>
#include <memory>
#include <string>

#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "core/faults.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "util/rng.hpp"

using namespace ssau;

#define CHECK(cond)                                                    \
  do {                                                                 \
    if (!(cond)) {                                                     \
      std::fprintf(stderr, "CHECK failed at line %d: %s\n", __LINE__,  \
                   #cond);                                             \
      return 1;                                                        \
    }                                                                  \
  } while (0)

int main() {
  const std::string checkpoint_path = "checkpoint_restart.snap";

  util::Rng seed_rng(7);
  graph::Graph g = graph::random_connected(40, 0.12, seed_rng);
  const int diameter_bound = static_cast<int>(graph::diameter(g)) + 2;
  const unison::AlgAu alg(diameter_bound);

  // --- phase 1: a churning fault campaign with periodic checkpoints --------
  std::size_t checkpoints = 0;
  {
    auto sched = sched::make_scheduler("uniform-single", g);
    util::Rng rng(11);
    core::Engine engine(
        g, alg, *sched,
        unison::au_adversarial_configuration("random", alg, g, rng), 2026);

    core::FaultCampaignOptions opts;
    opts.bursts = 6;
    opts.nodes_per_burst = 4;
    opts.settle_rounds = 8;
    opts.link_fail_p = 0.05;
    opts.link_heal_p = 0.25;
    opts.churn.keep_connected = true;
    opts.churn.max_diameter = static_cast<std::size_t>(diameter_bound);
    opts.checkpoint_every = 2;
    opts.checkpoint_path = checkpoint_path;

    const auto res = core::run_fault_campaign(
        engine,
        [&](const core::Configuration& c) {
          return unison::graph_good(alg.turns(), engine.graph(), c);
        },
        opts, rng);
    checkpoints = res.checkpoints_written;
    std::printf("campaign: %zu/%zu bursts recovered, %zu links failed, "
                "%zu healed, %zu checkpoints written\n",
                res.bursts_recovered, res.bursts_injected, res.links_failed,
                res.links_healed, res.checkpoints_written);
    CHECK(res.bursts_recovered == res.bursts_injected);
    CHECK(res.checkpoints_written >= 2);
  }
  // --- simulated crash: engine, scheduler, campaign state all gone ---------
  std::printf("crash: process state discarded; restarting from '%s'\n",
              checkpoint_path.c_str());

  // --- phase 2: restart from the newest valid checkpoint -------------------
  const auto bytes = core::snapshot::read_checkpoint(checkpoint_path);
  const auto info = core::snapshot::inspect(bytes);
  std::printf("checkpoint: t=%llu, %llu rounds, n=%u, m=%llu (topology as "
              "churned, not as built)\n",
              static_cast<unsigned long long>(info.time),
              static_cast<unsigned long long>(info.rounds),
              info.num_nodes,
              static_cast<unsigned long long>(info.num_edges));
  CHECK(info.time > 0);
  CHECK(checkpoints >= 2);

  graph::Graph restored_graph = core::snapshot::restore_graph(bytes);
  auto restored_sched = sched::make_scheduler("uniform-single", restored_graph);
  auto engine = core::snapshot::restore(bytes, restored_graph, alg,
                                        *restored_sched);
  CHECK(engine->time() == info.time);

  // Bit-identical resume: a second restore of the same checkpoint must walk
  // the exact same trajectory.
  {
    graph::Graph twin_graph = core::snapshot::restore_graph(bytes);
    auto twin_sched = sched::make_scheduler("uniform-single", twin_graph);
    auto twin = core::snapshot::restore(bytes, twin_graph, alg, *twin_sched);
    for (int i = 0; i < 2000; ++i) {
      engine->step();
      twin->step();
    }
    CHECK(core::engine_state_hash(*engine) == core::engine_state_hash(*twin));
    std::printf("determinism: two restores agree after 2000 steps "
                "(hash %016llx)\n",
                static_cast<unsigned long long>(
                    core::engine_state_hash(*engine)));
  }

  // Recovery continues where the campaign left off: hit the restored engine
  // with a fresh burst of transient faults and watch it re-stabilize.
  // RunOutcome::rounds and the run_until cap are absolute round indices
  // (the restored engine carries the campaign's): count the recovery from
  // the stamp taken at the fault burst.
  const std::uint64_t fault_round = engine->round_index_now();
  util::Rng fault_rng(23);
  for (int i = 0; i < 5; ++i) {
    engine->inject_state(
        static_cast<core::NodeId>(fault_rng.below(restored_graph.num_nodes())),
        fault_rng.below(alg.state_count()));
  }
  const auto outcome = engine->run_until(
      [&](const core::Configuration& c) {
        return unison::graph_good(alg.turns(), engine->graph(), c);
      },
      fault_round + 20000);
  CHECK(outcome.reached);
  std::printf("recovery: re-stabilized %llu rounds after restart faults\n",
              static_cast<unsigned long long>(outcome.rounds - fault_round));

  std::remove(checkpoint_path.c_str());
  std::remove((checkpoint_path + ".prev").c_str());
  std::printf("checkpoint_restart: OK\n");
  return 0;
}
