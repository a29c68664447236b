// E13 (extension, beyond the paper's artifacts) — fault-tolerance profile of
// the three algorithms under repeated transient-fault bursts.
//
// The paper's title promises "fault tolerant biological networks"; this
// bench quantifies it: starting from a stabilized system, scramble f random
// nodes, measure rounds-to-recovery, repeat. Reported per algorithm and
// burst size: recovery-round statistics and campaign availability. Small,
// localized faults should heal fast (locality of AlgAU's gap-closing;
// detection+Restart for LE/MIS), and recovery must never fail.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "core/faults.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

using namespace ssau;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto bursts = cli.get_count<std::size_t>("bursts", 8);
  cli.reject_unread();

  bench::header("E13 (extension) — recovery from transient fault bursts");

  const graph::Graph g = graph::grid(3, 4);
  const int diam = static_cast<int>(graph::diameter(g));
  const core::NodeId n = g.num_nodes();
  std::cout << "instance: grid(3,4), n = " << n << ", diameter " << diam
            << "; " << bursts << " bursts per campaign\n\n";

  util::Table table({"algorithm", "scheduler", "burst size", "recovered",
                     "mean recovery (rounds)", "p95", "max", "settle avail."});

  for (const std::size_t burst_size : {std::size_t{1}, std::size_t{3},
                                       std::size_t{6}}) {
    // --- AlgAU under an asynchronous daemon ---------------------------------
    {
      const unison::AlgAu alg(diam);
      util::Rng rng(100 + burst_size);
      auto sched = sched::make_scheduler("uniform-single", g);
      core::Engine engine(
          g, alg, *sched,
          unison::au_adversarial_configuration("random", alg, g, rng), 41);
      core::FaultCampaignOptions opts;
      opts.bursts = bursts;
      opts.nodes_per_burst = burst_size;
      const auto res = core::run_fault_campaign(
          engine,
          [&](const core::Configuration& c) {
            return unison::graph_good(alg.turns(), g, c);
          },
          opts, rng);
      const auto s = res.recovery_summary();
      table.row()
          .add("AlgAU (unison)")
          .add("uniform-single")
          .add(static_cast<std::uint64_t>(burst_size))
          .add(std::to_string(res.bursts_recovered) + "/" +
               std::to_string(res.bursts_injected))
          .add(s.mean, 1)
          .add(s.p95, 1)
          .add(s.max, 0)
          .add(res.settle_availability, 3);
    }
    // --- AlgLE (synchronous) --------------------------------------------------
    {
      const le::AlgLe alg({.diameter_bound = diam});
      util::Rng rng(200 + burst_size);
      sched::SynchronousScheduler sched(n);
      core::Engine engine(g, alg, sched,
                          core::uniform_configuration(n, alg.initial_state()),
                          42);
      core::FaultCampaignOptions opts;
      opts.bursts = bursts;
      opts.nodes_per_burst = burst_size;
      const auto res = core::run_fault_campaign(
          engine,
          [&](const core::Configuration& c) {
            return le::le_legitimate(alg, g, c);
          },
          opts, rng);
      const auto s = res.recovery_summary();
      table.row()
          .add("AlgLE (leader election)")
          .add("synchronous")
          .add(static_cast<std::uint64_t>(burst_size))
          .add(std::to_string(res.bursts_recovered) + "/" +
               std::to_string(res.bursts_injected))
          .add(s.mean, 1)
          .add(s.p95, 1)
          .add(s.max, 0)
          .add(res.settle_availability, 3);
    }
    // --- AlgMIS (synchronous) ---------------------------------------------------
    {
      const mis::AlgMis alg({.diameter_bound = diam});
      util::Rng rng(300 + burst_size);
      sched::SynchronousScheduler sched(n);
      core::Engine engine(g, alg, sched,
                          core::uniform_configuration(n, alg.initial_state()),
                          43);
      core::FaultCampaignOptions opts;
      opts.bursts = bursts;
      opts.nodes_per_burst = burst_size;
      const auto res = core::run_fault_campaign(
          engine,
          [&](const core::Configuration& c) {
            return mis::mis_legitimate(alg, g, c);
          },
          opts, rng);
      const auto s = res.recovery_summary();
      table.row()
          .add("AlgMIS (indep. set)")
          .add("synchronous")
          .add(static_cast<std::uint64_t>(burst_size))
          .add(std::to_string(res.bursts_recovered) + "/" +
               std::to_string(res.bursts_injected))
          .add(s.mean, 1)
          .add(s.p95, 1)
          .add(s.max, 0)
          .add(res.settle_availability, 3);
    }
  }
  table.print(std::cout);

  std::cout << "\nReading: every burst recovers; AlgAU heals locally "
               "(recovery grows mildly with burst size), while LE/MIS may "
               "pay a full detect-restart-recompute cycle — the price of "
               "global tasks.\n";
  return 0;
}
