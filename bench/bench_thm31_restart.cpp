// E7 — Theorem 3.1: the Restart module guarantees that once some node is in
// a Restart state, all nodes exit Restart concurrently within O(D) rounds
// (the proof's constant: 3D).
//
// D sweep over graph families; per D, a battery of adversarial σ
// configurations; reports worst-case concurrent-exit time against 3D and
// audits concurrency (all nodes at σ(2D) then all at q0*).
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "restart/restart.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

namespace {

struct ExitResult {
  bool concurrent = false;
  std::uint64_t time = 0;
};

ExitResult run_one(const graph::Graph& g, const restart::StandaloneRestart& alg,
                   core::Configuration init, std::uint64_t budget) {
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(g, alg, sched, std::move(init), 29);
  const auto exit_state = alg.sigma_id(alg.rules().exit_index());
  for (std::uint64_t t = 0; t < budget; ++t) {
    const core::Configuration pre = engine.config();
    engine.step();
    bool all_at_exit = true;
    for (const auto q : pre) all_at_exit = all_at_exit && q == exit_state;
    if (all_at_exit) {
      bool all_reset = true;
      for (const auto q : engine.config()) {
        all_reset = all_reset && q == alg.initial_state();
      }
      return {all_reset, engine.time()};
    }
  }
  return {false, budget};
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int seeds = cli.get_count<int>("seeds", 6);
  cli.reject_unread();
  util::Rng meta(31);

  bench::header("E7 / Thm 3.1 — Restart concurrent exit vs the 3D bound");

  util::Table table({"D", "graph", "chain 2D+1", "runs", "mean exit (steps)",
                     "max exit", "3D bound", "all concurrent"});
  bool all_ok = true;
  for (const int d : {1, 2, 3, 4, 5, 6, 8}) {
    util::Rng rng = meta.fork();
    for (auto& inst : bench::instances_with_diameter(d, rng)) {
      restart::StandaloneRestart alg(inst.diameter, 3);
      std::vector<double> times;
      bool concurrent = true;
      for (int s = 0; s < seeds; ++s) {
        core::Configuration init(inst.graph.num_nodes());
        // Mixed adversarial σ/host configuration with at least one σ node.
        for (auto& q : init) {
          q = meta.coin()
                  ? alg.sigma_id(static_cast<int>(meta.below(2 * d + 1)))
                  : alg.host_id(static_cast<int>(meta.below(3)));
        }
        init[0] = alg.sigma_id(static_cast<int>(meta.below(2 * d + 1)));
        const auto r =
            run_one(inst.graph, alg, std::move(init), 20ULL * d + 60);
        concurrent = concurrent && r.concurrent;
        times.push_back(static_cast<double>(r.time));
      }
      const auto sum = util::summarize(times);
      all_ok = all_ok && concurrent &&
               sum.max <= static_cast<double>(3 * d + 3);
      table.row()
          .add(d)
          .add(inst.name)
          .add(2 * d + 1)
          .add(static_cast<std::uint64_t>(sum.count))
          .add(sum.mean, 1)
          .add(sum.max, 0)
          .add(3 * d)
          .add(concurrent ? "yes" : "NO");
    }
  }
  table.print(std::cout);
  std::cout << "\nPaper claim (Thm 3.1): all nodes exit Restart concurrently "
               "within t0 + O(D) (proof constant 3D; +O(1) to reach the "
               "first sigma(0) from arbitrary sigma configurations).\n";
  std::cout << (all_ok ? "RESULT: every run exited concurrently within "
                         "3D + 3 steps.\n"
                       : "RESULT: VIOLATION of the 3D-shaped bound!\n");
  return all_ok ? 0 : 1;
}
