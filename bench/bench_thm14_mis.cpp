// E6 — Theorem 1.4: synchronous self-stabilizing MIS with state space O(D)
// stabilizing in O((D + log n) log n) rounds in expectation and whp.
//
// Sweeps:
//   (1) n sweep on complete graphs (D = 1): expected shape O(log^2 n).
//   (2) n sweep on cycles (D = n/2 dominates): expected shape O(D log n).
//   (3) fault-plant battery on a fixed grid: recovery from planted
//       adjacent-IN / orphan-OUT / mid-restart configurations.
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

namespace {

double measure(const graph::Graph& g, const mis::AlgMis& alg,
               const std::string& adversary, util::Rng& rng,
               std::uint64_t budget) {
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(
      g, alg, sched,
      mis::mis_adversarial_configuration(adversary, alg, g, rng), rng());
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) {
        return mis::mis_legitimate(alg, g, c);
      },
      budget);
  return outcome.reached ? static_cast<double>(outcome.rounds) : -1.0;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int seeds = cli.get_count<int>("seeds", 8);
  const bool csv = cli.get_bool("csv", false);
  cli.reject_unread();
  util::Rng meta(1402);

  bench::header("E6 / Thm 1.4 — MIS stabilization (synchronous rounds)");

  std::cout << "(1) complete graphs, D = 1 — expected shape O(log^2 n)\n\n";
  util::Table t1({"n", "runs", "mean rounds", "p95", "max", "log2(n)^2"});
  std::vector<double> ns, means;
  for (const core::NodeId n : {4u, 8u, 16u, 32u, 64u}) {
    const graph::Graph g = graph::complete(n);
    const mis::AlgMis alg({.diameter_bound = 1});
    std::vector<double> rounds;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      const double r = measure(g, alg, "random", rng, 300000);
      if (r >= 0) rounds.push_back(r);
    }
    const auto sum = util::summarize(rounds);
    const double l2 = std::log2(static_cast<double>(n));
    t1.row()
        .add(std::uint64_t{n})
        .add(static_cast<std::uint64_t>(sum.count))
        .add(sum.mean, 1)
        .add(sum.p95, 1)
        .add(sum.max, 0)
        .add(l2 * l2, 1);
    ns.push_back(static_cast<double>(n));
    means.push_back(sum.mean);
  }
  t1.print(std::cout);
  if (csv) t1.print_csv(std::cout);
  const auto pfit = util::power_fit(ns, means);
  std::cout << "\npower fit vs n: exponent " << pfit.exponent
            << " (polylog growth => well below 1)\n";

  std::cout << "\n(2) cycles, D = n/2 — expected shape O(D log n)\n\n";
  util::Table t2({"n", "D", "runs", "mean rounds", "p95", "max",
                  "(D+log2 n)*log2 n"});
  std::vector<double> dsweep, dmeans;
  for (const int n : {6, 10, 14, 18}) {
    const graph::Graph g = graph::cycle(n);
    const int d = n / 2;
    const mis::AlgMis alg({.diameter_bound = d});
    std::vector<double> rounds;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      const double r = measure(g, alg, "random", rng, 500000);
      if (r >= 0) rounds.push_back(r);
    }
    const auto sum = util::summarize(rounds);
    const double l2 = std::log2(static_cast<double>(n));
    t2.row()
        .add(n)
        .add(d)
        .add(static_cast<std::uint64_t>(sum.count))
        .add(sum.mean, 1)
        .add(sum.p95, 1)
        .add(sum.max, 0)
        .add((d + l2) * l2, 1);
    dsweep.push_back(d);
    dmeans.push_back(sum.mean);
  }
  t2.print(std::cout);
  if (csv) t2.print_csv(std::cout);
  const auto dfit = util::power_fit(dsweep, dmeans);
  std::cout << "\npower fit vs D: exponent " << dfit.exponent
            << " (O(D log n) => close to 1)\n";

  std::cout << "\n(3) fault plants on grid(3,4) — detection + restart + "
               "recompute\n\n";
  util::Table t3({"adversary", "runs", "mean rounds", "p95", "max"});
  {
    const graph::Graph g = graph::grid(3, 4);
    const int d = static_cast<int>(graph::diameter(g));
    const mis::AlgMis alg({.diameter_bound = d});
    for (const auto& adv : mis::mis_adversary_kinds()) {
      std::vector<double> rounds;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng = meta.fork();
        const double r = measure(g, alg, adv, rng, 300000);
        if (r >= 0) rounds.push_back(r);
      }
      const auto sum = util::summarize(rounds);
      t3.row()
          .add(adv)
          .add(static_cast<std::uint64_t>(sum.count))
          .add(sum.mean, 1)
          .add(sum.p95, 1)
          .add(sum.max, 0);
    }
  }
  t3.print(std::cout);
  if (csv) t3.print_csv(std::cout);

  std::cout << "\nPaper claim (Thm 1.4): O(D) states, O((D + log n) log n) "
               "rounds in expectation and whp.\n";
  return 0;
}
