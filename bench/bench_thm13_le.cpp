// E5 — Theorem 1.3: synchronous self-stabilizing LE with state space O(D)
// stabilizing in O(D log n) rounds in expectation and whp.
//
// Two sweeps:
//   (1) n sweep on complete graphs (D = 1): rounds should grow ~ log n.
//   (2) D sweep on cycles (n = 2D): rounds should grow ~ D log n.
// Both measured from uniform-random adversarial configurations and from the
// crafted fault plants (0 leaders / 2 leaders / all leaders).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "le/alg_le.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

namespace {

double measure(const graph::Graph& g, const le::AlgLe& alg,
               const std::string& adversary, util::Rng& rng,
               std::uint64_t budget) {
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(
      g, alg, sched,
      le::le_adversarial_configuration(adversary, alg, g, rng), rng());
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) {
        return le::le_legitimate(alg, g, c);
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
  util::Rng meta(511);

  bench::header("E5 / Thm 1.3 — LE stabilization (synchronous rounds)");

  // --- (1) n sweep on cliques (D = 1) ---------------------------------------
  std::cout << "(1) complete graphs, D = 1 — expected shape O(log n)\n\n";
  util::Table t1({"n", "adversary", "runs", "mean rounds", "p95", "max",
                  "log2(n)"});
  std::vector<double> ns, means;
  for (const core::NodeId n : {4u, 8u, 16u, 32u, 64u}) {
    const graph::Graph g = graph::complete(n);
    const le::AlgLe alg({.diameter_bound = 1});
    std::vector<double> all;
    for (const auto& adv :
         {std::string("random"), std::string("zero-leaders"),
          std::string("two-leaders"), std::string("all-leaders")}) {
      std::vector<double> rounds;
      for (int s = 0; s < seeds; ++s) {
        util::Rng rng = meta.fork();
        const double r = measure(g, alg, adv, rng, 200000);
        if (r >= 0) rounds.push_back(r);
      }
      const auto sum = util::summarize(rounds);
      t1.row()
          .add(std::uint64_t{n})
          .add(adv)
          .add(static_cast<std::uint64_t>(sum.count))
          .add(sum.mean, 1)
          .add(sum.p95, 1)
          .add(sum.max, 0)
          .add(std::log2(static_cast<double>(n)), 2);
      all.insert(all.end(), rounds.begin(), rounds.end());
    }
    ns.push_back(static_cast<double>(n));
    means.push_back(util::summarize(all).mean);
  }
  t1.print(std::cout);
  if (csv) t1.print_csv(std::cout);
  const auto fit1 = util::log_fit(ns, means);
  std::cout << "\nlog fit: mean rounds ~ " << fit1.intercept << " + "
            << fit1.slope << " * log2(n)   (O(log n) shape => positive "
               "slope, sublinear growth)\n";
  const auto pfit1 = util::power_fit(ns, means);
  std::cout << "power fit exponent vs n: " << pfit1.exponent
            << " (log-like growth => well below 1)\n";

  // --- (2) D sweep on cycles -------------------------------------------------
  std::cout << "\n(2) cycles with n = 2D — expected shape O(D log n)\n\n";
  util::Table t2({"D", "n", "runs", "mean rounds", "p95", "max",
                  "D*log2(n)"});
  std::vector<double> dsweep, dmeans;
  for (const int d : {2, 3, 4, 5, 6}) {
    const graph::Graph g = graph::cycle(2 * d);
    const le::AlgLe alg({.diameter_bound = d});
    std::vector<double> rounds;
    for (int s = 0; s < 2 * seeds; ++s) {
      util::Rng rng = meta.fork();
      const double r = measure(g, alg, "random", rng, 400000);
      if (r >= 0) rounds.push_back(r);
    }
    const auto sum = util::summarize(rounds);
    t2.row()
        .add(d)
        .add(std::uint64_t{2} * d)
        .add(static_cast<std::uint64_t>(sum.count))
        .add(sum.mean, 1)
        .add(sum.p95, 1)
        .add(sum.max, 0)
        .add(d * std::log2(2.0 * d), 1);
    dsweep.push_back(d);
    dmeans.push_back(sum.mean);
  }
  t2.print(std::cout);
  if (csv) t2.print_csv(std::cout);
  const auto fit2 = util::power_fit(dsweep, dmeans);
  std::cout << "\npower fit vs D: exponent " << fit2.exponent
            << " (O(D log n) with n = 2D => slightly above 1)\n";
  std::cout << "\nPaper claim (Thm 1.3): O(D) states, O(D log n) rounds in "
               "expectation and whp.\n";
  return 0;
}
