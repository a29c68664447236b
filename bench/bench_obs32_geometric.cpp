// E9 — Observation 3.2: for Y = max of n i.i.d. Geom(p) variables,
// (1) E[Y] = O(log n) (and Y = O(log n) whp), and
// (2) Y >= c log n whp for any c < ln(2)/(2p).
//
// This observation powers RandPhase (AlgMIS) and RandCount (AlgLE): the
// random phase/stage length is ~ max-of-geometrics, long enough for the
// competition whp yet short in expectation. Reported: empirical E[Y] vs
// log2(n), and the empirical quantiles of Y / log2(n).
#include <cmath>
#include <iostream>

#include "bench_common.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int trials = cli.get_count<int>("trials", 400);
  cli.reject_unread();
  util::Rng rng(32);

  bench::header("E9 / Obs 3.2 — max of n Geom(p) is Theta(log n)");

  for (const double p : {0.5, 0.25}) {
    std::cout << "p = " << p
              << "  (lower-bound constant ln(2)/(2p) = " << std::log(2.0) / (2 * p)
              << ")\n\n";
    util::Table table({"n", "E[Y] (emp)", "p95(Y)", "log2(n)",
                       "E[Y]/log2(n)", "P(Y >= 0.5*log2 n)",
                       "P(Y >= c0*log2 n), c0=ln2/(2p)"});
    std::vector<double> ns, eys;
    for (const std::uint64_t n : {16ULL, 64ULL, 256ULL, 1024ULL, 4096ULL,
                                  16384ULL}) {
      std::vector<double> ys;
      int hits_half = 0;
      int hits_c0 = 0;
      const double l2 = std::log2(static_cast<double>(n));
      const double c0 = std::log(2.0) / (2 * p);
      for (int t = 0; t < trials; ++t) {
        std::uint64_t y = 0;
        for (std::uint64_t i = 0; i < n; ++i) {
          y = std::max(y, rng.geometric(p));
        }
        ys.push_back(static_cast<double>(y));
        if (static_cast<double>(y) >= 0.5 * l2) ++hits_half;
        if (static_cast<double>(y) >= c0 * l2) ++hits_c0;
      }
      const auto s = util::summarize(ys);
      table.row()
          .add(n)
          .add(s.mean, 2)
          .add(s.p95, 1)
          .add(l2, 2)
          .add(s.mean / l2, 3)
          .add(static_cast<double>(hits_half) / trials, 3)
          .add(static_cast<double>(hits_c0) / trials, 3);
      ns.push_back(static_cast<double>(n));
      eys.push_back(s.mean);
    }
    table.print(std::cout);
    const auto fit = util::log_fit(ns, eys);
    std::cout << "\nlog fit: E[Y] ~ " << fit.intercept << " + " << fit.slope
              << " * log2(n)  — upper-bound shape O(log n): the ratio "
                 "column stays bounded.\n\n";
  }
  std::cout << "Paper claim (Obs 3.2): E[Y] = O(log n) and "
               "P(Y >= c log n) -> 1 for c < ln(2)/(2p).\n";
  return 0;
}
