// Quickstart: the smallest end-to-end tour of the library.
//
//   1. Build a graph (a ring of 8 cells).
//   2. Instantiate AlgAU for its diameter bound.
//   3. Let the adversary pick a hostile initial configuration and an
//      asynchronous activation schedule.
//   4. Run until the graph is good (= AU has stabilized), then watch the
//      clocks tick in unison.
//
//   $ ./quickstart [--n=8] [--scheduler=uniform-single] [--seed=1]
#include <iostream>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_monitor.hpp"
#include "util/cli.hpp"

using namespace ssau;

namespace {

void print_clocks(const unison::AlgAu& alg, const core::Engine& engine) {
  const auto& ts = alg.turns();
  for (core::NodeId v = 0; v < engine.graph().num_nodes(); ++v) {
    const auto q = engine.state_of(v);
    std::cout << (ts.is_faulty(q) ? "*" : "") << alg.output(q) << " ";
  }
  std::cout << "\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = cli.get_count<core::NodeId>("n", 8);
  const std::string sched_name = cli.get("scheduler", "uniform-single");
  const auto seed = cli.get_count<std::uint64_t>("seed", 1);
  cli.reject_unread();

  // 1. The network: a cycle of n cells.
  const graph::Graph g = graph::cycle(n);
  const int diam = static_cast<int>(graph::diameter(g));
  std::cout << "graph: cycle(" << n << "), diameter " << diam << "\n";

  // 2. The algorithm: AlgAU with diameter bound D = diam.
  const unison::AlgAu alg(diam);
  std::cout << "AlgAU: k = " << alg.turns().k() << ", |Q| = "
            << alg.state_count() << " states (= 12D+6)\n";

  // 3. Adversarial start: a maximal clock tear, asynchronous daemon.
  util::Rng rng(seed);
  auto scheduler = sched::make_scheduler(sched_name, g);
  core::Engine engine(g, alg, *scheduler,
                      unison::au_config_tear(alg, n), seed);
  std::cout << "scheduler: " << scheduler->name()
            << ", initial configuration: clock tear\n\nclocks at t=0:  ";
  print_clocks(alg, engine);

  // 4. Run to stabilization (the graph becomes good).
  const auto k = static_cast<std::uint64_t>(alg.turns().k());
  const auto outcome = unison::run_to_good(engine, alg, 60 * k * k * k);
  if (!outcome.reached) {
    std::cout << "did not stabilize within budget (unexpected!)\n";
    return 1;
  }
  std::cout << "stabilized after " << outcome.rounds << " rounds ("
            << outcome.time << " activations steps)\nclocks now:     ";
  print_clocks(alg, engine);

  // Watch unison in action: every node ticks, neighbors stay adjacent.
  std::cout << "\nticking for 5 more rounds:\n";
  for (int i = 0; i < 5; ++i) {
    engine.run_rounds(1);
    std::cout << "round +" << i + 1 << ":       ";
    print_clocks(alg, engine);
  }

  const auto report = unison::verify_post_stabilization(engine, alg, 20);
  std::cout << "\npost-stabilization check: safety="
            << (report.safety_ok ? "ok" : "VIOLATED")
            << " liveness=" << (report.liveness_ok ? "ok" : "VIOLATED")
            << " (min ticks " << report.min_ticks << " in "
            << report.rounds_observed << " rounds, D=" << diam << ")\n";
  return 0;
}
