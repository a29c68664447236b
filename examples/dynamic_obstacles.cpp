// Dynamic obstacles: the paper's motivating scenario (§1), live.
//
// "Environmental obstacles may disconnect (permanently or temporarily) some
// links in an otherwise fully connected network, thus increasing its diameter
// beyond one, but hopefully not to the extent of exceeding a certain fixed
// upper bound."
//
// One engine runs AlgAU on an (initially) complete broadcast network while a
// ChurnAdversary drives obstacles in and out: at every event some live links
// fail and some failed links heal, always within the diameter bound D the
// algorithm was compiled for. Every event is an in-place
// Engine::apply_topology_delta — the configuration, rng streams, compiled
// kernel, and round bookkeeping carry straight across — and after each event
// we measure how many rounds AU needs to be good again on the new topology.
//
//   $ ./example_dynamic_obstacles [--n=24] [--d-bound=3] [--events=8]
//                                 [--fail-p=0.15] [--heal-p=0.35] [--seed=42]
#include <iomanip>
#include <iostream>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_monitor.hpp"
#include "util/cli.hpp"

using namespace ssau;

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = cli.get_count<core::NodeId>("n", 24);
  const int d_bound = cli.get_count<int>("d-bound", 3);
  const int events = cli.get_count<int>("events", 8);
  const double fail_p = cli.get_double("fail-p", 0.15);
  const double heal_p = cli.get_double("heal-p", 0.35);
  const auto seed = cli.get_count<std::uint64_t>("seed", 42);
  cli.reject_unread();

  // The fully connected network the paper starts from...
  graph::Graph g = graph::complete(n);
  const unison::AlgAu alg(d_bound);
  std::cout << "network: complete(" << n << "), |E| = " << g.num_edges()
            << "; AlgAU with diameter bound D = " << d_bound
            << " (|Q| = " << alg.state_count() << ")\n";

  // ...a hostile start, an asynchronous daemon, and the obstacle process.
  util::Rng rng(seed);
  auto scheduler = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *scheduler,
                      unison::au_adversarial_configuration("random", alg, g,
                                                           rng),
                      seed);
  core::ChurnAdversary obstacles(
      g, {.fail_p = fail_p,
          .heal_p = heal_p,
          .max_diameter = static_cast<unsigned>(d_bound)});

  const auto k = static_cast<std::uint64_t>(alg.turns().k());
  const std::uint64_t budget = 60 * k * k * k;
  if (!unison::run_to_good(engine, alg, budget).reached) {
    std::cout << "initial stabilization did not finish in budget\n";
    return 1;
  }
  std::cout << "stabilized on the intact network after "
            << engine.rounds_completed() << " rounds\n\n";
  std::cout << std::left << std::setw(7) << "event" << std::right
            << std::setw(8) << "failed" << std::setw(8) << "healed"
            << std::setw(8) << "|E|" << std::setw(7) << "diam" << std::setw(16)
            << "recovery rounds" << "\n";

  for (int e = 1; e <= events; ++e) {
    // One obstacle event, applied in place (O(delta), no engine rebuild).
    const graph::TopologyDelta applied =
        engine.apply_topology_delta(obstacles.next_event(rng));

    const std::uint64_t before = engine.rounds_completed();
    const auto outcome = unison::run_to_good(engine, alg, budget);
    if (!outcome.reached) {
      std::cout << "event " << e << ": did not re-stabilize (unexpected!)\n";
      return 1;
    }
    std::cout << std::left << std::setw(7) << e << std::right << std::setw(8)
              << applied.remove.size() << std::setw(8) << applied.add.size()
              << std::setw(8) << g.num_edges() << std::setw(7)
              << graph::diameter(g) << std::setw(16)
              << engine.rounds_completed() - before << "\n";
  }

  const auto report = unison::verify_post_stabilization(engine, alg, 20);
  std::cout << "\nafter " << events << " obstacle events ("
            << obstacles.failed_edges() << " links currently blocked): safety="
            << (report.safety_ok ? "ok" : "VIOLATED")
            << " liveness=" << (report.liveness_ok ? "ok" : "VIOLATED")
            << "\n";
  return report.safety_ok && report.liveness_ok ? 0 : 1;
}
