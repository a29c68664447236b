// Colony leader: self-stabilizing leader election in a bacterial colony,
// composed with the synchronizer for a fully asynchronous run.
//
// A colony is a "damaged clique": dense broadcast connectivity with some
// links knocked out by the environment (the paper's motivating bounded-
// diameter family). Two acts:
//
//   Act 1 — native synchronous AlgLE elects a unique coordinator from an
//           adversarial start; we then assassinate the leader (scramble its
//           state), and DetectLE's identifier flood triggers a Restart and a
//           re-election.
//   Act 2 — the same AlgLE wrapped in the §4 synchronizer runs under an
//           asynchronous daemon (Cor 1.2 end-to-end) and still elects a
//           unique leader.
//
//   $ ./colony_leader [--n=12] [--drop=0.35] [--seed=11]
#include <iostream>

#include "analysis/experiment.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "le/alg_le.hpp"
#include "sched/scheduler.hpp"
#include "sync/synchronizer.hpp"
#include "util/cli.hpp"

using namespace ssau;

namespace {

void show_roles(const le::AlgLe& alg, const core::Engine& engine) {
  std::cout << "  roles: ";
  for (core::NodeId v = 0; v < engine.graph().num_nodes(); ++v) {
    const auto s = alg.decode(engine.state_of(v));
    char ch = '?';
    switch (s.mode) {
      case le::LeState::Mode::kCompute: ch = 'c'; break;
      case le::LeState::Mode::kVerify: ch = s.leader ? 'L' : '-'; break;
      case le::LeState::Mode::kRestart: ch = 'R'; break;
    }
    std::cout << ch;
  }
  std::cout << "   (L leader, - follower, c computing, R restarting)\n";
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = cli.get_count<core::NodeId>("n", 12);
  const double drop = cli.get_double("drop", 0.35);
  const auto seed = cli.get_count<std::uint64_t>("seed", 11);
  cli.reject_unread();

  util::Rng rng(seed);
  const graph::Graph g = graph::damaged_clique(n, drop, rng);
  const int diam = static_cast<int>(graph::diameter(g));
  std::cout << "colony: " << n << " bacteria, " << g.num_edges()
            << " intact links (of " << n * (n - 1) / 2 << "), diameter "
            << diam << "\n\n";

  const le::AlgLe alg({.diameter_bound = diam});

  // ---- Act 1: synchronous election + assassination -------------------------
  std::cout << "Act 1 — synchronous AlgLE (" << alg.state_count()
            << " states per node)\n";
  sched::SynchronousScheduler sched(n);
  core::Engine engine(g, alg, sched,
                      le::le_adversarial_configuration("random", alg, g, rng),
                      seed);
  auto legit = [&](const core::Configuration& c) {
    return le::le_legitimate(alg, g, c);
  };
  auto outcome = engine.run_until(legit, 300000);
  std::cout << "  elected a unique leader after " << outcome.rounds
            << " rounds\n";
  show_roles(alg, engine);

  core::NodeId boss = 0;
  for (core::NodeId v = 0; v < n; ++v) {
    if (alg.output(engine.state_of(v)) == 1) boss = v;
  }
  std::cout << "\n  assassinating leader " << boss
            << " (state scrambled to a non-leader follower)…\n";
  le::LeState impostor;
  impostor.mode = le::LeState::Mode::kVerify;
  impostor.r = alg.decode(engine.state_of(boss)).r;
  impostor.leader = false;
  impostor.slot = 0;
  // RunOutcome::rounds and the run_until cap are absolute round indices:
  // count the recovery from the stamp taken at the fault.
  const std::uint64_t fault_round = engine.round_index_now();
  engine.inject_state(boss, alg.encode(impostor));

  outcome = engine.run_until(legit, fault_round + 300000);
  std::cout << "  re-elected after " << outcome.rounds - fault_round
            << " further rounds\n";
  show_roles(alg, engine);

  // ---- Act 2: asynchronous composition (Cor 1.2) ----------------------------
  std::cout << "\nAct 2 — AlgLE + synchronizer under an asynchronous daemon\n";
  const sync::Synchronizer composed(alg, diam);
  std::cout << "  product state space |Q*| = " << composed.state_count()
            << " (= |Q|^2 x (12D+6))\n";
  auto async_sched = sched::make_scheduler("random-subset", g);
  util::Rng rng2(seed ^ 0xACE);
  core::Engine async_engine(g, composed, *async_sched,
                            core::random_configuration(composed, n, rng2),
                            seed + 1);
  auto one_leader = [&](const core::Engine& e) {
    std::size_t leaders = 0;
    for (core::NodeId v = 0; v < n; ++v) {
      const auto q = e.state_of(v);
      if (!composed.is_output(q)) return false;
      leaders += composed.output(q) == 1 ? 1 : 0;
    }
    return leaders == 1;
  };
  const auto r =
      analysis::measure_output_stabilization(async_engine, one_leader, 40000);
  if (r.ever_stable) {
    std::cout << "  asynchronous election stabilized by round "
              << r.last_bad_round << " (horizon " << r.horizon_rounds
              << ")\n";
    core::NodeId async_boss = 0;
    for (core::NodeId v = 0; v < n; ++v) {
      if (composed.output(async_engine.state_of(v)) == 1) async_boss = v;
    }
    std::cout << "  asynchronous leader: node " << async_boss << "\n";
  } else {
    std::cout << "  did not stabilize within the horizon (unexpected)\n";
    return 1;
  }
  return 0;
}
