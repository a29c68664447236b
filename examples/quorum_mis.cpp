// Quorum MIS: sensory-organ-precursor (SOP) style selection on an
// epithelium-like cell sheet.
//
// In fly neurogenesis, a field of equivalent cells selects a sparse set of
// sensory bristle precursors: selected cells inhibit their neighbors —
// exactly a maximal independent set, computed by anonymous cells with no
// identifiers and broadcast-only signaling (Afek et al.'s famous biological
// MIS). This demo runs the paper's self-stabilizing AlgMIS on a grid
// "tissue", renders the selected pattern, then kills a patch of cells'
// state (transient fault) and shows detection + Restart + re-selection.
//
//   $ ./quorum_mis [--rows=6] [--cols=10] [--seed=7]
#include <iostream>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "util/cli.hpp"

using namespace ssau;

namespace {

void render(const mis::AlgMis& alg, const core::Engine& engine,
            core::NodeId rows, core::NodeId cols) {
  for (core::NodeId r = 0; r < rows; ++r) {
    std::cout << "  ";
    for (core::NodeId c = 0; c < cols; ++c) {
      const auto s = alg.decode(engine.state_of(r * cols + c));
      char ch = '?';
      switch (s.mode) {
        case mis::MisState::Mode::kIn: ch = '#'; break;        // precursor
        case mis::MisState::Mode::kOut: ch = '.'; break;       // inhibited
        case mis::MisState::Mode::kUndecided: ch = 'o'; break; // competing
        case mis::MisState::Mode::kRestart: ch = 'R'; break;   // resetting
      }
      std::cout << ch;
    }
    std::cout << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto rows = cli.get_count<core::NodeId>("rows", 6);
  const auto cols = cli.get_count<core::NodeId>("cols", 10);
  const auto seed = cli.get_count<std::uint64_t>("seed", 7);
  cli.reject_unread();

  const graph::Graph g = graph::grid(rows, cols);
  const int diam = static_cast<int>(graph::diameter(g));
  const mis::AlgMis alg({.diameter_bound = diam});

  std::cout << "epithelium: " << rows << "x" << cols << " cells, diameter "
            << diam << "; AlgMIS with " << alg.state_count()
            << " states per cell\n";
  std::cout << "legend: # precursor (IN)   . inhibited (OUT)   o competing   "
               "R restarting\n\n";

  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(
      g, alg, sched,
      core::uniform_configuration(g.num_nodes(), alg.initial_state()), seed);

  auto legit = [&](const core::Configuration& c) {
    return mis::mis_legitimate(alg, g, c);
  };

  const auto outcome = engine.run_until(legit, 100000);
  std::cout << "selection complete after " << outcome.rounds << " rounds:\n";
  render(alg, engine, rows, cols);

  // Transient fault: a toxin wipes a 3x3 patch — states scrambled to IN
  // (conflicting precursors) and orphaned OUTs.
  std::cout << "\ntoxin burst scrambles the top-left 3x3 patch:\n";
  // RunOutcome::rounds and the run_until cap are absolute round indices:
  // count the recovery from the stamp taken at the burst.
  const std::uint64_t burst_round = engine.round_index_now();
  util::Rng rng(seed ^ 0xBEEF);
  for (core::NodeId r = 0; r < std::min<core::NodeId>(3, rows); ++r) {
    for (core::NodeId c = 0; c < std::min<core::NodeId>(3, cols); ++c) {
      engine.inject_state(r * cols + c, rng.below(alg.state_count()));
    }
  }
  render(alg, engine, rows, cols);

  // Watch detection, Restart, re-selection.
  const auto recover = engine.run_until(legit, burst_round + 100000);
  std::cout << "\nre-selection complete after "
            << recover.rounds - burst_round << " further rounds:\n";
  render(alg, engine, rows, cols);

  std::cout << "\nindependence + maximality verified: "
            << (mis::mis_outputs_correct(alg, g, engine.config()) ? "yes"
                                                                  : "NO")
            << "\n";
  return 0;
}
