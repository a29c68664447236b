// Firefly tissue: asynchronous unison as a biological pacemaker.
//
// A "tissue" of cell clusters (ring of cliques) runs AlgAU under a fully
// asynchronous daemon — no shared clock, anonymous cells, finite memory,
// set-broadcast sensing only. The demo:
//
//   1. starts from adversarial chaos and shows the phase field healing;
//   2. injects a transient fault burst (cosmic ray / toxin: random states in
//      a contiguous patch) mid-run and shows gap-closing recovery, without
//      any reset wave;
//   3. renders the phase of every cell as an ASCII strip per sampled round.
//
//   $ ./firefly_tissue [--cliques=6] [--clique-size=4] [--rounds=40]
#include <fstream>
#include <iostream>
#include <string>

#include "analysis/svg_timeline.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "unison/au_monitor.hpp"
#include "util/cli.hpp"

using namespace ssau;

namespace {

// Phase rendered as one character per cell: 0-9 for the clock value scaled
// to 10 buckets, '!' for cells in a faulty detour.
std::string render_phases(const unison::AlgAu& alg,
                          const core::Engine& engine) {
  const auto& ts = alg.turns();
  const double m = 2.0 * ts.k();
  std::string out;
  for (core::NodeId v = 0; v < engine.graph().num_nodes(); ++v) {
    const auto q = engine.state_of(v);
    if (ts.is_faulty(q)) {
      out += '!';
    } else {
      const auto bucket =
          static_cast<int>(10.0 * static_cast<double>(alg.output(q)) / m);
      out += static_cast<char>('0' + std::min(bucket, 9));
    }
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto cliques = cli.get_count<core::NodeId>("cliques", 6);
  const auto csize = cli.get_count<core::NodeId>("clique-size", 4);
  const int show_rounds = cli.get_count<int>("rounds", 40);
  const bool svg = cli.get_bool("svg", true);
  cli.reject_unread();

  const graph::Graph g = graph::ring_of_cliques(cliques, csize);
  const int diam = static_cast<int>(graph::diameter(g));
  const unison::AlgAu alg(diam);
  const auto& ts = alg.turns();

  std::cout << "tissue: " << cliques << " clusters x " << csize
            << " cells = " << g.num_nodes() << " cells, diameter " << diam
            << "\nAlgAU: " << alg.state_count()
            << " states per cell; asynchronous random-subset daemon\n\n";

  util::Rng rng(2718);
  auto scheduler = sched::make_scheduler("random-subset", g);
  core::Engine engine(g, alg, *scheduler,
                      unison::au_adversarial_configuration("random", alg, g,
                                                           rng),
                      31);

  std::cout << "phase 1 — healing from adversarial chaos "
               "('!' = faulty detour):\n";
  std::cout << "  t=0   " << render_phases(alg, engine) << "\n";
  int round = 0;
  while (!unison::graph_good(ts, g, engine.config()) &&
         round < 100000) {
    engine.run_rounds(1);
    ++round;
    if (round % 5 == 0 || unison::graph_good(ts, g, engine.config())) {
      std::cout << "  r=" << round << "\t" << render_phases(alg, engine)
                << "\n";
    }
  }
  std::cout << "  good after " << round << " rounds\n\n";

  std::cout << "phase 2 — synchronized flashing:\n";
  for (int i = 0; i < std::min(show_rounds, 10); ++i) {
    engine.run_rounds(1);
    std::cout << "  r+" << i + 1 << "\t" << render_phases(alg, engine) << "\n";
  }

  std::cout << "\nphase 3 — transient fault burst hits cluster 0 "
               "(scrambled states):\n";
  for (core::NodeId v = 0; v < csize; ++v) {
    engine.inject_state(v, rng.below(alg.state_count()));
  }
  std::cout << "  t=hit " << render_phases(alg, engine) << "\n";
  round = 0;
  while (!unison::graph_good(ts, g, engine.config()) && round < 100000) {
    engine.run_rounds(1);
    ++round;
    if (round % 3 == 0 || unison::graph_good(ts, g, engine.config())) {
      std::cout << "  r=" << round << "\t" << render_phases(alg, engine)
                << "\n";
    }
  }
  std::cout << "  healed after " << round
            << " rounds — no reset, the gap closed locally.\n";

  const auto report = unison::verify_post_stabilization(engine, alg, 30);
  std::cout << "\nfinal check: safety=" << (report.safety_ok ? "ok" : "BAD")
            << ", liveness=" << (report.liveness_ok ? "ok" : "BAD") << "\n";

  // Bonus: record a clock timeline of another fault+recovery episode and
  // render it as SVG (if the working directory is writable).
  if (svg) {
    analysis::Timeline timeline(g.num_nodes());
    for (core::NodeId v = 0; v < csize; ++v) {
      engine.inject_state(v, rng.below(alg.state_count()));
    }
    for (int r = 0; r < 80; ++r) {
      engine.run_rounds(1);
      std::vector<double> clocks(g.num_nodes());
      for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
        clocks[v] = static_cast<double>(alg.output(engine.state_of(v)));
      }
      timeline.sample(clocks);
    }
    std::ofstream svg("firefly_clocks.svg");
    if (!svg) {
      std::cerr << "error: cannot open firefly_clocks.svg for writing\n";
      return 1;
    }
    timeline.write_svg(svg, "AU clocks: fault at r=0, gap-closing recovery");
    svg.flush();
    if (!svg.good()) {
      std::cerr << "error: write to firefly_clocks.svg failed\n";
      return 1;
    }
    std::cout << "\nwrote firefly_clocks.svg (one polyline per cell)\n";
  }
  return 0;
}
