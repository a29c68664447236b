#include "unison/au_potential.hpp"

#include <cstdlib>

namespace ssau::unison {

PotentialSnapshot measure_potential(const TurnSystem& ts,
                                    const graph::Graph& g,
                                    const core::Configuration& user_c) {
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  PotentialSnapshot snap;
  for (const auto& [u, v] : g.edges()) {
    if (!edge_protected(ts, c, u, v)) {
      ++snap.non_protected_edges;
      const int gap =
          std::abs(ts.level_of(c[u]) - ts.level_of(c[v]));
      snap.max_level_gap = std::max(snap.max_level_gap, gap);
    }
  }
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v])) {
      ++snap.faulty_nodes;
      if (!justifiably_faulty(ts, g, c, v)) ++snap.unjustified_nodes;
    }
    if (!node_out_protected(ts, g, c, v)) ++snap.non_out_protected_nodes;
  }
  return snap;
}

PhaseTimes track_phases(core::Engine& engine, const AlgAu& alg,
                        std::uint64_t max_rounds) {
  const auto& ts = alg.turns();
  const auto& g = engine.graph();
  PhaseTimes times;

  auto probe = [&]() {
    const auto& c = engine.config();
    const bool op = graph_out_protected(ts, g, c);
    const bool just = op && graph_justified(ts, g, c);
    const bool good = graph_good(ts, g, c);
    if (op && !times.reached_t0) {
      times.reached_t0 = true;
      times.t0_rounds = engine.round_index_now();
    }
    if (times.reached_t0 && !op) times.monotone = false;
    if (just && !times.reached_t1) {
      times.reached_t1 = true;
      times.t1_rounds = engine.round_index_now();
    }
    if (times.reached_t1 && !just && !good) times.monotone = false;
    if (good && !times.reached_t2) {
      times.reached_t2 = true;
      times.t2_rounds = engine.round_index_now();
    }
    if (times.reached_t2 && !good) times.monotone = false;
  };

  probe();
  while (!times.reached_t2 && engine.rounds_completed() < max_rounds) {
    engine.step();
    probe();
  }
  return times;
}

}  // namespace ssau::unison
