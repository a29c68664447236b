#include "unison/au_potential.hpp"

#include <algorithm>
#include <cstdlib>
#include <vector>

namespace ssau::unison {

PotentialSnapshot measure_potential(const TurnSystem& ts,
                                    const graph::Graph& g,
                                    const core::Configuration& user_c) {
  core::check_configuration(g, user_c, ts.state_count(), "measure_potential");
  core::Configuration buffer;
  const core::Configuration& c = layout_order(g, user_c, buffer);
  PotentialSnapshot snap;
  // One walk over the edges: the unprotected ones and, for both ends, an
  // incident level far outwards of their own.
  std::vector<std::uint8_t> out_protected(g.num_nodes(), 1);
  core::for_each_upper_row(
      g, [&](core::NodeId v, std::span<const core::NodeId> upper) {
        const Level lv = ts.level_of(c[v]);
        const int kv = ts.clock_of(c[v]);
        for (const core::NodeId u : upper) {
          const Level lu = ts.level_of(c[u]);
          if (!core::cyclic_adjacent(kv, ts.clock_of(c[u]), 2 * ts.k())) {
            ++snap.non_protected_edges;
            snap.max_level_gap =
                std::max(snap.max_level_gap, std::abs(lu - lv));
          }
          if (ts.far_outwards(lu, lv)) out_protected[v] = 0;
          if (ts.far_outwards(lv, lu)) out_protected[u] = 0;
        }
        return true;
      });
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (ts.is_faulty(c[v])) {
      ++snap.faulty_nodes;
      if (!justifiably_faulty(ts, g, c, v)) ++snap.unjustified_nodes;
    }
    if (!out_protected[v]) ++snap.non_out_protected_nodes;
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
