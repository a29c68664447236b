#include "unison/au_monitor.hpp"

#include <algorithm>

namespace ssau::unison {

core::RunOutcome run_to_good(core::Engine& engine, const AlgAu& alg,
                             std::uint64_t max_rounds) {
  const auto& ts = alg.turns();
  const auto& g = engine.graph();
  return engine.run_until(
      [&](const core::Configuration& c) { return graph_good(ts, g, c); },
      max_rounds);
}

PostStabilizationReport verify_post_stabilization(core::Engine& engine,
                                                  const AlgAu& alg,
                                                  std::uint64_t rounds) {
  const auto& ts = alg.turns();
  const auto& g = engine.graph();
  const core::NodeId n = g.num_nodes();

  PostStabilizationReport report;
  std::vector<std::uint64_t> ticks(n, 0);
  std::vector<Level> prev = levels_of(ts, engine.config());

  // graph_protected validates c (one state per node, each in range) and
  // walks the edges; AlgAU's outputs are exactly its able turns.
  auto check_config = [&](const core::Configuration& c) {
    if (!graph_protected(ts, g, c)) report.safety_ok = false;
    for (const core::StateId q : c) {
      if (!ts.is_able(q)) report.outputs_ok = false;
    }
  };
  check_config(engine.config());

  const std::uint64_t start_rounds = engine.rounds_completed();
  while (engine.rounds_completed() < start_rounds + rounds) {
    engine.step();
    const auto& c = engine.config();
    check_config(c);
    for (core::NodeId v = 0; v < n; ++v) {
      const Level now = ts.level_of(c[v]);
      if (now != prev[v]) {
        if (now == ts.forward(prev[v])) {
          ++ticks[v];
        } else {
          report.ticks_plus_one = false;
        }
        prev[v] = now;
      }
    }
  }

  report.rounds_observed = engine.rounds_completed() - start_rounds;
  report.min_ticks = *std::min_element(ticks.begin(), ticks.end());
  report.max_ticks = *std::max_element(ticks.begin(), ticks.end());
  // Lem 2.11: in [t, ϱ^{D+i}(t)) every node ticks >= i times, i.e. over an
  // observation window of w completed rounds, ticks >= w - D.
  const auto d = static_cast<std::uint64_t>(ts.diameter_bound());
  const std::uint64_t required =
      report.rounds_observed > d ? report.rounds_observed - d : 0;
  report.liveness_ok = report.min_ticks >= required;
  return report;
}

}  // namespace ssau::unison
