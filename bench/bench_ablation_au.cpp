// E11 — ablation of AlgAU's "cautious" transition guards (§2.1 design
// narrative: the conditions for moving between able and faulty turns are
// chosen to avoid vicious cycles).
//
// Variants:
//   * full AlgAU (paper);
//   * no-AF-inward: drop AF condition (2) (don't go faulty when sensing a
//     faulty turn one unit inwards) — the faulty wave no longer propagates
//     outwards, so FA's outward guard deadlocks faulty nodes;
//   * no-FA-guard: drop FA's outward check — faulty nodes return eagerly;
//   * no-AA-good: tick even while sensing faulty turns.
//
// Measured per variant:
//   * stabilization success rate within the O(D^3) budget, and
//   * violations of the analysis' step invariants (Obs 2.1 protected-edge
//     persistence away from the {−k,k} seam; Obs 2.3 out-protected
//     persistence) — the potential-function backbone of the §2.3 proof.
// The full algorithm must show 100% success and zero violations; each
// weakened guard must lose either convergence or the proof invariants.
#include <iostream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "unison/au_monitor.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

namespace {

struct VariantResult {
  std::size_t runs = 0;
  std::size_t ok = 0;
  std::uint64_t obs21_violations = 0;  // protected edge persistence
  std::uint64_t obs23_violations = 0;  // out-protected persistence
  std::vector<double> rounds;
};

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int seeds = cli.get_count<int>("seeds", 4);
  cli.reject_unread();
  util::Rng meta(1107);

  bench::header("E11 — ablation of AlgAU's transition guards");

  struct Variant {
    std::string name;
    unison::AlgAuOptions options;
  };
  const std::vector<Variant> variants = {
      {"full AlgAU (paper)", {}},
      {"no-AF-inward", {.af_inward_trigger = false}},
      {"no-FA-guard", {.fa_outward_guard = false}},
      {"no-AA-good", {.aa_requires_good = false}},
  };

  // One shared instance battery so every variant sees identical workloads.
  std::vector<bench::Instance> instances;
  for (const int d : {2, 3, 4}) {
    util::Rng rng(9000 + d);
    for (auto& inst : bench::instances_with_diameter(d, rng)) {
      instances.push_back(std::move(inst));
    }
  }

  util::Table table({"variant", "runs", "stabilized", "success %",
                     "mean rounds (ok)", "max rounds", "Obs2.1 violations",
                     "Obs2.3 violations"});

  for (const auto& variant : variants) {
    VariantResult res;
    std::uint64_t run_seed = 1;
    for (const auto& inst : instances) {
      const unison::AlgAu alg(inst.diameter, variant.options);
      const auto& ts = alg.turns();
      const auto k = static_cast<double>(ts.k());
      // Include co-activating schedulers: the no-AA-good pathology needs an
      // FA and an AA transition in the same step to tear a protected edge.
      for (const std::string& sched_name :
           {std::string("uniform-single"), std::string("rotating-single"),
            std::string("synchronous"), std::string("random-subset")}) {
        for (const auto& adv :
             {std::string("tear"), std::string("all-faulty"),
              std::string("random")}) {
          for (int s = 0; s < seeds; ++s) {
            util::Rng run_rng(run_seed * 2654435761ULL + 17);
            ++run_seed;
            const auto init = unison::au_adversarial_configuration(
                adv, alg, inst.graph, run_rng);

            // Pass 1 — audit the proof's step invariants for 400 steps.
            {
              auto scheduler = sched::make_scheduler(sched_name, inst.graph);
              core::Engine engine(inst.graph, alg, *scheduler, init,
                                  run_seed);
              core::Configuration prev = engine.config();
              for (int t = 0; t < 400; ++t) {
                engine.step();
                const auto& now = engine.config();
                for (const auto& [u, v] : inst.graph.edges()) {
                  const auto lu = ts.level_of(prev[u]);
                  const auto lv = ts.level_of(prev[v]);
                  const bool seam = (lu == ts.k() && lv == -ts.k()) ||
                                    (lu == -ts.k() && lv == ts.k());
                  if (!seam && unison::edge_protected(ts, prev, u, v) &&
                      !unison::edge_protected(ts, now, u, v)) {
                    ++res.obs21_violations;
                  }
                }
                for (core::NodeId v = 0; v < inst.graph.num_nodes(); ++v) {
                  if (unison::node_out_protected(ts, inst.graph, prev, v) &&
                      !unison::node_out_protected(ts, inst.graph, now, v)) {
                    ++res.obs23_violations;
                  }
                }
                prev = now;
              }
            }

            // Pass 2 — fresh identical run measuring stabilization rounds.
            {
              auto scheduler = sched::make_scheduler(sched_name, inst.graph);
              core::Engine engine(inst.graph, alg, *scheduler, init,
                                  run_seed);
              const auto budget =
                  static_cast<std::uint64_t>(60.0 * k * k * k) + 400;
              const auto out = unison::run_to_good(engine, alg, budget);
              ++res.runs;
              if (out.reached) {
                ++res.ok;
                res.rounds.push_back(static_cast<double>(out.rounds));
              }
            }
          }
        }
      }
    }
    const auto sum = util::summarize(res.rounds);
    table.row()
        .add(variant.name)
        .add(static_cast<std::uint64_t>(res.runs))
        .add(static_cast<std::uint64_t>(res.ok))
        .add(100.0 * static_cast<double>(res.ok) /
                 static_cast<double>(res.runs),
             1)
        .add(sum.mean, 1)
        .add(sum.max, 0)
        .add(res.obs21_violations)
        .add(res.obs23_violations);
  }
  table.print(std::cout);

  std::cout
      << "\nReading (§2.1): the full algorithm stabilizes on every run with "
         "zero invariant violations.\n"
         "no-AF-inward deadlocks (faulty nodes wait forever on outward "
         "neighbors that never go faulty);\nno-FA-guard / no-AA-good may "
         "still converge on small instances, but they break the monotone "
         "invariants\n(Obs 2.1/2.3) that the O(D^3) stabilization proof is "
         "built on — the guards are what make the\npotential-function "
         "argument sound.\n";
  return 0;
}
