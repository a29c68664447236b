// E10 — the §5 comparison narrative: AlgAU against the other unison design
// points, on identical instances.
//
//   * AlgAU              — bounded O(D) states, asynchronous, O(D^3) rounds.
//   * MinPlusOneUnison   — unbounded states (AKM+93-style), asynchronous,
//                          O(D) rounds.
//   * ResetUnison        — bounded states (Restart/Boulinier principle),
//                          synchronous-only: stabilizes in O(D) synchronous
//                          rounds but is not guaranteed asynchronously.
//   * FailedAu           — bounded states, reset-based, asynchronous attempt:
//                          live-locks (Appendix A).
//
// For each algorithm: state count, stabilization statistics under the
// synchronous and an adversarial asynchronous schedule.
#include <iostream>
#include <sstream>

#include "bench_common.hpp"
#include "core/engine.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_monitor.hpp"
#include "unison/baselines.hpp"
#include "unison/failed_au.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

using namespace ssau;

namespace {

struct Row {
  std::string alg;
  std::string states;
  std::string sync_rounds;
  std::string async_rounds;
  std::string notes;
};

std::string fmt(const util::Summary& s, std::size_t attempted) {
  if (s.count == 0) return "LIVELOCK/timeout (0/" + std::to_string(attempted) + ")";
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(1);
  os << s.mean << " (max " << s.max << ")";
  if (s.count < attempted) {
    os << " [" << s.count << "/" << attempted << " ok]";
  }
  return os.str();
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const int seeds = cli.get_count<int>("seeds", 6);
  cli.reject_unread();
  util::Rng meta(510);

  bench::header("E10 / §5 — unison design points compared");

  const graph::Graph g = graph::cycle(12);
  const int d = static_cast<int>(graph::diameter(g));
  std::cout << "instance: cycle(12), diam = D = " << d
            << "; schedules: synchronous / rotating-single (adversarial)\n\n";

  std::vector<Row> rows;
  const std::uint64_t budget = 400000;

  // --- AlgAU -----------------------------------------------------------------
  {
    const unison::AlgAu alg(d);
    std::vector<double> sync_r, async_r;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      for (const bool synchronous : {true, false}) {
        auto sched = sched::make_scheduler(
            synchronous ? "synchronous" : "rotating-single", g);
        core::Engine e(g, alg, *sched,
                       unison::au_adversarial_configuration("random", alg, g,
                                                            rng),
                       meta());
        const auto out = unison::run_to_good(e, alg, budget);
        if (out.reached) {
          (synchronous ? sync_r : async_r)
              .push_back(static_cast<double>(out.rounds));
        }
      }
    }
    rows.push_back({"AlgAU (this paper)", std::to_string(alg.state_count()),
                    fmt(util::summarize(sync_r), seeds),
                    fmt(util::summarize(async_r), seeds),
                    "bounded O(D) states, async-correct"});
  }

  // --- MinPlusOne (unbounded) --------------------------------------------------
  {
    const unison::MinPlusOneUnison alg;
    std::vector<double> sync_r, async_r;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      core::Configuration init(g.num_nodes());
      for (auto& q : init) q = rng.below(10000);
      for (const bool synchronous : {true, false}) {
        auto sched = sched::make_scheduler(
            synchronous ? "synchronous" : "rotating-single", g);
        core::Engine e(g, alg, *sched, init, meta());
        const auto out = e.run_until(
            [&](const core::Configuration& c) { return alg.legitimate(g, c); },
            budget);
        if (out.reached) {
          (synchronous ? sync_r : async_r)
              .push_back(static_cast<double>(out.rounds));
        }
      }
    }
    rows.push_back({"min+1 unison (AKM-style)", "unbounded",
                    fmt(util::summarize(sync_r), seeds),
                    fmt(util::summarize(async_r), seeds),
                    "O(D) rounds but state grows forever"});
  }

  // --- ResetUnison (bounded, reset-based) --------------------------------------
  {
    const unison::ResetUnison alg(d, 4 * d + 4);
    std::vector<double> sync_r, async_r;
    std::size_t async_attempts = 0;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      const auto init = core::random_configuration(alg, g.num_nodes(), rng);
      for (const bool synchronous : {true, false}) {
        auto sched = sched::make_scheduler(
            synchronous ? "synchronous" : "rotating-single", g);
        core::Engine e(g, alg, *sched, init, meta());
        if (!synchronous) ++async_attempts;
        const auto out = e.run_until(
            [&](const core::Configuration& c) { return alg.legitimate(g, c); },
            synchronous ? budget : 40000);
        if (out.reached) {
          (synchronous ? sync_r : async_r)
              .push_back(static_cast<double>(out.rounds));
        }
      }
    }
    rows.push_back({"reset unison (Restart/BPV principle)",
                    std::to_string(alg.state_count()),
                    fmt(util::summarize(sync_r), seeds),
                    fmt(util::summarize(async_r), async_attempts),
                    "correct under synchrony only"});
  }

  // --- FailedAu (Appendix A) ----------------------------------------------------
  {
    const unison::FailedAu alg(d, {.c = 2});
    std::vector<double> sync_r, async_r;
    for (int s = 0; s < seeds; ++s) {
      util::Rng rng = meta.fork();
      const auto init = core::random_configuration(alg, g.num_nodes(), rng);
      for (const bool synchronous : {true, false}) {
        auto sched = sched::make_scheduler(
            synchronous ? "synchronous" : "rotating-single", g);
        core::Engine e(g, alg, *sched, init, meta());
        const auto out = e.run_until(
            [&](const core::Configuration& c) { return alg.legitimate(g, c); },
            synchronous ? budget : 40000);
        if (out.reached) {
          (synchronous ? sync_r : async_r)
              .push_back(static_cast<double>(out.rounds));
        }
      }
    }
    rows.push_back({"failed reset AU (Appendix A), random C0",
                    std::to_string(alg.state_count()),
                    fmt(util::summarize(sync_r), seeds),
                    fmt(util::summarize(async_r), seeds),
                    "random C0 may converge; see crafted row"});
  }

  // --- FailedAu under the authentic Appendix-A counterexample -----------------
  {
    // The live-lock needs the clock range cD+1 to be small relative to the
    // cycle so the reset wave chases its own tail: the paper's instance is
    // the 8-cycle with D = 2, c = 2 and the Fig 2(a) configuration.
    const unison::FailedAu alg(2, {.c = 2});
    const graph::Graph g8 = graph::cycle(8);
    sched::RotatingSingleScheduler sched(8);
    core::Engine e(g8, alg, sched, unison::figure2a_configuration(alg), 77);
    const auto det = unison::detect_livelock(
        e, 8, 2000000,
        [&](const core::Configuration& c) { return alg.legitimate(g8, c); });
    std::string verdict;
    if (det.cycle_found && !det.legitimate_seen) {
      verdict = "LIVELOCK (cycle @" + std::to_string(det.cycle_start) +
                ", len " + std::to_string(det.cycle_length) + ")";
    } else if (det.legitimate_seen) {
      verdict = "stabilized at step " + std::to_string(det.steps_run);
    } else {
      verdict = "no verdict in budget";
    }
    rows.push_back({"failed reset AU, Fig-2 instance (8-cycle, D=2)",
                    std::to_string(alg.state_count()), "-", verdict,
                    "the Appendix-A counterexample"});
  }

  util::Table table({"algorithm", "states", "sync rounds mean (max)",
                     "async rounds mean (max)", "notes"});
  for (const auto& r : rows) {
    table.row().add(r.alg).add(r.states).add(r.sync_rounds).add(
        r.async_rounds).add(r.notes);
  }
  table.print(std::cout);

  std::cout << "\nTakeaway (paper §5): only AlgAU combines bounded O(D) "
               "state space with asynchronous self-stabilization; the price "
               "is O(D^3) rounds instead of O(D).\n";
  return 0;
}
