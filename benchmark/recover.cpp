// Workload recover-clique: AlgAU with D = 2 on a damaged clique under the
// uniform-single central daemon, running serially. After the first
// stabilization it applies fault bursts (state injections plus one link
// fail/heal) and steps round by round until the graph is good again — the
// paper's fault model. See README.md for why it exists and what it stresses.
#include <algorithm>
#include <filesystem>
#include <memory>
#include <optional>

#include "bench.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"

namespace bench {
namespace {

namespace unison = ssau::unison;

// Full size: 1024 nodes keeping 20% of the clique's edges (average degree
// ~205). Two non-adjacent nodes then share ~41 neighbors, so the diameter is
// 2 on every seed. --small keeps half of 256 nodes' edges.
constexpr double kDropP = 0.8;
constexpr double kSmallDropP = 0.5;
constexpr int kDiameterBound = 2;
constexpr int kInjectionsPerBurst = 8;
const char* const kDaemon = "uniform-single";

using Edge = std::pair<graph::NodeId, graph::NodeId>;

struct Instance {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<unison::AlgAu> alg;
  std::unique_ptr<ssau::sched::Scheduler> sched;
  std::unique_ptr<core::Engine> engine;
  double build_s = 0.0;
  double construct_s = 0.0;
  double total_s = 0.0;

  /// Releases the engine before what it borrows.
  void reset() {
    engine.reset();
    sched.reset();
    alg.reset();
    graph.reset();
  }
};

/// The signal field is kept on. kAuto builds it here and then drops it or
/// not depending on the seed (its adaptive monitor sits near its threshold
/// on this graph), which changed a burst's cost by 2x between seeds.
core::EngineOptions options() {
  core::EngineOptions o;
  o.signal_field = core::SignalFieldMode::kOn;
  return o;
}

Instance setup(core::NodeId n, double drop_p, std::uint64_t seed) {
  Instance in;
  const auto t0 = Clock::now();
  util::Rng graph_rng = util::Rng::stream(seed, 1);
  util::Rng init_rng = util::Rng::stream(seed, 2);
  in.graph = std::make_unique<graph::Graph>(
      graph::damaged_clique(n, drop_p, graph_rng));
  in.build_s = seconds_since(t0);
  const auto t1 = Clock::now();
  in.alg = std::make_unique<unison::AlgAu>(kDiameterBound);
  in.sched = ssau::sched::make_scheduler(kDaemon, *in.graph);
  in.engine = std::make_unique<core::Engine>(
      *in.graph, *in.alg, *in.sched,
      core::random_configuration(*in.alg, n, init_rng), seed, options());
  in.construct_s = seconds_since(t1);
  in.total_s = seconds_since(t0);
  return in;
}

/// Exact "diameter <= 2" test with adjacency bitsets: every node's closed
/// neighborhood, OR-ed with its neighbors' rows, must cover the graph.
bool diameter_at_most_two(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> rows(static_cast<std::size_t>(n) * words, 0);
  const auto row = [&](graph::NodeId v) { return rows.data() + v * words; };
  for (graph::NodeId v = 0; v < n; ++v) {
    row(v)[v / 64] |= 1ULL << (v % 64);
    for (const graph::NodeId u : g.neighbors(v)) row(v)[u / 64] |= 1ULL << (u % 64);
  }
  std::vector<std::uint64_t> acc(words);
  for (graph::NodeId v = 0; v < n; ++v) {
    std::copy(row(v), row(v) + words, acc.begin());
    for (const graph::NodeId u : g.neighbors(v)) {
      const std::uint64_t* r = row(u);
      for (std::size_t w = 0; w < words; ++w) acc[w] |= r[w];
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      if ((acc[u / 64] >> (u % 64) & 1ULL) == 0) return false;
    }
  }
  return true;
}

bool good(const Instance& in) {
  return unison::graph_good(in.alg->turns(), in.engine->graph(),
                            in.engine->config());
}

struct Burst {
  bool recovered = false;
  bool within_budget = false;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
};

/// One burst: inject states, fail one link and heal the previous one, then
/// step round by round until the graph is good again.
Burst burst(Instance& in, util::Rng& rng, std::optional<Edge>& failed,
            std::uint64_t budget, Tracer& tracer) {
  core::Engine& e = *in.engine;
  const core::NodeId n = in.graph->num_nodes();
  Burst b;
  const auto t0 = Clock::now();
  {
    auto op = tracer.span("recover", Layer::kOp);
    for (int i = 0; i < kInjectionsPerBurst; ++i) {
      const auto v = static_cast<core::NodeId>(rng.below(n));
      const auto q = static_cast<core::StateId>(rng.below(in.alg->state_count()));
      auto s = tracer.span("faults.inject_state", Layer::kFaults);
      e.inject_state(v, q);
    }
    graph::TopologyDelta delta;
    Edge edge;
    if (random_edge(e.graph(), rng, edge)) delta.remove.push_back(edge);
    if (failed) delta.add.push_back(*failed);
    {
      auto s = tracer.span("faults.topology_delta", Layer::kFaults);
      e.apply_topology_delta(delta);
    }
    failed.reset();
    if (!delta.remove.empty()) failed = edge;

    // Past the Thm 1.1 budget the burst counts as failed; stepping goes on
    // (to a hard cap) so the next burst starts from a good graph.
    while (b.rounds < 4 * budget) {
      {
        auto s = tracer.span("engine.run_rounds", Layer::kEngine);
        e.run_rounds(1);
      }
      ++b.rounds;
      auto s = tracer.span("check.graph_good", Layer::kCheck);
      if (good(in)) {
        b.recovered = true;
        break;
      }
    }
  }
  b.seconds = seconds_since(t0);
  b.within_budget = b.recovered && b.rounds <= budget;
  return b;
}

struct Pass {
  std::vector<double> ms;
  std::vector<double> rounds;
  double setup_s = 0.0;
  std::uint64_t first_rounds = 0;  // the first stabilization
  core::Time activations = 0;      // engine steps over the bursts
};

/// One replay: a fresh instance from the seed, its first stabilization
/// (untimed, checked at round boundaries), then `bursts` timed bursts. The
/// instance, the trajectory and the faults depend on the seed alone, so
/// every pass of a run replays the same bursts.
Pass run_pass(Instance& in, core::NodeId n, double drop_p, std::uint64_t seed,
              std::size_t bursts, Report& report, Tracer& tracer) {
  in.reset();
  in = setup(n, drop_p, seed);
  const double k = static_cast<double>(in.alg->turns().k());
  const auto budget = static_cast<std::uint64_t>(60.0 * k * k * k) + 400;
  std::uint64_t first = 0;
  while (!good(in) && first < budget) {
    in.engine->run_rounds(1);
    ++first;
  }
  report.attempt(good(in));
  report.check("first_stabilization_within_budget", good(in));

  Pass p;
  p.setup_s = in.total_s;
  p.first_rounds = first;
  util::Rng rng = util::Rng::stream(seed, 4);
  std::optional<Edge> failed;
  const core::Time t0 = in.engine->time();
  while (p.ms.size() < bursts) {
    const Burst b = burst(in, rng, failed, budget, tracer);
    report.attempt(b.within_budget);
    report.check("bursts_recover_within_60k3_plus_400", b.within_budget);
    if (!b.recovered) break;
    p.ms.push_back(b.seconds * 1e3);
    p.rounds.push_back(static_cast<double>(b.rounds));
  }
  p.activations = in.engine->time() - t0;
  return p;
}

/// Transitions per activation during recovery, counted with a transition
/// listener on a replica engine (a copy of the graph and configuration).
double probe_transition_rate(const Instance& in, std::uint64_t seed) {
  graph::Graph g = *in.graph;
  auto sched = ssau::sched::make_scheduler(kDaemon, g);
  core::Engine e(g, *in.alg, *sched, in.engine->config(), seed);
  std::uint64_t transitions = 0;
  e.set_transition_listener(
      [&](core::NodeId, core::StateId, core::StateId, const core::Signal&,
          core::Time) { ++transitions; });
  util::Rng rng(seed);
  const core::Time t0 = e.time();
  for (int b = 0; b < 8; ++b) {
    for (int i = 0; i < kInjectionsPerBurst; ++i) {
      e.inject_state(static_cast<core::NodeId>(rng.below(g.num_nodes())),
                     static_cast<core::StateId>(rng.below(in.alg->state_count())));
    }
    for (int r = 0; r < 1000; ++r) {
      e.run_rounds(1);
      if (unison::graph_good(in.alg->turns(), e.graph(), e.config())) break;
    }
  }
  const core::Time steps = e.time() - t0;  // one activation per step
  return steps == 0 ? 0.0 : static_cast<double>(transitions) / static_cast<double>(steps);
}

}  // namespace

void run_recover(const Options& o, Report& report) {
  const core::NodeId n = o.small ? 256 : 1024;
  const double drop_p = o.small ? kSmallDropP : kDropP;
  const std::size_t bursts = o.small ? 20 : 200;
  const std::size_t min_passes = o.small ? 2 : 3;

  // Every pass sets the instance up again; setup_s is the median over this
  // one and every pass's, spread over the whole run.
  Instance in = setup(n, drop_p, o.seed);
  std::vector<double> setups{in.total_s};
  report.check("diameter_at_most_D", diameter_at_most_two(*in.graph));
  report.note("nodes", n, "count");
  report.note("edges", static_cast<double>(in.graph->num_edges()), "count");
  report.note("state_count", in.alg->state_count(), "count");

  // The same bursts replayed until --seconds have passed. A burst's time is
  // its fastest replay: the host's slow spells (seconds long) then drop out,
  // while a slower program is slower in every replay.
  Tracer off(false);
  std::vector<Pass> passes;
  const auto t0 = Clock::now();
  while (passes.size() < min_passes || seconds_since(t0) < o.seconds) {
    passes.push_back(run_pass(in, n, drop_p, o.seed, bursts, report, off));
  }
  const Pass& first = passes.front();
  bool same = true;
  std::vector<double> best = first.ms;
  std::vector<double> pass_ms;
  for (const Pass& p : passes) {
    same = same && p.rounds == first.rounds;
    for (std::size_t i = 0; i < best.size() && i < p.ms.size(); ++i) {
      best[i] = std::min(best[i], p.ms[i]);
    }
    pass_ms.push_back(mean(p.ms));
    setups.push_back(p.setup_s);
  }
  report.check("replayed_bursts_take_the_same_rounds", same);

  report.set("setup_s", quantile(setups, 0.5));
  report.set("mean_ms", mean(best));
  report.set("tail_ms", quantile(best, 0.95));
  report.note("bursts", static_cast<double>(best.size()), "count");
  report.note("passes", static_cast<double>(passes.size()), "count");
  report.note("recover_p50_ms", quantile(best, 0.5), "ms");
  report.note("recover_p95_ms", quantile(best, 0.95), "ms");
  report.note("recover_pass_mean_ms", quantile(pass_ms, 0.5), "ms");
  report.note("first_stabilization_rounds", static_cast<double>(first.first_rounds), "rounds");
  report.note("recover_rounds_mean", mean(first.rounds), "rounds");
  report.note("field_active_after_bursts", in.engine->signal_field_active() ? 1 : 0, "bool");

  if (o.trace) {
    Tracer on(true);
    const Pass traced = run_pass(in, n, drop_p, o.seed, bursts, report, on);
    report.check("replayed_bursts_take_the_same_rounds", traced.rounds == first.rounds);
    core::Engine& e = *in.engine;
    report.set("graph.build_s", in.build_s);
    report.set("engine.construct_s", in.construct_s);
    const auto steps = static_cast<double>(traced.activations);

    const graph::Graph& g = *in.graph;
    report.set("graph.avg_neighbor_distance", graph::average_neighbor_distance(g));
    report.set("graph.bytes_per_edge", static_cast<double>(g.dynamic_memory_usage()) /
                                           static_cast<double>(g.num_edges()));
    report.set("engine.bytes_per_node",
               static_cast<double>(e.dynamic_memory_usage()) / n);
    report.set("engine.shard_count", e.shard_count());
    report.set("engine.field_active", e.signal_field_active() ? 1.0 : 0.0);
    report.set("automaton.delta_ns", probe_delta_ns(e, o.seed));
    report.set("automaton.rounds_per_op", mean(traced.rounds));
    report.set("sched.draw_ns", probe_draw_ns(kDaemon, g, o.seed));
    if (e.signal_field_active()) {
      report.set("core.field.patch_ns", probe_field_patch_ns(e, o.seed));
      report.set("core.field.transitions_per_activation",
                 probe_transition_rate(in, o.seed));
    }

    const double step_s = on.total_seconds("engine.run_rounds");
    const double check_s = on.total_seconds("check.graph_good");
    const auto checks = static_cast<double>(on.count("check.graph_good"));
    report.set("engine.step_s", step_s);
    report.set("engine.activations", steps);
    report.set("engine.ns_per_activation", step_s * 1e9 / steps);
    report.set("check.s", check_s);
    report.set("check.ns_per_edge",
               check_s * 1e9 / (checks * static_cast<double>(g.num_edges())));
    report.set("faults.inject_us", on.total_seconds("faults.inject_state") * 1e6 /
                                       static_cast<double>(on.count("faults.inject_state")));
    report.set("faults.churn_us", on.total_seconds("faults.topology_delta") * 1e6 /
                                      static_cast<double>(on.count("faults.topology_delta")));

    const auto t1 = Clock::now();
    const auto bytes = core::snapshot::save(e);
    const std::string path = o.tmp_dir + "/recover.snap";
    core::snapshot::write_file(bytes, path);
    const double save_s = seconds_since(t1);
    std::filesystem::remove(path);
    report.set("snapshot.save_ms", save_s * 1e3);
    report.set("snapshot.bytes", static_cast<double>(bytes.size()));
    report.set("snapshot.mb_per_s", static_cast<double>(bytes.size()) / 1e6 / save_s);

    // Inside run_rounds: the daemon's draws, δ and the field patches are
    // estimated from their replica probes; the engine keeps the rest.
    Carver carved{on.op_self_seconds()};
    carved.carve(Layer::kSched, report.get("sched.draw_ns") * 1e-9 * steps);
    carved.carve(Layer::kAutomaton, report.get("automaton.delta_ns") * 1e-9 * steps);
    carved.carve(Layer::kField,
                 report.get("core.field.patch_ns") * 1e-9 * steps *
                     report.get("core.field.transitions_per_activation"));
    const double closure = report_self_times(report, carved, on.op_seconds());
    report.check("self_times_sum_to_recovery_time_within_10pct",
                 closure >= 0.9 && closure <= 1.1);
    // Against the median untraced pass: the traced pass is one replay too.
    const double untraced_ms = quantile(pass_ms, 0.5);
    report.set("trace.overhead_ms_per_op", mean(traced.ms) - untraced_ms);
    report.set("trace.overhead_pct", (mean(traced.ms) / untraced_ms - 1.0) * 100.0);
    report.set("trace.spans", static_cast<double>(on.spans().size()));
    if (!o.trace_out.empty()) report.check("span_file_written", on.write(o.trace_out, o.workload));
  }
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace bench
