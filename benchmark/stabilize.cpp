// Workload stabilize-1m: AlgAU from a uniformly random C_0 on a 1M-node
// random connected graph, under the synchronous daemon on the sharded
// kernel, checked for a good graph after every round (Thm 1.1's metric at
// scale). See README.md for why it exists and what it stresses.
#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>

#include "bench.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/reorder.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "unison/au_monitor.hpp"

namespace bench {
namespace {

namespace unison = ssau::unison;

/// random_connected keeps each non-tree pair with probability p; p = 8/n
/// gives an average degree of ~10 (2 from the spanning tree, ~8 extra).
constexpr double kExtraDegree = 8.0;

struct Instance {
  std::unique_ptr<graph::Graph> graph;
  std::unique_ptr<unison::AlgAu> alg;
  std::unique_ptr<ssau::sched::SynchronousScheduler> sched;
  std::unique_ptr<core::Engine> engine;
  double build_s = 0.0;
  double reorder_s = 0.0;
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

/// D = 2 * min(ecc(node 0), ecc(hub)), hub the highest-degree node: a proven
/// diameter bound (diam <= 2 * ecc(x) for any x). The hub sits near the
/// centre, so the bound is 16 on every seed tried, where ecc(node 0) alone
/// gives 18 on some; D sets |Q| and k, and so the cost of a round.
int diameter_bound(const graph::Graph& g) {
  graph::NodeId hub = 0;
  for (graph::NodeId v = 1; v < g.num_nodes(); ++v) {
    if (g.degree(v) > g.degree(hub)) hub = v;
  }
  return 2 * static_cast<int>(
                 std::min(graph::eccentricity(g, 0), graph::eccentricity(g, hub)));
}

/// Builds the instance for `seed`, with D from diameter_bound(). The BFS
/// reorder that ReorderMode::kAuto would apply at this size is applied here
/// explicitly, so its cost is timed on its own,
/// and the relabelled graph is then used as the user id space (the engine
/// runs with reorder off): graph_good and verify_post_stabilization pair
/// engine.graph() with engine.config(), which only agree on a graph that
/// carries no permutation.
Instance setup(core::NodeId n, std::uint64_t seed, unsigned threads) {
  Instance in;
  const auto t0 = Clock::now();
  util::Rng graph_rng = util::Rng::stream(seed, 1);
  util::Rng init_rng = util::Rng::stream(seed, 2);
  graph::Graph g =
      graph::random_connected(n, kExtraDegree / static_cast<double>(n), graph_rng);
  in.build_s = seconds_since(t0);
  const int d = diameter_bound(g);

  const auto t1 = Clock::now();
  graph::Graph relabelled = graph::reorder_graph(g, graph::ReorderPolicy::kBfs);
  relabelled.attach_permutation({}, {});
  in.reorder_s = seconds_since(t1);
  in.graph = std::make_unique<graph::Graph>(std::move(relabelled));

  const auto t2 = Clock::now();
  in.alg = std::make_unique<unison::AlgAu>(d);
  in.sched = std::make_unique<ssau::sched::SynchronousScheduler>(n);
  core::EngineOptions options;
  options.thread_count = threads;
  options.reorder = core::ReorderMode::kOff;
  in.engine = std::make_unique<core::Engine>(
      *in.graph, *in.alg, *in.sched,
      core::random_configuration(*in.alg, n, init_rng), seed, options);
  in.construct_s = seconds_since(t2);
  in.total_s = seconds_since(t0);
  return in;
}

struct OpResult {
  bool stabilized = false;
  std::uint64_t rounds = 0;
  double seconds = 0.0;
  std::vector<double> round_ms;  // each round: the step and its check
};

/// One stabilization: step, then check for a good graph, once per round.
OpResult stabilize(Instance& in, std::uint64_t budget, Tracer& tracer) {
  core::Engine& e = *in.engine;
  const auto& turns = in.alg->turns();
  OpResult r;
  const auto t0 = Clock::now();
  {
    auto op = tracer.span("stabilize", Layer::kOp);
    for (;;) {
      const auto round_start = Clock::now();
      {
        auto s = tracer.span("engine.step", Layer::kEngine);
        e.step();
        (void)e.time();  // flushes the overlapped pipeline
      }
      ++r.rounds;
      bool good = false;
      {
        auto s = tracer.span("check.graph_good", Layer::kCheck);
        good = unison::graph_good(turns, e.graph(), e.config());
      }
      r.round_ms.push_back(seconds_since(round_start) * 1e3);
      if (good) {
        r.stabilized = true;
        break;
      }
      if (r.rounds >= budget) break;
    }
  }
  r.seconds = seconds_since(t0);
  return r;
}

/// Runs verify_post_stabilization for D + 2 rounds and records violations.
void verify(Instance& in, Report& report) {
  const auto d = static_cast<std::uint64_t>(in.alg->turns().diameter_bound());
  const auto rep = unison::verify_post_stabilization(*in.engine, *in.alg, d + 2);
  report.check("post_stabilization_safety", rep.safety_ok);
  report.check("post_stabilization_outputs", rep.outputs_ok);
  report.check("post_stabilization_single_ticks", rep.ticks_plus_one);
  report.check("post_stabilization_liveness", rep.liveness_ok);
  report.check("post_stabilization_window_d_plus_2", rep.rounds_observed >= d + 2);
}

/// Per-layer probes on the stabilized engine (traced run only).
void probe(Instance& in, const Options& o, Report& report, double neighbor_gap) {
  core::Engine& e = *in.engine;
  const graph::Graph& g = *in.graph;
  const core::NodeId n = g.num_nodes();
  util::Rng rng = util::Rng::stream(o.seed, 3);

  report.set("graph.avg_neighbor_distance", neighbor_gap);
  report.set("graph.bytes_per_edge", static_cast<double>(g.dynamic_memory_usage()) /
                                         static_cast<double>(g.num_edges()));
  report.set("engine.bytes_per_node",
             static_cast<double>(e.dynamic_memory_usage()) / n);
  report.set("engine.shard_count", e.shard_count());
  report.set("engine.field_active", e.signal_field_active() ? 1.0 : 0.0);
  report.set("automaton.delta_ns", probe_delta_ns(e, o.seed));

  // One fault burst at scale: the cost of the calls, not the recovery.
  constexpr int kInjections = 8;
  const auto t0 = Clock::now();
  for (int i = 0; i < kInjections; ++i) {
    e.inject_state(static_cast<core::NodeId>(rng.below(n)),
                   static_cast<core::StateId>(rng.below(in.alg->state_count())));
  }
  report.set("faults.inject_us", seconds_since(t0) * 1e6 / kInjections);
  std::pair<graph::NodeId, graph::NodeId> edge;
  if (random_edge(g, rng, edge)) {
    graph::TopologyDelta fail;
    fail.remove.push_back(edge);
    const auto t1 = Clock::now();
    const auto effective = e.apply_topology_delta(fail);
    report.set("faults.churn_us", seconds_since(t1) * 1e6);
    e.apply_topology_delta(effective.inverse());
  }

  const auto t2 = Clock::now();
  const auto bytes = core::snapshot::save(e);
  const std::string path = o.tmp_dir + "/stabilize.snap";
  core::snapshot::write_file(bytes, path);
  const double save_s = seconds_since(t2);
  std::filesystem::remove(path);
  report.set("snapshot.save_ms", save_s * 1e3);
  report.set("snapshot.bytes", static_cast<double>(bytes.size()));
  report.set("snapshot.mb_per_s", static_cast<double>(bytes.size()) / 1e6 / save_s);
}

}  // namespace

void run_stabilize(const Options& o, Report& report) {
  const core::NodeId n = o.small ? 20'000 : 1'000'000;

  std::vector<double> setups;
  Instance in;
  while (more_setups(setups)) {
    in.reset();
    in = setup(n, o.seed, o.cpus);
    setups.push_back(in.total_s);
  }
  const int d = in.alg->turns().diameter_bound();
  const double k = static_cast<double>(in.alg->turns().k());
  const auto budget = static_cast<std::uint64_t>(60.0 * k * k * k) + 400;
  report.note("nodes", n, "count");
  report.note("edges", static_cast<double>(in.graph->num_edges()), "count");
  report.note("diameter_bound_D", d, "count");
  report.note("state_count", in.alg->state_count(), "count");
  report.note("threads", o.cpus, "count");

  // Untraced pass: whole stabilizations while the time budget lasts. The
  // operation the end-to-end metrics describe is one round (a sharded
  // synchronous step over 1M nodes plus its legitimacy check): the round
  // count is a deterministic function of the seed, so the time per round is
  // what the engine changes. Its mean over ~180 rounds stays steady across
  // seeds, where neither the whole stabilization time nor the median round
  // does: a round's cost moves with the phase of the trajectory (~120 ms
  // early on, ~50 ms in the last rounds), and the median lands on whichever
  // phase is longest.
  Tracer off(false);
  std::vector<double> op_ms;
  std::vector<double> round_ms;
  std::uint64_t rounds = 0;
  const auto t_run = Clock::now();
  for (;;) {
    const OpResult r = stabilize(in, budget, off);
    report.attempt(r.stabilized);
    report.check("stabilized", r.stabilized);
    report.check("rounds_within_60k3_plus_400", r.rounds <= budget);
    if (rounds != 0) report.check("rounds_repeat_for_seed", r.rounds == rounds);
    rounds = r.rounds;
    op_ms.push_back(r.seconds * 1e3);
    round_ms.insert(round_ms.end(), r.round_ms.begin(), r.round_ms.end());
    verify(in, report);
    // Another stabilization only if it fits in the time budget.
    if (seconds_since(t_run) + r.seconds * 1.2 >= o.seconds) break;
    in.reset();
    in = setup(n, o.seed, o.cpus);
    setups.push_back(in.total_s);
  }
  report.set("setup_s", quantile(setups, 0.5));
  report.set("mean_ms", mean(round_ms));
  report.set("tail_ms", quantile(round_ms, 0.95));
  report.note("stabilize_s", quantile(op_ms, 0.5) * 1e-3, "s");
  report.note("rounds_timed", static_cast<double>(round_ms.size()), "count");
  report.note("stabilize_rounds", static_cast<double>(rounds), "rounds");
  report.note("round_budget_60k3_400", static_cast<double>(budget), "rounds");

  if (o.trace) {
    in.reset();
    in = setup(n, o.seed, o.cpus);
    report.set("graph.build_s", in.build_s);
    report.set("graph.reorder_s", in.reorder_s);
    report.set("engine.construct_s", in.construct_s);
    const double neighbor_gap = graph::average_neighbor_distance(*in.graph);

    core::Engine& e = *in.engine;
    const std::uint64_t barrier0 = e.barrier_wait_ns();
    const std::uint64_t apply0 = e.apply_phase_ns();
    Tracer on(true);
    const OpResult r = stabilize(in, budget, on);
    report.attempt(r.stabilized);
    report.check("rounds_repeat_for_seed", r.rounds == rounds);
    const double barrier_s = static_cast<double>(e.barrier_wait_ns() - barrier0) * 1e-9;
    const double apply_s = static_cast<double>(e.apply_phase_ns() - apply0) * 1e-9;
    const double activations = static_cast<double>(r.rounds) * n;
    verify(in, report);
    probe(in, o, report, neighbor_gap);

    const double step_s = on.total_seconds("engine.step");
    const double check_s = on.total_seconds("check.graph_good");
    report.set("engine.step_s", step_s);
    report.set("engine.activations", activations);
    report.set("engine.ns_per_activation", step_s * 1e9 / activations);
    report.set("runtime.barrier_wait_s", barrier_s);
    report.set("runtime.apply_phase_s", apply_s);
    report.set("automaton.rounds_per_op", static_cast<double>(r.rounds));
    report.set("check.s", check_s);
    report.set("check.ns_per_edge",
               check_s * 1e9 / (static_cast<double>(r.rounds) *
                                static_cast<double>(in.graph->num_edges())));
    // The synchronous daemon never draws: the kernel skips activations().
    report.set("sched.draw_ns", 0.0);

    Carver carved{on.op_self_seconds()};
    carved.carve(Layer::kRuntime, barrier_s + apply_s);
    carved.carve(Layer::kAutomaton,
                 report.get("automaton.delta_ns") * 1e-9 * activations /
                     std::max(1u, e.shard_count()));
    const double closure = report_self_times(report, carved, on.op_seconds());
    report.check("self_times_sum_to_stabilize_s_within_10pct",
                 closure >= 0.9 && closure <= 1.1);
    report.set("trace.overhead_ms_per_op", mean(r.round_ms) - mean(round_ms));
    report.set("trace.overhead_pct", (mean(r.round_ms) / mean(round_ms) - 1.0) * 100.0);
    report.set("trace.spans", static_cast<double>(on.spans().size()));
    if (!o.trace_out.empty()) report.check("span_file_written", on.write(o.trace_out, o.workload));
  }
  report.set("peak_rss_mb", peak_rss_mb());
}

}  // namespace bench
