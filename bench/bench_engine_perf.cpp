// E12 — engine throughput harness (supporting bench, not a paper artifact).
//
// Measures simulator throughput (steps/sec and node-activations/sec) for the
// main automata under the synchronous and asynchronous schedulers, in two
// modes:
//   * fast   — core::Engine: SignalView scratch + step_fast (+
//              CompiledAutomaton table kernel for deterministic |Q| <= 64
//              automata)
//   * legacy — the reference interpreter the tests judge the engine by
//              (tests/support/reference_engine.hpp): per-activation
//              Signal::from_states + virtual Automaton::step
//
// Writes BENCH_engine.json (machine-readable, schema below), which
// scripts/bench_gate.py checks against the rules in bench/gates.txt, and
// prints a table with the per-cell fast/legacy speedup. Trajectory equality
// of the modes — including the sharded multi-threaded kernel — is asserted
// here on a small instance (the full differential matrix lives in
// tests/test_fastpath_differential.cpp and tests/test_parallel_engine.cpp).
//
// The thread sweep re-times every workload at each thread count in --threads,
// emitting per-thread-count throughput and scaling-vs-serial into the
// "thread_sweep" JSON array — under the synchronous scheduler (the sharded
// double-buffered kernel) and under every asynchronous daemon with large
// activation sets (laggard, random-subset, wave: the sparse-activation
// sharded kernel, which fans phase 1 of any |A_t| above the engine's sparse
// threshold out over the worker pool). Each sweep row also carries
// barrier_frac, the share of its wall clock the calling thread spent idle at
// the shard pool's join (omitted when the row took no measurable time).
//
// Every timed cell is run --repeats times and the best throughput is kept —
// run-to-run noise only ever slows a run down, so best-of-N is the stable
// estimator the regression gate needs.
//
// The single-activation-daemon table measures the signal-field layer
// (core/signal_field.hpp) in its target regime: every single-node daemon
// (uniform-single, rotating-single, permutation, burst) on a DENSE random
// graph (--single-act-edge-p, default avg degree ~200), each cell timed
// once with the field forced on (delta-maintained O(1) senses) and once
// forced off (the pre-signal-field serial path: an O(deg) neighborhood
// rescan per sense — the PR 3 baseline code path, measured in-run so the
// ratio is machine-independent). CI gates the per-cell field_over_rescan
// ratio.
//
// The churn table measures the dynamic-topology layer: the per-event cost of
// a single-edge link failure/repair handled by Engine::apply_topology_delta
// (graph patch + signal-field edge patch + lazy reshard marking, O(delta))
// versus the pre-delta-API pattern of rebuilding everything (fresh Graph
// from the edited edge list + fresh Engine with its O(n + m) field init —
// measured in-run, so the patch_over_rebuild ratio is machine-independent).
// CI gates the ratio.
//
// The service table drives --service-sessions concurrent sessions of mixed
// command traffic (steps, rounds, injections, topology deltas, queries)
// through one SimulationService worker pool and reports aggregate
// sessions/sec, commands/sec, and queue+execute command latency percentiles.
// CI gates the concurrency level.
//
// The memory table measures the scale pass: a --mem-nodes instance (default
// 1M, average degree ~8) is streamed through the two-pass GraphBuilder and
// loaded into a compact-configuration engine, and the recursive
// dynamic_memory_usage() accounting (util/memusage.hpp) is reported as
// bytes-per-node / bytes-per-edge; CI gates bytes-per-node. The
// build_speedup column re-measures, at --mem-ref-nodes (default 30k), the
// streaming builder against the pre-streaming pattern (O(n^2) per-pair
// Bernoulli sweep into an intermediate edge vector, kept bench-local below)
// — both sides in-run, so the ratio is machine-independent like the churn
// and restore ratios.
// --mem-nodes=0 skips the table; --mem-ref-nodes=0 skips just the speedup
// reference (the CI smoke run, where the O(n^2) side would dominate the
// budget).
//
// The locality table measures the memory-locality pass (graph/reorder.hpp):
// a --locality-nodes ring of 4-cliques (a sparse graph whose topology HAS
// locality — low degree so cache misses cannot hide behind memory-level
// parallelism) is scrambled by a random relabelling — the adversarial layout
// where every neighborhood gather strides the whole configuration buffer —
// and AlgAU under the
// synchronous scheduler is timed over that layout versus over its BFS
// reorder_graph() relabelling. Both runs walk relabellings of the same
// trajectory (same user-id initial configuration, same seeds), so the
// reorder_on_over_off ratio isolates exactly what the locality pass buys the
// gather kernels; the per-cell gather cost is also reported as
// ns-per-half-edge-scanned. CI gates the ratio. --locality-nodes=0 skips
// the table.
//
// Usage: bench_engine_perf [--nodes=10000] [--edge-p=0.0008]
//                          [--sync-steps=100] [--single-steps=200000]
//                          [--single-act-steps=200000]
//                          [--single-act-edge-p=0.02]
//                          [--churn-events=64] [--churn-rebuild-events=12]
//                          [--service-sessions=1000] [--service-workers=0]
//                          [--mem-nodes=1000000] [--mem-ref-nodes=30000]
//                          [--locality-nodes=1000000] [--locality-steps=60]
//                          [--threads=1,2,4,8] [--repeats=3]
//                          [--json=BENCH_engine.json] [--seed=7]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "graph/reorder.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "service/service.hpp"
#include "sync/simple_sync_algs.hpp"
#include "unison/alg_au.hpp"
#include "unison/baselines.hpp"
#include "util/cli.hpp"
#include "util/json.hpp"
// Test-side code, not part of libssau: the legacy cells time it.
#include "../tests/support/reference_engine.hpp"

using namespace ssau;

namespace {

struct Workload {
  std::string name;
  const core::Automaton* alg;
  core::Configuration initial;
};

struct Measurement {
  std::string algorithm;
  std::string scheduler;
  std::string mode;    // "fast" | "legacy"
  // "signal" | "table" | "mask" | "set" | "wide-set" | "view"
  std::string kernel;
  unsigned threads = 1;
  std::uint64_t steps = 0;
  std::uint64_t activations = 0;
  double seconds = 0.0;
  // Runtime-residency counters: time the stepping thread spent blocked at
  // the shard pool's join after every shard was claimed, and time spent in
  // phase-2 apply/merge work. Both are cumulative over the timed run.
  std::uint64_t barrier_wait_ns = 0;
  std::uint64_t apply_phase_ns = 0;

  [[nodiscard]] double steps_per_sec() const {
    return seconds > 0 ? static_cast<double>(steps) / seconds : 0.0;
  }
  [[nodiscard]] double activations_per_sec() const {
    return seconds > 0 ? static_cast<double>(activations) / seconds : 0.0;
  }
};

Measurement run_one(const Workload& w, const graph::Graph& g,
                    const std::string& sched_name, std::uint64_t steps,
                    bool fast, std::uint64_t seed, unsigned threads = 1,
                    core::SignalFieldMode field = core::SignalFieldMode::kAuto) {
  auto sched = sched::make_scheduler(sched_name, g);
  Measurement m;
  m.algorithm = w.name;
  m.scheduler = sched_name;
  m.mode = fast ? "fast" : "legacy";
  m.steps = steps;
  const auto time_steps = [&](auto& engine) {
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t s = 0; s < steps; ++s) engine.step();
    const auto t1 = std::chrono::steady_clock::now();
    m.seconds = std::chrono::duration<double>(t1 - t0).count();
    for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
      m.activations += engine.activation_count(v);
    }
  };
  if (!fast) {
    // The reference interpreter is always serial.
    oracle::ReferenceEngine engine(g, *w.alg, *sched, w.initial, seed);
    time_steps(engine);
    m.kernel = "signal";
    return m;
  }
  core::Engine engine(g, *w.alg, *sched, w.initial, seed,
                      core::EngineOptions{.thread_count = threads,
                                          .signal_field = field});
  time_steps(engine);
  // The δ kernel the store routes to (see the engine header): the compiled
  // table, the native mask, the 256-bit set of a byte store, the wide set
  // of a native step_wide, or the sorted view.
  const core::StateId states = w.alg->state_count();
  if (engine.compiled() != nullptr) {
    m.kernel = "table";
  } else if (w.alg->native_mask_kernel()) {
    m.kernel = "mask";
  } else if (states > core::SignalView::kMaskBits &&
             states <= core::StateSet::kBits) {
    m.kernel = "set";
  } else if (states > core::StateSet::kBits &&
             states <= core::WideStateSet::kBits &&
             w.alg->native_wide_kernel()) {
    m.kernel = "wide-set";
  } else {
    m.kernel = "view";
  }
  // Effective shard count, not the request: --threads=0 resolves to hardware
  // concurrency, and non-shardable cells run serial — the JSON must record
  // what actually executed (also keeps the sweep's threads==1 serial
  // reference well-defined).
  m.threads = engine.shard_count();
  m.barrier_wait_ns = engine.barrier_wait_ns();
  m.apply_phase_ns = engine.apply_phase_ns();
  return m;
}

/// Cheap smoke check that all engine paths walk the same trajectory (the
/// real differential matrix is a test, not a bench). "sharded" covers the
/// synchronous double-buffered kernel under full-activation schedules and
/// the sparse-activation kernel under the large-set daemons (the tiny
/// threshold forces it to engage on the 64-node smoke instance).
void assert_modes_agree(const Workload& w, const graph::Graph& g,
                        const std::string& sched_name, std::uint64_t steps,
                        std::uint64_t seed) {
  auto s1 = sched::make_scheduler(sched_name, g);
  auto s2 = sched::make_scheduler(sched_name, g);
  auto s3 = sched::make_scheduler(sched_name, g);
  auto s4 = sched::make_scheduler(sched_name, g);
  core::Engine fast(g, *w.alg, *s1, w.initial, seed);
  oracle::ReferenceEngine legacy(g, *w.alg, *s2, w.initial, seed);
  core::Engine sharded(g, *w.alg, *s3, w.initial, seed,
                       core::EngineOptions{.thread_count = 4,
                                           .sparse_activation_threshold = 2});
  core::Engine field(g, *w.alg, *s4, w.initial, seed,
                     core::EngineOptions{
                         .signal_field = core::SignalFieldMode::kOn});
  for (std::uint64_t s = 0; s < steps; ++s) {
    fast.step();
    legacy.step();
    sharded.step();
    field.step();
  }
  if (fast.config() != legacy.config() ||
      fast.rounds_completed() != legacy.rounds_completed() ||
      sharded.config() != legacy.config() ||
      sharded.rounds_completed() != legacy.rounds_completed() ||
      field.config() != legacy.config() ||
      field.rounds_completed() != legacy.rounds_completed()) {
    std::cerr << "FATAL: fast/legacy/sharded/field trajectory divergence ("
              << w.name << ", " << sched_name << ")\n";
    std::exit(1);
  }
}

/// Best-of-N wrapper around run_one: keeps the repeat with the highest
/// throughput (noise is one-sided — interference only slows runs down).
Measurement run_best(int repeats, const Workload& w, const graph::Graph& g,
                     const std::string& sched_name, std::uint64_t steps,
                     bool fast, std::uint64_t seed, unsigned threads = 1,
                     core::SignalFieldMode field = core::SignalFieldMode::kAuto) {
  Measurement best;
  for (int r = 0; r < repeats; ++r) {
    Measurement m = run_one(w, g, sched_name, steps, fast, seed, threads, field);
    if (r == 0 || m.activations_per_sec() > best.activations_per_sec()) {
      best = m;
    }
  }
  return best;
}

/// Parses a comma-separated thread-count list ("1,2,4,8"); exits with a
/// usage message on malformed tokens.
std::vector<unsigned> parse_thread_list(const std::string& csv) {
  std::vector<unsigned> threads;
  std::size_t pos = 0;
  while (pos < csv.size()) {
    const std::size_t comma = csv.find(',', pos);
    const std::string tok =
        csv.substr(pos, comma == std::string::npos ? comma : comma - pos);
    if (!tok.empty()) {
      try {
        std::size_t consumed = 0;
        const unsigned long value = std::stoul(tok, &consumed);
        if (consumed != tok.size() || value > 1024) throw std::out_of_range(tok);
        threads.push_back(static_cast<unsigned>(value));
      } catch (const std::exception&) {
        std::cerr << "bad --threads value '" << tok
                  << "' (expected comma-separated counts in [0, 1024])\n";
        std::exit(2);
      }
    }
    if (comma == std::string::npos) break;
    pos = comma + 1;
  }
  if (threads.empty()) threads.push_back(1);
  return threads;
}

/// The pre-streaming random_connected construction pattern, kept bench-local
/// as the baseline for the memory table's build_speedup column: a random
/// spanning tree plus an O(n^2) per-pair Bernoulli sweep, all collected into
/// an intermediate edge vector that the edge-list Graph constructor then
/// sorts and dedups into the CSR. Semantically it draws the same family as
/// graph::random_connected — only the construction cost differs (O(n^2)
/// coin flips and a materialized EdgeList versus the streaming two-pass
/// skip-sampling build).
graph::Graph random_connected_edgelist(graph::NodeId n, double p,
                                       util::Rng& rng) {
  std::vector<graph::NodeId> perm(n);
  std::iota(perm.begin(), perm.end(), graph::NodeId{0});
  for (graph::NodeId i = n; i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  std::vector<std::pair<graph::NodeId, graph::NodeId>> edges;
  for (graph::NodeId i = 1; i < n; ++i) {
    edges.emplace_back(perm[rng.below(i)], perm[i]);
  }
  for (graph::NodeId u = 0; u + 1 < n; ++u) {
    for (graph::NodeId v = u + 1; v < n; ++v) {
      if (rng.bernoulli(p)) edges.emplace_back(u, v);
    }
  }
  return graph::Graph(n, edges);
}

}  // namespace

int main(int argc, char** argv) {
  util::Cli cli(argc, argv);
  const auto n = cli.get_count<core::NodeId>("nodes", 10000);
  const double edge_p = cli.get_double("edge-p", 0.0008);
  const auto sync_steps = cli.get_count<std::uint64_t>("sync-steps", 100);
  const auto single_steps =
      cli.get_count<std::uint64_t>("single-steps", 200000);
  const auto single_act_steps =
      cli.get_count<std::uint64_t>("single-act-steps", 200000);
  const double single_act_edge_p = cli.get_double("single-act-edge-p", 0.02);
  const int churn_events = cli.get_count<int>("churn-events", 64);
  const int churn_rebuild_events =
      cli.get_count<int>("churn-rebuild-events", 12);
  const auto snapshot_steps =
      cli.get_count<std::uint64_t>("snapshot-steps", 1000000);
  const auto service_sessions =
      cli.get_count<std::uint64_t>("service-sessions", 1000);
  const auto service_workers = cli.get_count<unsigned>("service-workers", 0);
  const auto mem_nodes = cli.get_count<graph::NodeId>("mem-nodes", 1000000);
  const auto mem_ref_nodes =
      cli.get_count<graph::NodeId>("mem-ref-nodes", 30000);
  const auto locality_nodes =
      cli.get_count<graph::NodeId>("locality-nodes", 1000000);
  const auto locality_steps =
      cli.get_count<std::uint64_t>("locality-steps", 60);
  const auto seed = cli.get_count<std::uint64_t>("seed", 7);
  const std::string json_path = cli.get("json", "BENCH_engine.json");
  const std::vector<unsigned> thread_list =
      parse_thread_list(cli.get("threads", "1,2,4,8"));
  const int repeats = std::max(1, cli.get_count<int>("repeats", 3));
  cli.reject_unread();

  util::Rng rng(seed);
  const graph::Graph g = graph::random_connected(n, edge_p, rng);

  const unison::AlgAu au(3);  // |Q| = 42: native AlgAu bitmask kernel
  const unison::ResetUnison reset(1, 6);  // |Q| = 9: dense table kernel
  const sync::MinPropagation minprop(32);  // |Q| = 32: lazy memo table kernel
  const mis::AlgMis mis({.diameter_bound = 2});   // randomized, |Q| = 94
  const le::AlgLe le({.diameter_bound = 2});      // randomized, |Q| = 131
  // Wide stores on the native wide-set kernel: |Q| = 310 and 659.
  const mis::AlgMis mis14({.diameter_bound = 14});
  const le::AlgLe le14({.diameter_bound = 14});

  const std::vector<Workload> workloads = {
      {"alg-au", &au, unison::au_adversarial_configuration("random", au, g, rng)},
      {"reset-unison", &reset,
       core::random_configuration(reset, g.num_nodes(), rng)},
      {"min-prop-32", &minprop,
       core::random_configuration(minprop, g.num_nodes(), rng)},
      {"alg-mis", &mis,
       mis::mis_adversarial_configuration("random", mis, g, rng)},
      {"alg-le", &le, le_adversarial_configuration("random", le, g, rng)},
      {"alg-mis:14", &mis14,
       mis::mis_adversarial_configuration("random", mis14, g, rng)},
      {"alg-le:14", &le14,
       le_adversarial_configuration("random", le14, g, rng)},
  };
  const std::vector<std::pair<std::string, std::uint64_t>> schedulers = {
      {"synchronous", sync_steps},
      {"uniform-single", single_steps},
  };

  // Asynchronous daemons with large activation sets: these route into the
  // sparse-activation sharded kernel and get their own thread sweep.
  const std::vector<std::string> sparse_schedulers = {"laggard",
                                                      "random-subset", "wave"};

  // Differential smoke check on a small instance before timing — including
  // the sparse-kernel daemons.
  {
    util::Rng small_rng(seed + 1);
    const graph::Graph sg = graph::random_connected(64, 0.05, small_rng);
    std::vector<std::string> smoke_scheds;
    for (const auto& [sched_name, _] : schedulers) {
      smoke_scheds.push_back(sched_name);
    }
    smoke_scheds.insert(smoke_scheds.end(), sparse_schedulers.begin(),
                        sparse_schedulers.end());
    for (const Workload& w : workloads) {
      Workload sw{w.name, w.alg, {}};
      sw.initial = core::random_configuration(*w.alg, sg.num_nodes(), small_rng);
      for (const std::string& sched_name : smoke_scheds) {
        assert_modes_agree(sw, sg, sched_name, 512, seed + 2);
      }
    }
  }

  std::vector<Measurement> results;
  for (const Workload& w : workloads) {
    for (const auto& [sched_name, steps] : schedulers) {
      for (const bool fast : {false, true}) {
        results.push_back(
            run_best(repeats, w, g, sched_name, steps, fast, seed + 3));
      }
    }
  }

  // --- thread sweep (sharded kernels) ----------------------------------------
  // A 1-thread-only sweep would just duplicate the serial fast cells above,
  // so --threads=1 disables the sweep entirely (what the CI regression gate
  // passes — it never compares sweep rows). The synchronous rows exercise
  // the double-buffered kernel; the laggard/random-subset/wave rows exercise
  // the sparse-activation kernel (their large A_t clears the engine's
  // default sparse threshold on the 10k-node instance).
  std::vector<Measurement> sweep;
  const bool sweep_enabled =
      thread_list.size() > 1 || thread_list.front() != 1;
  if (sweep_enabled) {
    for (const Workload& w : workloads) {
      for (const unsigned threads : thread_list) {
        sweep.push_back(run_best(repeats, w, g, "synchronous", sync_steps,
                                 true, seed + 3, threads));
      }
      for (const std::string& sched_name : sparse_schedulers) {
        for (const unsigned threads : thread_list) {
          sweep.push_back(run_best(repeats, w, g, sched_name, sync_steps,
                                   true, seed + 3, threads));
        }
      }
    }
  }

  // --- single-activation daemon table (signal field vs rescan) ---------------
  // The serial-daemon regime on a dense graph: one node per step, sensed via
  // the delta-maintained signal field (forced on) vs the neighborhood rescan
  // (forced off — the PR 3 baseline serial path, re-measured in this run so
  // the ratio is machine-independent). Both runs are bit-identical in
  // trajectory; only the sensing machinery differs.
  struct SingleActPoint {
    std::string algorithm;
    std::string scheduler;
    double field_rate = 0.0;
    double rescan_rate = 0.0;
    double speedup = 0.0;  // field over rescan
  };
  std::vector<SingleActPoint> single_act;
  std::size_t single_act_edges = 0;
  // --single-act-steps=0 skips the table entirely (the CI scaling run
  // measures a 50k-node sparse instance where generating a dense companion
  // graph would dwarf the benchmark itself).
  if (single_act_steps > 0) {
    util::Rng dense_rng(seed + 17);
    const graph::Graph dg =
        graph::random_connected(n, single_act_edge_p, dense_rng);
    single_act_edges = dg.num_edges();
    const std::vector<Workload> dense_workloads = {
        {"alg-au", &au,
         unison::au_adversarial_configuration("random", au, dg, dense_rng)},
        {"reset-unison", &reset,
         core::random_configuration(reset, dg.num_nodes(), dense_rng)},
        {"min-prop-32", &minprop,
         core::random_configuration(minprop, dg.num_nodes(), dense_rng)},
        {"alg-mis", &mis,
         mis::mis_adversarial_configuration("random", mis, dg, dense_rng)},
        {"alg-le", &le,
         le_adversarial_configuration("random", le, dg, dense_rng)},
    };
    const std::vector<std::string> single_daemons = {
        "uniform-single", "rotating-single", "permutation", "burst"};
    for (const Workload& w : dense_workloads) {
      for (const std::string& sched_name : single_daemons) {
        const Measurement field_m =
            run_best(repeats, w, dg, sched_name, single_act_steps, true,
                     seed + 5, 1, core::SignalFieldMode::kOn);
        const Measurement rescan_m =
            run_best(repeats, w, dg, sched_name, single_act_steps, true,
                     seed + 5, 1, core::SignalFieldMode::kOff);
        SingleActPoint p;
        p.algorithm = w.name;
        p.scheduler = sched_name;
        p.field_rate = field_m.activations_per_sec();
        p.rescan_rate = rescan_m.activations_per_sec();
        p.speedup = p.rescan_rate > 0 ? p.field_rate / p.rescan_rate : 0.0;
        single_act.push_back(p);
      }
    }
  }

  // --- churn table (topology delta vs full rebuild) --------------------------
  // Single-edge link failure/repair events on the main 10k-node instance,
  // field forced on so every event pays the full derived-state upkeep. The
  // patch engine applies each event through Engine::apply_topology_delta
  // (O(delta)); the rebuild side replays the pre-delta-API pattern — edit an
  // edge list, construct a fresh Graph, scheduler, and Engine (O(n + m) CSR
  // + signal-field init), carrying the configuration over. Both sides toggle
  // the same edge sequence and run the same untimed settle steps between
  // events; only the event cost is timed. --churn-events=0 skips the table.
  struct ChurnPoint {
    std::string algorithm;
    std::string scheduler;
    double patch_events_per_sec = 0.0;
    double rebuild_events_per_sec = 0.0;
    double patch_over_rebuild = 0.0;
  };
  std::vector<ChurnPoint> churn;
  if (churn_events > 0) {
    constexpr std::uint64_t kChurnSettleSteps = 32;
    const std::vector<const Workload*> churn_workloads = {&workloads[0],
                                                          &workloads[3]};
    for (const Workload* w : churn_workloads) {
      // The toggled edge sequence: random picks from the base edge set, each
      // event removing its pick if present and re-adding it otherwise.
      util::Rng pick_rng(seed + 23);
      std::vector<std::pair<graph::NodeId, graph::NodeId>> picks;
      {
        const auto base_edges = g.edges();
        for (int e = 0; e < std::max(churn_events, churn_rebuild_events); ++e) {
          picks.push_back(base_edges[pick_rng.below(
              static_cast<std::uint32_t>(base_edges.size()))]);
        }
      }
      const core::EngineOptions churn_opts{
          .signal_field = core::SignalFieldMode::kOn};

      // Patch side: one engine, one trajectory, O(delta) per event.
      double patch_seconds = 0.0;
      {
        graph::Graph pg = g;
        auto sched = sched::make_scheduler("uniform-single", pg);
        core::Engine engine(pg, *w->alg, *sched, w->initial, seed + 29,
                            churn_opts);
        for (int e = 0; e < churn_events; ++e) {
          const auto& pick = picks[static_cast<std::size_t>(e) % picks.size()];
          graph::TopologyDelta delta;
          (pg.has_edge(pick.first, pick.second) ? delta.remove : delta.add)
              .push_back(pick);
          const auto t0 = std::chrono::steady_clock::now();
          engine.apply_topology_delta(delta);
          const auto t1 = std::chrono::steady_clock::now();
          patch_seconds += std::chrono::duration<double>(t1 - t0).count();
          for (std::uint64_t s = 0; s < kChurnSettleSteps; ++s) engine.step();
        }
      }

      // Rebuild side: the old pattern — every event throws the CSR, the
      // field, and the engine away.
      double rebuild_seconds = 0.0;
      {
        std::vector<std::pair<graph::NodeId, graph::NodeId>> edge_list(
            g.edges().begin(), g.edges().end());
        auto graph_ptr = std::make_unique<graph::Graph>(g);
        auto sched = sched::make_scheduler("uniform-single", *graph_ptr);
        auto engine_ptr = std::make_unique<core::Engine>(
            *graph_ptr, *w->alg, *sched, w->initial, seed + 29, churn_opts);
        for (int e = 0; e < churn_rebuild_events; ++e) {
          const auto& pick = picks[static_cast<std::size_t>(e) % picks.size()];
          core::Configuration carried = engine_ptr->config();
          const auto t0 = std::chrono::steady_clock::now();
          const auto it =
              std::find(edge_list.begin(), edge_list.end(), pick);
          if (it != edge_list.end()) {
            edge_list.erase(it);
          } else {
            edge_list.push_back(pick);
          }
          engine_ptr.reset();
          graph_ptr = std::make_unique<graph::Graph>(
              g.num_nodes(), edge_list);
          sched = sched::make_scheduler("uniform-single", *graph_ptr);
          engine_ptr = std::make_unique<core::Engine>(*graph_ptr, *w->alg,
                                                      *sched,
                                                      std::move(carried),
                                                      seed + 29, churn_opts);
          const auto t1 = std::chrono::steady_clock::now();
          rebuild_seconds += std::chrono::duration<double>(t1 - t0).count();
          for (std::uint64_t s = 0; s < kChurnSettleSteps; ++s) {
            engine_ptr->step();
          }
        }
      }

      ChurnPoint p;
      p.algorithm = w->name;
      p.scheduler = "uniform-single";
      p.patch_events_per_sec =
          patch_seconds > 0 ? churn_events / patch_seconds : 0.0;
      p.rebuild_events_per_sec =
          rebuild_seconds > 0 ? churn_rebuild_events / rebuild_seconds : 0.0;
      p.patch_over_rebuild = p.rebuild_events_per_sec > 0
                                 ? p.patch_events_per_sec /
                                       p.rebuild_events_per_sec
                                 : 0.0;
      churn.push_back(p);
    }
  }

  // --- snapshot table (persistence throughput vs recompute) ------------------
  // Serializes a warmed engine (core/snapshot.hpp) and times the full
  // persistence round trip: save() to bytes, restore via restore_graph +
  // fresh scheduler + restore(), and — as the baseline a checkpoint
  // replaces — re-running the same number of steps from the initial
  // configuration. restore_over_rerun > 1 means resuming from a checkpoint
  // beats recomputing the trajectory. --snapshot-steps=0 skips the table.
  struct SnapshotPoint {
    std::string algorithm;
    std::string scheduler;
    std::uint64_t snapshot_bytes = 0;
    double save_mb_per_sec = 0.0;
    double restore_mb_per_sec = 0.0;
    double restore_over_rerun = 0.0;
  };
  std::vector<SnapshotPoint> snapshot_points;
  if (snapshot_steps > 0) {
    const std::vector<const Workload*> snap_workloads = {&workloads[0],
                                                         &workloads[3]};
    for (const Workload* w : snap_workloads) {
      graph::Graph sg = g;
      auto sched = sched::make_scheduler("uniform-single", sg);
      core::Engine engine(sg, *w->alg, *sched, w->initial, seed + 31);
      for (std::uint64_t s = 0; s < snapshot_steps; ++s) engine.step();

      std::vector<std::uint8_t> bytes;
      double save_seconds = std::numeric_limits<double>::infinity();
      for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        bytes = core::snapshot::save(engine);
        const auto t1 = std::chrono::steady_clock::now();
        save_seconds = std::min(
            save_seconds, std::chrono::duration<double>(t1 - t0).count());
      }

      double restore_seconds = std::numeric_limits<double>::infinity();
      for (int r = 0; r < repeats; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        graph::Graph rg = core::snapshot::restore_graph(bytes);
        auto rsched = sched::make_scheduler("uniform-single", rg);
        const auto restored =
            core::snapshot::restore(bytes, rg, *w->alg, *rsched);
        const auto t1 = std::chrono::steady_clock::now();
        restore_seconds = std::min(
            restore_seconds, std::chrono::duration<double>(t1 - t0).count());
      }

      double rerun_seconds;
      {
        graph::Graph fg = g;
        auto fsched = sched::make_scheduler("uniform-single", fg);
        const auto t0 = std::chrono::steady_clock::now();
        core::Engine fresh(fg, *w->alg, *fsched, w->initial, seed + 31);
        for (std::uint64_t s = 0; s < snapshot_steps; ++s) fresh.step();
        const auto t1 = std::chrono::steady_clock::now();
        rerun_seconds = std::chrono::duration<double>(t1 - t0).count();
      }

      const double mb = static_cast<double>(bytes.size()) / 1e6;
      snapshot_points.push_back(
          {w->name, "uniform-single", bytes.size(),
           save_seconds > 0 ? mb / save_seconds : 0.0,
           restore_seconds > 0 ? mb / restore_seconds : 0.0,
           restore_seconds > 0 ? rerun_seconds / restore_seconds : 0.0});
    }
  }

  // --- memory table (million-node footprint + streaming build speedup) -------
  // One large instance (--mem-nodes, average degree ~8) built through the
  // streaming two-pass path and loaded into a compact-configuration engine
  // under the synchronous scheduler. The recursive accounting numbers are
  // taken after a short warm-up so steady-state scratch (update slots,
  // pending bitmap) is materialized. The speedup reference runs at
  // --mem-ref-nodes, where the O(n^2) edge-list side is still feasible.
  struct MemoryPoint {
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    double build_seconds = 0.0;
    std::uint64_t ref_nodes = 0;
    double ref_stream_seconds = 0.0;
    double ref_edgelist_seconds = 0.0;
    double build_speedup = 0.0;  // edge-list reference over streaming
    std::uint64_t graph_bytes = 0;
    std::uint64_t engine_bytes = 0;
    std::uint64_t total_bytes = 0;
    double bytes_per_node = 0.0;
    double bytes_per_edge = 0.0;
  };
  std::vector<MemoryPoint> memory_points;
  if (mem_nodes > 0) {
    MemoryPoint mp;
    mp.nodes = mem_nodes;
    const double mem_p = 8.0 / static_cast<double>(mem_nodes);

    std::optional<graph::Graph> mg;
    double build_seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      util::Rng mem_rng(seed + 41);  // fresh stream: identical graph each rep
      const auto t0 = std::chrono::steady_clock::now();
      graph::Graph built = graph::random_connected(mem_nodes, mem_p, mem_rng);
      const auto t1 = std::chrono::steady_clock::now();
      build_seconds = std::min(
          build_seconds, std::chrono::duration<double>(t1 - t0).count());
      if (!mg) mg = std::move(built);
    }
    mp.build_seconds = build_seconds;
    mp.edges = mg->num_edges();

    auto msched = sched::make_scheduler("synchronous", *mg);
    util::Rng cfg_rng(seed + 43);
    core::Engine mengine(*mg, au, *msched,
                         core::random_configuration(au, mem_nodes, cfg_rng),
                         seed + 47);
    for (int s = 0; s < 10; ++s) mengine.step();
    mp.graph_bytes = mg->dynamic_memory_usage();
    mp.engine_bytes = mengine.dynamic_memory_usage();
    mp.total_bytes = mp.graph_bytes + mp.engine_bytes;
    mp.bytes_per_node =
        static_cast<double>(mp.total_bytes) / static_cast<double>(mp.nodes);
    mp.bytes_per_edge = mp.edges > 0 ? static_cast<double>(mp.graph_bytes) /
                                           static_cast<double>(mp.edges)
                                     : 0.0;

    if (mem_ref_nodes > 0) {
      mp.ref_nodes = mem_ref_nodes;
      const double ref_p = 8.0 / static_cast<double>(mem_ref_nodes);
      double stream_seconds = std::numeric_limits<double>::infinity();
      for (int r = 0; r < repeats; ++r) {
        util::Rng ref_rng(seed + 53);
        const auto t0 = std::chrono::steady_clock::now();
        const graph::Graph rg =
            graph::random_connected(mem_ref_nodes, ref_p, ref_rng);
        const auto t1 = std::chrono::steady_clock::now();
        stream_seconds = std::min(
            stream_seconds, std::chrono::duration<double>(t1 - t0).count());
        if (rg.num_nodes() != mem_ref_nodes) std::exit(1);  // keep rg live
      }
      // The O(n^2) side is timed once: it reads two orders of magnitude
      // above the gate at 30k nodes, and repeating it would dominate the
      // whole bench run.
      double edgelist_seconds;
      {
        util::Rng ref_rng(seed + 53);
        const auto t0 = std::chrono::steady_clock::now();
        const graph::Graph rg =
            random_connected_edgelist(mem_ref_nodes, ref_p, ref_rng);
        const auto t1 = std::chrono::steady_clock::now();
        edgelist_seconds = std::chrono::duration<double>(t1 - t0).count();
        if (rg.num_nodes() != mem_ref_nodes) std::exit(1);
      }
      mp.ref_stream_seconds = stream_seconds;
      mp.ref_edgelist_seconds = edgelist_seconds;
      mp.build_speedup =
          stream_seconds > 0 ? edgelist_seconds / stream_seconds : 0.0;
    }
    memory_points.push_back(mp);
  }

  // --- locality table (BFS reorder on vs off) --------------------------------
  // A ring of 4-cliques the size of --locality-nodes, scrambled by a
  // uniform random relabelling: a community-structured topology (every
  // neighborhood is one tight cluster) under the adversarial layout where
  // each gather strides the whole configuration buffer — the regime
  // graph::reorder_graph exists for. Low degree on purpose: with only ~3
  // gathers per node the core has no memory-level parallelism to hide the
  // scrambled layout's cache misses behind, so the layout penalty lands in
  // full (at clique 16+ the out-of-order window overlaps the misses and the
  // measured gap shrinks — the sparse regime is where reordering pays most).
  // The reorder-off engine runs over the scrambled layout, the reorder-on
  // engine over its BFS relabelling; both receive the same user-id initial
  // configuration, so the internal trajectories are relabellings of each
  // other and the ratio is pure memory-system effect. Timed with the AlgAU
  // native mask kernel under the synchronous scheduler — the gather-dominated
  // cell the reorder targets. The off/on cells are interleaved inside one
  // best-of-N loop (rather than best-of-N each, back to back) so both sample
  // the same interference windows and the *ratio* stays stable on noisy
  // shared machines. gather ns/half-edge normalizes each cell's wall time by
  // the bytes its phase 1 touches (2m neighbor reads + n own-state reads per
  // step), making the cost comparable across graph sizes.
  struct LocalityPoint {
    std::string algorithm;
    std::string scheduler;
    std::uint64_t nodes = 0;
    std::uint64_t edges = 0;
    double neighbor_distance_off = 0.0;  // avg |u - v| of the scrambled layout
    double neighbor_distance_on = 0.0;   // ... of the BFS relabelling
    double reorder_seconds = 0.0;        // one-time reorder_graph cost
    double off_rate = 0.0;               // activations/sec, scrambled layout
    double on_rate = 0.0;                // activations/sec, BFS layout
    double reorder_on_over_off = 0.0;
    double gather_ns_off = 0.0;          // ns per half-edge scanned
    double gather_ns_on = 0.0;
  };
  std::vector<LocalityPoint> locality_points;
  if (locality_nodes > 0 && locality_steps > 0) {
    constexpr graph::NodeId kCliqueSize = 4;
    const auto cliques =
        std::max<graph::NodeId>(3, locality_nodes / kCliqueSize);
    const graph::Graph base = graph::ring_of_cliques(cliques, kCliqueSize);
    const graph::NodeId ln = base.num_nodes();

    util::Rng scramble_rng(seed + 61);
    std::vector<graph::NodeId> scramble(ln);
    std::iota(scramble.begin(), scramble.end(), graph::NodeId{0});
    for (graph::NodeId i = ln; i > 1; --i) {
      std::swap(scramble[i - 1], scramble[scramble_rng.below(i)]);
    }
    const graph::Graph scrambled = graph::reorder_graph(base, scramble);

    std::optional<graph::Graph> bfs;
    double reorder_seconds = std::numeric_limits<double>::infinity();
    for (int r = 0; r < repeats; ++r) {
      const auto t0 = std::chrono::steady_clock::now();
      graph::Graph rg =
          graph::reorder_graph(scrambled, graph::ReorderPolicy::kBfs);
      const auto t1 = std::chrono::steady_clock::now();
      reorder_seconds = std::min(
          reorder_seconds, std::chrono::duration<double>(t1 - t0).count());
      if (!bfs) bfs = std::move(rg);
    }

    util::Rng lcfg_rng(seed + 67);
    const Workload lw{"alg-au", &au,
                      core::random_configuration(au, ln, lcfg_rng)};
    Measurement off, on;
    for (int r = 0; r < repeats; ++r) {
      const Measurement o = run_one(lw, scrambled, "synchronous",
                                    locality_steps, true, seed + 71);
      const Measurement b =
          run_one(lw, *bfs, "synchronous", locality_steps, true, seed + 71);
      if (r == 0 || o.activations_per_sec() > off.activations_per_sec()) {
        off = o;
      }
      if (r == 0 || b.activations_per_sec() > on.activations_per_sec()) {
        on = b;
      }
    }

    // Half-edges scanned per step: every node reads its own state plus one
    // byte per directed neighbor (2m gathers across the node range).
    const double scans_per_step =
        static_cast<double>(ln) +
        2.0 * static_cast<double>(scrambled.num_edges());
    const auto gather_ns = [&](const Measurement& m) {
      const double scans = scans_per_step * static_cast<double>(m.steps);
      return scans > 0 ? m.seconds * 1e9 / scans : 0.0;
    };

    LocalityPoint lp;
    lp.algorithm = lw.name;
    lp.scheduler = "synchronous";
    lp.nodes = ln;
    lp.edges = scrambled.num_edges();
    lp.neighbor_distance_off = graph::average_neighbor_distance(scrambled);
    lp.neighbor_distance_on = graph::average_neighbor_distance(*bfs);
    lp.reorder_seconds = reorder_seconds;
    lp.off_rate = off.activations_per_sec();
    lp.on_rate = on.activations_per_sec();
    lp.reorder_on_over_off = lp.off_rate > 0 ? lp.on_rate / lp.off_rate : 0.0;
    lp.gather_ns_off = gather_ns(off);
    lp.gather_ns_on = gather_ns(on);
    locality_points.push_back(lp);
  }

  // --- service table (multi-session mixed traffic) ---------------------------
  // Opens --service-sessions sessions over one SimulationService pool and
  // pushes a mixed 8-command script through each (steps, rounds, an
  // injection, topology churn on the dense half, queries with a trajectory
  // digest), interleaved round-robin so sessions genuinely contend for the
  // pool. Wall clock covers open + submit + drain; per-command latency is
  // queue wait + execution (submit to completion). --service-sessions=0
  // skips the table (the CI scaling run).
  struct ServicePoint {
    std::string traffic;  // "mixed" | "oversubscribed"
    std::uint64_t sessions = 0;
    unsigned workers = 0;
    unsigned engine_threads = 1;  // per-session engine shard count
    std::uint64_t commands = 0;
    double seconds = 0.0;
    double sessions_per_sec = 0.0;
    double commands_per_sec = 0.0;
    double p50_latency_us = 0.0;
    double p99_latency_us = 0.0;
  };
  std::vector<ServicePoint> service_points;
  if (service_sessions > 0) {
    service::ServiceOptions service_options;
    service_options.workers = service_workers;
    service::SimulationService svc(service_options);

    std::vector<std::vector<service::Command>> scripts;
    scripts.reserve(service_sessions);
    for (std::uint64_t i = 0; i < service_sessions; ++i) {
      const bool dense = (i % 2) == 0;
      std::vector<service::Command> script;
      script.push_back(service::cmd::step(30));
      script.push_back(service::cmd::inject_state(
          static_cast<core::NodeId>(i % 16), 0));
      if (dense) {
        // Always legal on a complete graph: drop one edge, heal it back.
        graph::TopologyDelta drop, heal;
        drop.remove = {{0, 1}};
        heal.add = {{0, 1}};
        script.push_back(service::cmd::topology_delta(std::move(drop)));
        script.push_back(service::cmd::step(10));
        script.push_back(service::cmd::topology_delta(std::move(heal)));
      } else {
        script.push_back(service::cmd::run_rounds(2));
        script.push_back(service::cmd::step(10));
        script.push_back(service::cmd::query_config());
      }
      script.push_back(service::cmd::query_stats());
      script.push_back(service::cmd::query_hash());
      scripts.push_back(std::move(script));
    }

    const auto t0 = std::chrono::steady_clock::now();
    std::vector<service::SimulationService::SessionId> ids;
    ids.reserve(service_sessions);
    for (std::uint64_t i = 0; i < service_sessions; ++i) {
      service::SessionSpec spec;
      spec.seed = seed + i;
      if ((i % 2) == 0) {
        spec.automaton = "alg-au:3";
        spec.scheduler = "uniform-single";
        spec.graph = "complete:24";
      } else {
        spec.automaton = "alg-mis:4";
        spec.scheduler = "random-subset";
        spec.subset_p = 0.3;
        spec.graph = "random:64:0.08";
      }
      ids.push_back(svc.open_session(spec));
    }
    std::size_t longest = 0;
    for (const auto& s : scripts) longest = std::max(longest, s.size());
    for (std::size_t k = 0; k < longest; ++k) {
      for (std::uint64_t i = 0; i < service_sessions; ++i) {
        if (k < scripts[i].size()) {
          // Results are measured via completion latencies; the futures
          // themselves are not awaited individually.
          static_cast<void>(svc.submit(ids[i], scripts[i][k]));
        }
      }
    }
    svc.drain();
    const auto t1 = std::chrono::steady_clock::now();

    std::vector<double> latencies = svc.latency_samples();
    std::sort(latencies.begin(), latencies.end());
    const auto percentile = [&](double p) {
      if (latencies.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(latencies.size() - 1));
      return latencies[idx] * 1e6;
    };
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    service_points.push_back(
        {"mixed", service_sessions, svc.workers(), 1, svc.commands_completed(),
         seconds,
         seconds > 0 ? static_cast<double>(service_sessions) / seconds : 0.0,
         seconds > 0 ? static_cast<double>(svc.commands_completed()) / seconds
                     : 0.0,
         percentile(0.50), percentile(0.99)});
    svc.shutdown();
  }

  // Deliberate-oversubscription row: every session EXPLICITLY requests a
  // parallel engine, so workers x engine-threads exceeds the core count (the
  // configuration recommended_threads exists to avoid by default). The row
  // keeps the regime measured — throughput must degrade gracefully, never
  // deadlock — and documents what opting out of the auto budget costs.
  if (service_sessions > 0) {
    const std::uint64_t sessions = std::min<std::uint64_t>(
        service_sessions, 32);
    const unsigned engine_threads = 4;
    service::ServiceOptions service_options;
    service_options.workers =
        core::ParallelEngine::resolve_thread_count(service_workers);
    service::SimulationService svc(service_options);
    const auto t0 = std::chrono::steady_clock::now();
    std::vector<service::SimulationService::SessionId> ids;
    ids.reserve(sessions);
    for (std::uint64_t i = 0; i < sessions; ++i) {
      service::SessionSpec spec;
      spec.seed = seed + i;
      spec.automaton = "alg-au:3";
      spec.scheduler = "synchronous";  // sharded synchronous kernel engages
      spec.graph = "complete:24";
      spec.options.thread_count = engine_threads;  // explicit: honored
      ids.push_back(svc.open_session(spec));
    }
    for (int k = 0; k < 4; ++k) {
      for (std::uint64_t i = 0; i < sessions; ++i) {
        static_cast<void>(svc.submit(ids[i], service::cmd::step(25)));
      }
    }
    for (std::uint64_t i = 0; i < sessions; ++i) {
      static_cast<void>(svc.submit(ids[i], service::cmd::query_hash()));
    }
    svc.drain();
    const auto t1 = std::chrono::steady_clock::now();
    std::vector<double> latencies = svc.latency_samples();
    std::sort(latencies.begin(), latencies.end());
    const auto percentile = [&](double p) {
      if (latencies.empty()) return 0.0;
      const auto idx = static_cast<std::size_t>(
          p * static_cast<double>(latencies.size() - 1));
      return latencies[idx] * 1e6;
    };
    const double seconds = std::chrono::duration<double>(t1 - t0).count();
    service_points.push_back(
        {"oversubscribed", sessions, svc.workers(), engine_threads,
         svc.commands_completed(), seconds,
         seconds > 0 ? static_cast<double>(sessions) / seconds : 0.0,
         seconds > 0 ? static_cast<double>(svc.commands_completed()) / seconds
                     : 0.0,
         percentile(0.50), percentile(0.99)});
    svc.shutdown();
  }

  // --- table + speedups ------------------------------------------------------
  std::cout << "\n==== E12 engine throughput (n=" << n
            << ", |E|=" << g.num_edges() << ") ====\n\n";
  std::cout << std::left << std::setw(14) << "algorithm" << std::setw(16)
            << "scheduler" << std::setw(8) << "mode" << std::setw(10)
            << "kernel" << std::right << std::setw(14) << "steps/s"
            << std::setw(16) << "activations/s" << std::setw(10) << "speedup"
            << "\n";
  struct Speedup {
    std::string algorithm, scheduler;
    double factor;
  };
  std::vector<Speedup> speedups;
  for (std::size_t i = 0; i + 1 < results.size(); i += 2) {
    const Measurement& legacy = results[i];
    const Measurement& fast = results[i + 1];
    const double factor = legacy.activations_per_sec() > 0
                              ? fast.activations_per_sec() /
                                    legacy.activations_per_sec()
                              : 0.0;
    speedups.push_back({fast.algorithm, fast.scheduler, factor});
    for (const Measurement* m : {&legacy, &fast}) {
      std::cout << std::left << std::setw(14) << m->algorithm << std::setw(16)
                << m->scheduler << std::setw(8) << m->mode << std::setw(10)
                << m->kernel << std::right << std::fixed << std::setprecision(0)
                << std::setw(14) << m->steps_per_sec() << std::setw(16)
                << m->activations_per_sec();
      if (m == &fast) {
        std::cout << std::setprecision(2) << std::setw(9) << factor << "x";
      }
      std::cout << "\n";
    }
  }

  // --- single-activation table -----------------------------------------------
  if (!single_act.empty()) {
    std::cout << "\n==== single-activation daemons: signal field vs rescan "
                 "(n=" << n << ", |E|=" << single_act_edges << ") ====\n\n";
    std::cout << std::left << std::setw(14) << "algorithm" << std::setw(18)
              << "scheduler" << std::right << std::setw(14) << "field act/s"
              << std::setw(15) << "rescan act/s" << std::setw(10) << "speedup"
              << "\n";
    for (const SingleActPoint& p : single_act) {
      std::cout << std::left << std::setw(14) << p.algorithm << std::setw(18)
                << p.scheduler << std::right << std::fixed
                << std::setprecision(0) << std::setw(14) << p.field_rate
                << std::setw(15) << p.rescan_rate << std::setprecision(2)
                << std::setw(9) << p.speedup << "x\n";
    }
  }

  // --- churn table -----------------------------------------------------------
  if (!churn.empty()) {
    std::cout << "\n==== topology churn: in-place delta vs full rebuild "
                 "(single-edge events, n=" << n << ") ====\n\n";
    std::cout << std::left << std::setw(14) << "algorithm" << std::setw(18)
              << "scheduler" << std::right << std::setw(15) << "patch ev/s"
              << std::setw(15) << "rebuild ev/s" << std::setw(10) << "speedup"
              << "\n";
    for (const ChurnPoint& p : churn) {
      std::cout << std::left << std::setw(14) << p.algorithm << std::setw(18)
                << p.scheduler << std::right << std::fixed
                << std::setprecision(0) << std::setw(15)
                << p.patch_events_per_sec << std::setw(15)
                << p.rebuild_events_per_sec << std::setprecision(1)
                << std::setw(9) << p.patch_over_rebuild << "x\n";
    }
  }

  // --- snapshot table --------------------------------------------------------
  if (!snapshot_points.empty()) {
    std::cout << "\n==== snapshot persistence: save/restore vs recompute "
                 "(after " << snapshot_steps << " steps) ====\n\n";
    std::cout << std::left << std::setw(14) << "algorithm" << std::setw(18)
              << "scheduler" << std::right << std::setw(12) << "bytes"
              << std::setw(12) << "save MB/s" << std::setw(14)
              << "restore MB/s" << std::setw(13) << "vs rerun" << "\n";
    for (const SnapshotPoint& p : snapshot_points) {
      std::cout << std::left << std::setw(14) << p.algorithm << std::setw(18)
                << p.scheduler << std::right << std::setw(12)
                << p.snapshot_bytes << std::fixed << std::setprecision(1)
                << std::setw(12) << p.save_mb_per_sec << std::setw(14)
                << p.restore_mb_per_sec << std::setw(12)
                << p.restore_over_rerun << "x\n";
    }
  }

  // --- memory table ----------------------------------------------------------
  if (!memory_points.empty()) {
    std::cout << "\n==== memory footprint: streaming build + compact engine "
                 "(avg degree ~8) ====\n\n";
    std::cout << std::left << std::setw(10) << "nodes" << std::right
              << std::setw(11) << "edges" << std::setw(10) << "build s"
              << std::setw(13) << "graph MB" << std::setw(11) << "engine MB"
              << std::setw(9) << "B/node" << std::setw(9) << "B/edge"
              << std::setw(13) << "build spdup" << "\n";
    for (const MemoryPoint& p : memory_points) {
      std::cout << std::left << std::setw(10) << p.nodes << std::right
                << std::setw(11) << p.edges << std::fixed
                << std::setprecision(3) << std::setw(10) << p.build_seconds
                << std::setprecision(1) << std::setw(13)
                << static_cast<double>(p.graph_bytes) / 1e6 << std::setw(11)
                << static_cast<double>(p.engine_bytes) / 1e6 << std::setw(9)
                << p.bytes_per_node << std::setw(9) << p.bytes_per_edge;
      if (p.ref_nodes > 0) {
        std::cout << std::setw(12) << p.build_speedup << "x  (at n="
                  << p.ref_nodes << ": " << std::setprecision(3)
                  << p.ref_edgelist_seconds << "s -> "
                  << p.ref_stream_seconds << "s)";
      }
      std::cout << "\n";
    }
  }

  // --- locality table --------------------------------------------------------
  if (!locality_points.empty()) {
    std::cout << "\n==== locality: BFS reorder on vs off "
                 "(scrambled clique ring, synchronous AlgAU) ====\n\n";
    std::cout << std::left << std::setw(10) << "nodes" << std::right
              << std::setw(11) << "edges" << std::setw(13) << "avg|u-v| off"
              << std::setw(12) << "avg|u-v| on" << std::setw(12)
              << "reorder s" << std::setw(13) << "off act/s" << std::setw(13)
              << "on act/s" << std::setw(12) << "ns/scan" << std::setw(10)
              << "speedup" << "\n";
    for (const LocalityPoint& p : locality_points) {
      std::cout << std::left << std::setw(10) << p.nodes << std::right
                << std::setw(11) << p.edges << std::fixed
                << std::setprecision(0) << std::setw(13)
                << p.neighbor_distance_off << std::setw(12)
                << p.neighbor_distance_on << std::setprecision(3)
                << std::setw(12) << p.reorder_seconds << std::setprecision(0)
                << std::setw(13) << p.off_rate << std::setw(13) << p.on_rate
                << std::setprecision(2) << std::setw(6) << p.gather_ns_off
                << "->" << std::setw(4) << p.gather_ns_on << std::setw(9)
                << p.reorder_on_over_off << "x\n";
    }
  }

  // --- service table ---------------------------------------------------------
  if (!service_points.empty()) {
    std::cout << "\n==== simulation service: concurrent sessions, mixed "
                 "command traffic ====\n\n";
    std::cout << std::left << std::setw(16) << "traffic" << std::setw(10)
              << "sessions" << std::setw(9) << "workers" << std::setw(11)
              << "e-threads" << std::right << std::setw(10) << "commands"
              << std::setw(14) << "sessions/s" << std::setw(14) << "commands/s"
              << std::setw(12) << "p50 us" << std::setw(12) << "p99 us"
              << "\n";
    for (const ServicePoint& p : service_points) {
      std::cout << std::left << std::setw(16) << p.traffic << std::setw(10)
                << p.sessions << std::setw(9) << p.workers << std::setw(11)
                << p.engine_threads << std::right << std::setw(10)
                << p.commands << std::fixed << std::setprecision(0)
                << std::setw(14) << p.sessions_per_sec << std::setw(14)
                << p.commands_per_sec << std::setprecision(1) << std::setw(12)
                << p.p50_latency_us << std::setw(12) << p.p99_latency_us
                << "\n";
    }
  }

  // --- thread-sweep table ----------------------------------------------------
  if (sweep_enabled) {
    std::cout << "\n==== sharded kernel thread sweep "
                 "(synchronous + sparse-activation) ====\n\n";
    std::cout << std::left << std::setw(14) << "algorithm" << std::setw(16)
              << "scheduler" << std::right << std::setw(9) << "threads"
              << std::setw(16) << "activations/s" << std::setw(10) << "scaling"
              << std::setw(14) << "barrier ms" << std::setw(12) << "apply ms"
              << "\n";
  }
  struct SweepPoint {
    std::string algorithm;
    std::string scheduler;
    unsigned threads;
    double activations_per_sec;
    double scaling;  // vs the 1-thread sweep entry of the same cell
    double seconds;  // wall time of the kept repeat (barrier-frac denominator)
    std::uint64_t barrier_wait_ns;
    std::uint64_t apply_phase_ns;
  };
  std::vector<SweepPoint> sweep_points;
  {
    // Serial reference per algorithm x scheduler, wherever threads=1 sits in
    // the list (0 when the list omits it — scaling is then reported as
    // 0 / unknown).
    std::map<std::pair<std::string, std::string>, double> serial_rate;
    for (const Measurement& m : sweep) {
      if (m.threads == 1) {
        serial_rate[{m.algorithm, m.scheduler}] = m.activations_per_sec();
      }
    }
    for (const Measurement& m : sweep) {
      const double serial = serial_rate[{m.algorithm, m.scheduler}];
      const double scaling =
          serial > 0 ? m.activations_per_sec() / serial : 0.0;
      sweep_points.push_back({m.algorithm, m.scheduler, m.threads,
                              m.activations_per_sec(), scaling, m.seconds,
                              m.barrier_wait_ns, m.apply_phase_ns});
      std::cout << std::left << std::setw(14) << m.algorithm << std::setw(16)
                << m.scheduler << std::right << std::setw(9) << m.threads
                << std::fixed << std::setprecision(0) << std::setw(16)
                << m.activations_per_sec() << std::setprecision(2)
                << std::setw(9) << scaling << "x" << std::setprecision(1)
                << std::setw(14)
                << static_cast<double>(m.barrier_wait_ns) / 1e6
                << std::setw(12)
                << static_cast<double>(m.apply_phase_ns) / 1e6 << "\n";
    }
  }

  // --- BENCH_engine.json -----------------------------------------------------
  std::ofstream os(json_path);
  if (!os) {
    std::cerr << "error: cannot open " << json_path << " for writing\n";
    return 1;
  }
  util::JsonWriter jw(os);
  jw.begin_object();
  jw.key("bench").value("engine_perf");
  jw.key("nodes").value(static_cast<std::uint64_t>(n));
  jw.key("edges").value(static_cast<std::uint64_t>(g.num_edges()));
  jw.key("seed").value(seed);
  jw.key("results").begin_array();
  for (const Measurement& m : results) {
    jw.begin_object();
    jw.key("algorithm").value(m.algorithm);
    jw.key("scheduler").value(m.scheduler);
    jw.key("mode").value(m.mode);
    jw.key("kernel").value(m.kernel);
    jw.key("threads").value(static_cast<std::uint64_t>(m.threads));
    jw.key("steps").value(m.steps);
    jw.key("activations").value(m.activations);
    jw.key("seconds").value(m.seconds);
    jw.key("steps_per_sec").value(m.steps_per_sec());
    jw.key("activations_per_sec").value(m.activations_per_sec());
    jw.end_object();
  }
  jw.end_array();
  jw.key("thread_sweep").begin_array();
  for (const SweepPoint& p : sweep_points) {
    jw.begin_object();
    jw.key("algorithm").value(p.algorithm);
    jw.key("scheduler").value(p.scheduler);
    jw.key("threads").value(static_cast<std::uint64_t>(p.threads));
    jw.key("activations_per_sec").value(p.activations_per_sec);
    jw.key("scaling_vs_serial").value(p.scaling);
    jw.key("seconds").value(p.seconds);
    jw.key("barrier_wait_ns").value(p.barrier_wait_ns);
    jw.key("apply_phase_ns").value(p.apply_phase_ns);
    if (p.seconds > 0) {
      jw.key("barrier_frac")
          .value(static_cast<double>(p.barrier_wait_ns) / (p.seconds * 1e9));
    }
    jw.end_object();
  }
  jw.end_array();
  jw.key("single_activation").begin_array();
  for (const SingleActPoint& p : single_act) {
    jw.begin_object();
    jw.key("algorithm").value(p.algorithm);
    jw.key("scheduler").value(p.scheduler);
    jw.key("field_activations_per_sec").value(p.field_rate);
    jw.key("rescan_activations_per_sec").value(p.rescan_rate);
    jw.key("field_over_rescan").value(p.speedup);
    jw.end_object();
  }
  jw.end_array();
  jw.key("churn").begin_array();
  for (const ChurnPoint& p : churn) {
    jw.begin_object();
    jw.key("algorithm").value(p.algorithm);
    jw.key("scheduler").value(p.scheduler);
    jw.key("patch_events_per_sec").value(p.patch_events_per_sec);
    jw.key("rebuild_events_per_sec").value(p.rebuild_events_per_sec);
    jw.key("patch_over_rebuild").value(p.patch_over_rebuild);
    jw.end_object();
  }
  jw.end_array();
  jw.key("snapshot").begin_array();
  for (const SnapshotPoint& p : snapshot_points) {
    jw.begin_object();
    jw.key("algorithm").value(p.algorithm);
    jw.key("scheduler").value(p.scheduler);
    jw.key("snapshot_bytes").value(p.snapshot_bytes);
    jw.key("save_mb_per_sec").value(p.save_mb_per_sec);
    jw.key("restore_mb_per_sec").value(p.restore_mb_per_sec);
    jw.key("restore_over_rerun").value(p.restore_over_rerun);
    jw.end_object();
  }
  jw.end_array();
  jw.key("memory").begin_array();
  for (const MemoryPoint& p : memory_points) {
    jw.begin_object();
    jw.key("nodes").value(p.nodes);
    jw.key("edges").value(p.edges);
    jw.key("build_seconds").value(p.build_seconds);
    jw.key("ref_nodes").value(p.ref_nodes);
    jw.key("ref_stream_seconds").value(p.ref_stream_seconds);
    jw.key("ref_edgelist_seconds").value(p.ref_edgelist_seconds);
    jw.key("build_speedup").value(p.build_speedup);
    jw.key("graph_bytes").value(p.graph_bytes);
    jw.key("engine_bytes").value(p.engine_bytes);
    jw.key("total_bytes").value(p.total_bytes);
    jw.key("bytes_per_node").value(p.bytes_per_node);
    jw.key("bytes_per_edge").value(p.bytes_per_edge);
    jw.end_object();
  }
  jw.end_array();
  jw.key("locality").begin_array();
  for (const LocalityPoint& p : locality_points) {
    jw.begin_object();
    jw.key("algorithm").value(p.algorithm);
    jw.key("scheduler").value(p.scheduler);
    jw.key("nodes").value(p.nodes);
    jw.key("edges").value(p.edges);
    jw.key("neighbor_distance_off").value(p.neighbor_distance_off);
    jw.key("neighbor_distance_on").value(p.neighbor_distance_on);
    jw.key("reorder_seconds").value(p.reorder_seconds);
    jw.key("off_activations_per_sec").value(p.off_rate);
    jw.key("on_activations_per_sec").value(p.on_rate);
    jw.key("reorder_on_over_off").value(p.reorder_on_over_off);
    jw.key("gather_ns_per_scan_off").value(p.gather_ns_off);
    jw.key("gather_ns_per_scan_on").value(p.gather_ns_on);
    jw.end_object();
  }
  jw.end_array();
  jw.key("service").begin_array();
  for (const ServicePoint& p : service_points) {
    jw.begin_object();
    jw.key("traffic").value(p.traffic);
    jw.key("sessions").value(p.sessions);
    jw.key("workers").value(static_cast<std::uint64_t>(p.workers));
    jw.key("engine_threads").value(static_cast<std::uint64_t>(p.engine_threads));
    jw.key("commands").value(p.commands);
    jw.key("seconds").value(p.seconds);
    jw.key("sessions_per_sec").value(p.sessions_per_sec);
    jw.key("commands_per_sec").value(p.commands_per_sec);
    jw.key("p50_latency_us").value(p.p50_latency_us);
    jw.key("p99_latency_us").value(p.p99_latency_us);
    jw.end_object();
  }
  jw.end_array();
  jw.key("speedups").begin_array();
  for (const Speedup& s : speedups) {
    jw.begin_object();
    jw.key("algorithm").value(s.algorithm);
    jw.key("scheduler").value(s.scheduler);
    jw.key("fast_over_legacy").value(s.factor);
    jw.end_object();
  }
  jw.end_array();
  jw.end_object();
  os << "\n";
  os.flush();
  if (!os.good()) {
    // A silently truncated benchmark artifact would poison every later gate
    // run; fail loudly instead.
    std::cerr << "error: write to " << json_path << " failed (disk full?)\n";
    return 1;
  }
  std::cout << "\nwrote " << json_path << "\n";
  return 0;
}
