// Workload serve-mixed: a closed loop of mixed commands from one generator
// thread over a SimulationService, then a replay of every session's command
// stream on standalone Sessions (the service's bit-identity contract). See
// README.md for why it exists and what it stresses.
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <future>
#include <memory>
#include <optional>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/command_log.hpp"
#include "graph/metrics.hpp"
#include "graph/reorder.hpp"
#include "service/service.hpp"
#include "service/session.hpp"

namespace bench {
namespace {

namespace service = ssau::service;
using Edge = std::pair<graph::NodeId, graph::NodeId>;

const char* const kAlgorithms[] = {"alg-au", "alg-mis", "alg-le"};
const char* const kDaemons[] = {"synchronous", "uniform-single", "random-subset",
                                "laggard"};
constexpr graph::NodeId kSizes[] = {256, 512, 1024, 2048, 4096};
constexpr graph::NodeId kSmallSizes[] = {64, 96, 128, 192, 256};
/// The diameter bound every session's automaton is built with (raised only
/// for a graph whose proven bound exceeds it).
constexpr unsigned kDiameterBound = 14;
/// Every 25th command of a session is a checkpoint.
constexpr std::uint64_t kSnapshotEvery = 25;

enum Kind : std::uint8_t {
  kStep,
  kRunRounds,
  kInject,
  kDelta,
  kQueryHash,
  kQueryStats,
  kQueryConfig,
  kSnapshot,
  kKinds,
};
const char* const kKindNames[kKinds] = {
    "step",        "run_rounds",  "inject_state", "topology_delta",
    "query_hash",  "query_stats", "query_config", "snapshot"};

Layer layer_of(Kind k) {
  switch (k) {
    case kStep:
    case kRunRounds: return Layer::kEngine;
    case kInject:
    case kDelta: return Layer::kFaults;
    case kSnapshot: return Layer::kSnapshot;
    default: return Layer::kService;
  }
}

bool mutates(Kind k) {
  return k == kStep || k == kRunRounds || k == kInject || k == kDelta;
}

/// One sent command in compact form. A core::Command is ~140 bytes and a
/// run logs ~10^5 of them; logged whole, their memory would track the
/// throughput and show up in peak_rss_mb.
struct Sent {
  Kind kind = kStep;
  std::uint32_t x = 0;  // step count, or the injected node
  std::uint32_t y = 0;  // the injected state
  std::optional<Edge> remove;
  std::optional<Edge> add;
};

core::Command to_command(const Sent& s, const std::string& checkpoint) {
  switch (s.kind) {
    case kStep: return service::cmd::step(s.x);
    case kRunRounds: return service::cmd::run_rounds(1);
    case kInject: return service::cmd::inject_state(s.x, s.y);
    case kDelta: {
      graph::TopologyDelta d;
      if (s.remove) d.remove.push_back(*s.remove);
      if (s.add) d.add.push_back(*s.add);
      return service::cmd::topology_delta(std::move(d));
    }
    case kQueryHash: return service::cmd::query_hash();
    case kQueryStats: return service::cmd::query_stats();
    case kQueryConfig: return service::cmd::query_config();
    case kSnapshot: return service::cmd::snapshot(checkpoint);
    case kKinds: break;
  }
  return {};
}

/// One session's closed-loop client: its spec, the command stream it sent,
/// and what the service answered.
struct Client {
  service::SessionSpec spec;
  std::unique_ptr<graph::Graph> replica;  // the session's graph, kept in step
  core::StateId states = 0;
  bool single_daemon = false;
  util::Rng rng{0};
  std::optional<Edge> failed;
  service::SimulationService::SessionId id = 0;
  std::vector<Sent> log;
  std::vector<double> latency_ms;       // per command, as the client saw it
  std::vector<std::uint64_t> hashes;    // query_hash answers, in order
  std::uint64_t final_hash = 0;
  std::future<service::Result> pending;
  Clock::time_point submitted;

  [[nodiscard]] std::string checkpoint(const std::string& dir) const {
    return dir + "/" + std::to_string(id) + ".ckpt";
  }
};

/// The next command of a client. The mix is a synthetic assumption, not
/// derived from recorded traffic (none exists); README.md gives the reason
/// for each weight and step size.
core::Command next_command(Client& c, const std::string& dir) {
  const graph::NodeId n = c.replica->num_nodes();
  Sent s;
  s.kind = kSnapshot;
  if ((c.log.size() + 1) % kSnapshotEvery != 0) {
    const std::uint64_t r = c.rng.below(100);
    s.kind = r < 30   ? kStep
             : r < 45 ? kRunRounds
             : r < 60 ? kInject
             : r < 70 ? kDelta
             : r < 80 ? kQueryHash
             : r < 90 ? kQueryStats
                      : kQueryConfig;
  }
  if (s.kind == kStep) {
    // A single-node daemon activates one node per step; 1..n/2 steps keep
    // such a command within an order of magnitude of the other daemons'
    // 1..4 steps, each of which activates up to n nodes.
    s.x = static_cast<std::uint32_t>(c.single_daemon ? 1 + c.rng.below(n / 2)
                                                     : 1 + c.rng.below(4));
  } else if (s.kind == kInject) {
    s.x = static_cast<std::uint32_t>(c.rng.below(n));
    s.y = static_cast<std::uint32_t>(c.rng.below(c.states));
  } else if (s.kind == kDelta) {
    // Fail one link and heal the previous one: one link down at a time.
    Edge e;
    if (random_edge(*c.replica, c.rng, e)) s.remove = e;
    s.add = c.failed;
    c.failed = s.remove;
    graph::TopologyDelta d;
    if (s.remove) d.remove.push_back(*s.remove);
    if (s.add) d.add.push_back(*s.add);
    c.replica->apply_delta(d);
  }
  c.log.push_back(s);
  return to_command(s, c.checkpoint(dir));
}

struct Fleet {
  std::unique_ptr<service::SimulationService> svc;
  std::vector<Client> clients;
  double seconds = 0.0;
  double graph_build_s = 0.0;
  double open_s = 0.0;
};

/// Opens the service and every session. The replica of a session's graph
/// (same family spec, same seed) proves its diameter bound and supplies the
/// edges its topology deltas fail.
Fleet open_fleet(const Options& o, std::size_t sessions, unsigned workers) {
  Fleet f;
  const auto t0 = Clock::now();
  service::ServiceOptions so;
  so.workers = workers;
  f.svc = std::make_unique<service::SimulationService>(so);
  f.clients.resize(sessions);
  for (std::size_t i = 0; i < sessions; ++i) {
    Client& c = f.clients[i];
    const graph::NodeId n = o.small ? kSmallSizes[i % 5] : kSizes[i % 5];
    char graph_spec[64];
    std::snprintf(graph_spec, sizeof graph_spec, "random:%u:%.6f", n, 8.0 / n);
    c.spec.graph = graph_spec;
    c.spec.seed = util::Rng::stream(o.seed, 100 + i)();
    c.spec.scheduler = kDaemons[(i / 3) % 4];
    c.spec.initial = "random";
    c.spec.options.thread_count = 1;
    c.single_daemon = c.spec.scheduler == std::string("uniform-single");
    c.rng = util::Rng::stream(o.seed, 10'000 + i);

    const auto tg = Clock::now();
    c.replica = std::make_unique<graph::Graph>(
        service::make_graph(c.spec.graph, c.spec.seed));
    f.graph_build_s += seconds_since(tg);
    // One D for every session keeps |Q| (and so the cost of a command)
    // independent of the seed; 2 * ecc(node 0) proves it is a bound.
    const unsigned d = std::max(kDiameterBound, 2 * graph::eccentricity(*c.replica, 0));
    c.spec.automaton = std::string(kAlgorithms[i % 3]) + ":" + std::to_string(d);

    const auto ts = Clock::now();
    c.id = f.svc->open_session(c.spec);
    f.open_s += seconds_since(ts);
    c.states = f.svc->session(c.id).engine().automaton().state_count();
  }
  f.seconds = seconds_since(t0);
  return f;
}

struct Pass {
  std::vector<double> latency_ms;  // measured commands (after warm-up)
  double seconds = 0.0;
  double submit_s = 0.0;
  std::size_t submits = 0;
  std::size_t peak_pending = 0;
};

/// The closed loop: every session keeps one command in flight until
/// `commands` have been submitted.
Pass serve(Fleet& f, std::size_t commands, const std::string& dir,
           Report& report, Tracer& tracer) {
  Pass p;
  const std::size_t warmup = f.clients.size();
  std::size_t completed = 0;
  const auto submit = [&](Client& c) {
    core::Command cmd = next_command(c, dir);
    const auto t = Clock::now();
    {
      auto s = tracer.span("service.submit", Layer::kService);
      c.pending = f.svc->submit(c.id, std::move(cmd));
    }
    c.submitted = t;
    p.submit_s += seconds_since(t);
    ++p.submits;
  };
  const auto t0 = Clock::now();
  for (Client& c : f.clients) submit(c);
  for (;;) {
    bool in_flight = false;
    bool progressed = false;
    for (Client& c : f.clients) {
      if (!c.pending.valid()) continue;
      in_flight = true;
      if (c.pending.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        continue;
      }
      const service::Result r = c.pending.get();
      const double ms = seconds_since(c.submitted) * 1e3;
      progressed = true;
      report.attempt(r.ok());
      report.check("service_results_ok", r.ok());
      if (!r.ok()) {
        report.violation(std::string("command ") + kKindNames[c.log.back().kind] +
                         " returned " + service::status_name(r.status) + ": " +
                         r.error);
      }
      if (c.log.back().kind == kQueryHash) c.hashes.push_back(r.hash);
      c.latency_ms.push_back(ms);
      if (++completed > warmup) p.latency_ms.push_back(ms);
      if (p.submits < commands) submit(c);
    }
    if (!in_flight) break;
    // Nap rather than spin, so the generator leaves its core to the workers.
    if (!progressed) std::this_thread::sleep_for(std::chrono::microseconds(20));
  }
  p.seconds = seconds_since(t0);
  f.svc->drain();
  p.peak_pending = f.svc->peak_pending();
  for (Client& c : f.clients) {
    c.final_hash = core::engine_state_hash(f.svc->session(c.id).engine());
  }
  f.svc->shutdown();
  return p;
}

/// What one replay thread measured.
struct ReplayStats {
  double exec_s[kKinds] = {};
  std::size_t exec_n[kKinds] = {};
  std::vector<double> queue_wait_ms;
  double activations = 0.0;
  double sched_s = 0.0;       // estimated daemon draws inside the steps
  double automaton_s = 0.0;   // estimated δ inside the steps
  double field_s = 0.0;       // estimated signal-field patches inside the steps
  double delta_weighted = 0.0;
  double draw_weighted = 0.0;
  double patch_weighted = 0.0;     // patch ns × transitions, field sessions
  double field_transitions = 0.0;  // transitions of the field sessions
  double field_activations = 0.0;  // activations of the field sessions
  double steps = 0.0;
  double engine_bytes = 0.0;
  double nodes = 0.0;
  double graph_bytes = 0.0;
  double edges = 0.0;
  double field_active = 0.0;
  double neighbor_gap_weighted = 0.0;
  bool replay_ok = true;
  bool query_hash_ok = true;
  bool final_hash_ok = true;
  std::vector<std::string> violations;
};

/// Transitions a client's session applied, each of which patches a live
/// signal field once. Counted with a transition listener on a second
/// standalone replay of the state-changing commands: a listener on the
/// timed replay would slow the steps it times.
double count_transitions(const Client& c) {
  service::Session s(c.spec);
  std::uint64_t transitions = 0;
  s.engine().set_transition_listener(
      [&](core::NodeId, core::StateId, core::StateId, const core::Signal&,
          core::Time) { ++transitions; });
  for (const Sent& sent : c.log) {
    if (mutates(sent.kind)) (void)s.apply(to_command(sent, ""));
  }
  return static_cast<double>(transitions);
}

/// Replays one client's commands on a standalone Session and compares the
/// query_hash answers and the final state hash with the service's.
void replay(const Client& c, const std::string& dir, bool trace, Tracer& tracer,
            ReplayStats& st) {
  std::unique_ptr<service::Session> s;
  std::size_t h = 0;
  auto op = tracer.span("replay", Layer::kOp);
  {
    auto sp = tracer.span("service.open", Layer::kService);
    s = std::make_unique<service::Session>(c.spec);
  }
  for (std::size_t j = 0; j < c.log.size(); ++j) {
    const Kind k = c.log[j].kind;
    const core::Command cmd = to_command(c.log[j], c.checkpoint(dir));
    const auto t = Clock::now();
    service::Result r;
    {
      auto sp = tracer.span(kKindNames[k], layer_of(k));
      r = s->apply(cmd);
    }
    const double exec = seconds_since(t);
    st.exec_s[k] += exec;
    ++st.exec_n[k];
    if (trace) st.queue_wait_ms.push_back(c.latency_ms[j] - exec * 1e3);
    if (!r.ok()) {
      st.replay_ok = false;
      st.violations.push_back(std::string("replayed ") + kKindNames[k] +
                              " returned " + service::status_name(r.status));
    }
    if (k == kQueryHash && (h >= c.hashes.size() || c.hashes[h++] != r.hash)) {
      st.query_hash_ok = false;
      st.violations.push_back("replayed query_hash differs from the service's");
    }
  }
  op.end();  // the probes below are not part of the replayed work
  const core::Engine& e = s->engine();
  if (core::engine_state_hash(e) != c.final_hash) {
    st.final_hash_ok = false;
    st.violations.push_back("session " + std::to_string(c.id) +
                            ": final engine_state_hash differs from a "
                            "standalone replay");
  }
  if (!trace) return;
  const double acts = static_cast<double>(total_activations(e));
  const double steps = static_cast<double>(e.time());
  const double delta_ns = probe_delta_ns(e, c.spec.seed);
  const double draw_ns = e.scheduler().full_activation()
                             ? 0.0
                             : probe_draw_ns(c.spec.scheduler, e.graph(), c.spec.seed);
  st.activations += acts;
  st.steps += steps;
  st.automaton_s += delta_ns * 1e-9 * acts;
  st.sched_s += draw_ns * 1e-9 * steps;
  st.delta_weighted += delta_ns * acts;
  st.draw_weighted += draw_ns * steps;
  if (e.signal_field_active()) {
    const double transitions = count_transitions(c);
    const double patch_ns = probe_field_patch_ns(e, c.spec.seed);
    st.field_s += patch_ns * 1e-9 * transitions;
    st.patch_weighted += patch_ns * transitions;
    st.field_transitions += transitions;
    st.field_activations += acts;
  }
  st.engine_bytes += static_cast<double>(e.dynamic_memory_usage());
  st.nodes += e.graph().num_nodes();
  st.graph_bytes += static_cast<double>(e.graph().dynamic_memory_usage());
  st.edges += static_cast<double>(e.graph().num_edges());
  st.field_active += e.signal_field_active() ? 1.0 : 0.0;
  st.neighbor_gap_weighted +=
      graph::average_neighbor_distance(e.graph()) * static_cast<double>(e.graph().num_edges());
}

/// Replays every client on `threads` threads; merges spans into `tracer`.
ReplayStats replay_all(const Fleet& f, const std::string& dir, unsigned threads,
                       bool trace, Tracer& tracer) {
  std::vector<ReplayStats> per(threads);
  std::vector<Tracer> tracers(threads, Tracer(trace));
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (std::size_t i = next++; i < f.clients.size(); i = next++) {
        try {
          replay(f.clients[i], dir, trace, tracers[t], per[t]);
        } catch (const std::exception& ex) {
          per[t].replay_ok = false;
          per[t].violations.push_back(std::string("replay threw: ") + ex.what());
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  ReplayStats all;
  for (unsigned t = 0; t < threads; ++t) {
    const ReplayStats& s = per[t];
    for (int k = 0; k < kKinds; ++k) {
      all.exec_s[k] += s.exec_s[k];
      all.exec_n[k] += s.exec_n[k];
    }
    all.queue_wait_ms.insert(all.queue_wait_ms.end(), s.queue_wait_ms.begin(),
                             s.queue_wait_ms.end());
    all.activations += s.activations;
    all.steps += s.steps;
    all.sched_s += s.sched_s;
    all.automaton_s += s.automaton_s;
    all.field_s += s.field_s;
    all.delta_weighted += s.delta_weighted;
    all.draw_weighted += s.draw_weighted;
    all.patch_weighted += s.patch_weighted;
    all.field_transitions += s.field_transitions;
    all.field_activations += s.field_activations;
    all.engine_bytes += s.engine_bytes;
    all.nodes += s.nodes;
    all.graph_bytes += s.graph_bytes;
    all.edges += s.edges;
    all.field_active += s.field_active;
    all.neighbor_gap_weighted += s.neighbor_gap_weighted;
    all.replay_ok = all.replay_ok && s.replay_ok;
    all.query_hash_ok = all.query_hash_ok && s.query_hash_ok;
    all.final_hash_ok = all.final_hash_ok && s.final_hash_ok;
    all.violations.insert(all.violations.end(), s.violations.begin(),
                          s.violations.end());
    tracer.merge(tracers[t]);
  }
  return all;
}

void record_replay_checks(const ReplayStats& st, Report& report) {
  report.check("replay_results_ok", st.replay_ok);
  report.check("replay_query_hash_matches_service", st.query_hash_ok);
  report.check("replay_final_hash_matches_service", st.final_hash_ok);
  for (const std::string& v : st.violations) report.violation(v);
}

}  // namespace

void run_serve(const Options& o, Report& report) {
  const std::size_t sessions = o.small ? 8 : 32;
  // A fixed command count, not a deadline: every run then does the same
  // work and logs the same number of commands, so peak_rss_mb does not
  // follow the throughput. Sized to take about --seconds here (~8000
  // commands/s on a 4-core Xeon).
  constexpr double kCommandsPerSecond = 8000.0;
  const std::size_t commands =
      o.small ? 200
              : static_cast<std::size_t>(std::max(2000.0, o.seconds * kCommandsPerSecond));
  const unsigned workers = std::max(1u, o.cpus - 1);
  const unsigned replay_threads = std::max(1u, std::min(o.cpus, 4u));
  const std::string serve_dir = o.tmp_dir + "/serve";
  const std::string replay_dir = o.tmp_dir + "/replay";
  std::filesystem::create_directories(serve_dir);
  std::filesystem::create_directories(replay_dir);
  report.note("sessions", static_cast<double>(sessions), "count");
  report.note("workers", workers, "count");

  std::vector<double> setups;
  Fleet f;
  while (more_setups(setups)) {
    f = Fleet{};
    f = open_fleet(o, sessions, workers);
    setups.push_back(f.seconds);
  }

  Tracer off(false);
  const Pass p = serve(f, commands, serve_dir, report, off);
  // Read before the replay: its threads' allocator arenas would otherwise
  // set the peak, and they are the check's memory, not the service's.
  report.set("peak_rss_mb", peak_rss_mb());
  const ReplayStats checked = replay_all(f, replay_dir, replay_threads, false, off);
  record_replay_checks(checked, report);
  const auto measured = static_cast<double>(p.latency_ms.size());
  report.set("setup_s", quantile(setups, 0.5));
  report.set("mean_ms", mean(p.latency_ms));
  report.set("tail_ms", quantile(p.latency_ms, 0.99));
  report.note("commands", static_cast<double>(p.submits), "count");
  report.note("cmds_per_s", static_cast<double>(p.submits) / p.seconds, "1/s");
  report.note("cmd_p50_ms", quantile(p.latency_ms, 0.5), "ms");
  report.note("cmd_p99_ms", quantile(p.latency_ms, 0.99), "ms");
  report.note("cmd_samples_beyond_p99", measured * 0.01, "count");

  if (o.trace) {
    f = Fleet{};
    f = open_fleet(o, sessions, workers);
    report.set("graph.build_s", f.graph_build_s);
    report.set("engine.construct_s", std::max(0.0, f.open_s - f.graph_build_s));
    Tracer on(true);
    const Pass traced = serve(f, commands, serve_dir, report, on);
    Tracer replay_spans(true);
    const ReplayStats st = replay_all(f, replay_dir, replay_threads, true, replay_spans);
    record_replay_checks(st, report);

    for (int k = 0; k < kKinds; ++k) {
      report.set(std::string("service.exec_ms.") + kKindNames[k],
                 st.exec_n[k] == 0 ? 0.0 : st.exec_s[k] * 1e3 / st.exec_n[k]);
    }
    report.set("service.queue_wait_ms", quantile(st.queue_wait_ms, 0.5));
    report.set("service.peak_pending", static_cast<double>(traced.peak_pending));
    report.set("service.submit_block_ms", traced.submit_s * 1e3 / traced.submits);
    const double step_s = st.exec_s[kStep] + st.exec_s[kRunRounds];
    report.set("engine.step_s", step_s);
    report.set("engine.activations", st.activations);
    report.set("engine.ns_per_activation", step_s * 1e9 / st.activations);
    report.set("engine.bytes_per_node", st.engine_bytes / st.nodes);
    report.set("engine.shard_count", 1.0);
    report.set("engine.field_active", st.field_active);
    report.set("graph.bytes_per_edge", st.graph_bytes / st.edges);
    report.set("graph.avg_neighbor_distance", st.neighbor_gap_weighted / st.edges);
    report.set("automaton.delta_ns", st.delta_weighted / st.activations);
    report.set("sched.draw_ns", st.steps > 0 ? st.draw_weighted / st.steps : 0.0);
    report.set("core.field.patch_ns", st.field_transitions > 0
                                          ? st.patch_weighted / st.field_transitions
                                          : 0.0);
    report.set("core.field.transitions_per_activation",
               st.field_activations > 0 ? st.field_transitions / st.field_activations
                                        : 0.0);
    report.set("faults.inject_us", report.get("service.exec_ms.inject_state") * 1e3);
    report.set("faults.churn_us", report.get("service.exec_ms.topology_delta") * 1e3);
    report.set("snapshot.save_ms", report.get("service.exec_ms.snapshot"));
    std::uintmax_t snap_bytes = 0;
    for (const auto& entry : std::filesystem::directory_iterator(replay_dir)) {
      if (entry.path().extension() == ".ckpt") {
        snap_bytes = std::max(snap_bytes, entry.file_size());
      }
    }
    report.set("snapshot.bytes", static_cast<double>(snap_bytes));
    report.set("snapshot.mb_per_s", static_cast<double>(snap_bytes) / 1e3 /
                                        report.get("snapshot.save_ms"));

    // The replay's Session::apply spans split a command's execution by
    // layer; the service's queueing is service.queue_wait_ms.
    Carver carved{replay_spans.op_self_seconds()};
    carved.carve(Layer::kSched, st.sched_s);
    carved.carve(Layer::kAutomaton, st.automaton_s);
    carved.carve(Layer::kField, st.field_s);
    report_self_times(report, carved, replay_spans.op_seconds());
    report.set("trace.overhead_ms_per_op", mean(traced.latency_ms) - mean(p.latency_ms));
    report.set("trace.overhead_pct",
               (mean(traced.latency_ms) / mean(p.latency_ms) - 1.0) * 100.0);
    on.merge(replay_spans);
    report.set("trace.spans", static_cast<double>(on.spans().size()));
    if (!o.trace_out.empty()) report.check("span_file_written", on.write(o.trace_out, o.workload));
  }
  std::filesystem::remove_all(serve_dir);
  std::filesystem::remove_all(replay_dir);
}

}  // namespace bench
