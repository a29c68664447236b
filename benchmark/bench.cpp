#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>

#include "core/signal_field.hpp"
#include "sched/scheduler.hpp"

namespace bench {

const std::vector<MetricDef> kEndToEnd = {
    {"setup_s", "s"},
    {"mean_ms", "ms"},
    {"tail_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<MetricDef> kPerLayer = {
    {"graph.build_s", "s"},
    {"graph.reorder_s", "s"},
    {"graph.avg_neighbor_distance", "ids"},
    {"graph.bytes_per_edge", "B"},
    {"engine.construct_s", "s"},
    {"engine.step_s", "s"},
    {"engine.ns_per_activation", "ns"},
    {"engine.activations", "count"},
    {"engine.bytes_per_node", "B"},
    {"engine.shard_count", "count"},
    {"engine.field_active", "count"},
    {"runtime.barrier_wait_s", "s"},
    {"runtime.apply_phase_s", "s"},
    {"automaton.delta_ns", "ns"},
    {"automaton.rounds_per_op", "count"},
    {"sched.draw_ns", "ns"},
    {"check.s", "s"},
    {"check.ns_per_edge", "ns"},
    {"core.field.patch_ns", "ns"},
    {"core.field.transitions_per_activation", "ratio"},
    {"faults.inject_us", "us"},
    {"faults.churn_us", "us"},
    {"snapshot.save_ms", "ms"},
    {"snapshot.bytes", "B"},
    {"snapshot.mb_per_s", "MB/s"},
    {"service.exec_ms.step", "ms"},
    {"service.exec_ms.run_rounds", "ms"},
    {"service.exec_ms.inject_state", "ms"},
    {"service.exec_ms.topology_delta", "ms"},
    {"service.exec_ms.query_hash", "ms"},
    {"service.exec_ms.query_stats", "ms"},
    {"service.exec_ms.query_config", "ms"},
    {"service.exec_ms.snapshot", "ms"},
    {"service.queue_wait_ms", "ms"},
    {"service.peak_pending", "count"},
    {"service.submit_block_ms", "ms"},
    {"self_s.graph", "s"},
    {"self_s.sched", "s"},
    {"self_s.core.engine", "s"},
    {"self_s.core.runtime", "s"},
    {"self_s.core.field", "s"},
    {"self_s.automaton", "s"},
    {"self_s.check", "s"},
    {"self_s.faults", "s"},
    {"self_s.snapshot", "s"},
    {"self_s.service", "s"},
    {"trace.unattributed_s", "s"},
    {"trace.clamped_s", "s"},
    {"trace.closure", "ratio"},
    {"trace.overhead_ms_per_op", "ms"},
    {"trace.overhead_pct", "%"},
    {"trace.spans", "count"},
};

namespace {

bool declared(const std::string& name) {
  for (const auto* list : {&kEndToEnd, &kPerLayer}) {
    for (const MetricDef& m : *list) {
      if (name == m.name) return true;
    }
  }
  return false;
}

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

// --- Report ---------------------------------------------------------------------

void Report::set(const std::string& name, double value) {
  if (!declared(name)) {
    std::fprintf(stderr, "benchmark: undeclared metric %s\n", name.c_str());
    std::abort();
  }
  values_[name] = value;
}

double Report::get(const std::string& name) const {
  const auto it = values_.find(name);
  return it == values_.end() ? 0.0 : it->second;
}

void Report::note(const std::string& name, double value,
                  const std::string& unit) {
  char line[256];
  std::snprintf(line, sizeof line, "%-28s %.6g %s", name.c_str(), value,
                unit.c_str());
  notes_.emplace_back(line);
}

void Report::check(const std::string& name, bool ok) {
  const auto [it, inserted] = checks_.emplace(name, ok);
  if (!inserted) it->second = it->second && ok;
}

void Report::violation(const std::string& what) {
  constexpr std::size_t kKept = 20;
  if (violations_.size() < kKept) violations_.push_back(what);
  ++violation_count_;
}

bool Report::correct() const {
  for (const auto& [name, ok] : checks_) {
    if (!ok) return false;
  }
  return violation_count_ == 0 && failed_ == 0;
}

void Report::print(bool trace) const {
  for (const std::string& line : notes_) std::printf("%s\n", line.c_str());
  for (const auto& [name, ok] : checks_) {
    std::printf("check %-36s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  }
  for (const std::string& v : violations_) {
    std::printf("VIOLATION: %s\n", v.c_str());
  }
  if (violation_count_ > violations_.size()) {
    std::printf("VIOLATION: ... %zu more\n", violation_count_ - violations_.size());
  }
  const auto& defs = trace ? kPerLayer : kEndToEnd;
  std::string json = "{\"correct\": ";
  json += correct() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(attempted_);
  json += ", \"failed\": " + std::to_string(failed_);
  json += ", \"metrics\": {";
  bool first = true;
  for (const MetricDef& m : defs) {
    double v = get(m.name);
    if (!std::isfinite(v)) v = 0.0;
    char entry[256];
    std::snprintf(entry, sizeof entry, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name, v, m.unit);
    first = false;
    json += entry;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
}

// --- Tracer ---------------------------------------------------------------------

const char* layer_name(Layer layer) {
  switch (layer) {
    case Layer::kOp: return "op";
    case Layer::kGraph: return "graph";
    case Layer::kSched: return "sched";
    case Layer::kEngine: return "core.engine";
    case Layer::kRuntime: return "core.runtime";
    case Layer::kField: return "core.field";
    case Layer::kAutomaton: return "automaton";
    case Layer::kCheck: return "check";
    case Layer::kFaults: return "faults";
    case Layer::kSnapshot: return "snapshot";
    case Layer::kService: return "service";
    case Layer::kCount: break;
  }
  return "?";
}

std::int32_t Tracer::open(const char* name, Layer layer) {
  const auto index = static_cast<std::int32_t>(spans_.size());
  const std::int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, layer, now_ns(), 0, parent});
  stack_.push_back(index);
  return index;
}

void Tracer::close(std::int32_t index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  stack_.pop_back();
}

void Tracer::merge(const Tracer& other) {
  const auto offset = static_cast<std::int32_t>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += offset;
    spans_.push_back(s);
  }
}

std::vector<double> Tracer::op_self_seconds() const {
  const std::size_t n = spans_.size();
  std::vector<std::int64_t> child(n, 0);
  std::vector<std::int32_t> root(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    if (s.parent < 0) {
      root[i] = static_cast<std::int32_t>(i);
    } else {
      root[i] = root[static_cast<std::size_t>(s.parent)];
      child[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::vector<double> self(static_cast<std::size_t>(Layer::kCount), 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    if (spans_[static_cast<std::size_t>(root[i])].layer != Layer::kOp) continue;
    const Span& s = spans_[i];
    self[static_cast<std::size_t>(s.layer)] +=
        static_cast<double>(s.end_ns - s.start_ns - child[i]) * 1e-9;
  }
  return self;
}

double Tracer::op_seconds() const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.parent < 0 && s.layer == Layer::kOp) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

double Tracer::total_seconds(const char* name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (std::string_view(s.name) == name) {
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
    }
  }
  return total;
}

std::size_t Tracer::count(const char* name) const {
  return static_cast<std::size_t>(
      std::count_if(spans_.begin(), spans_.end(), [&](const Span& s) {
        return std::string_view(s.name) == name;
      }));
}

bool Tracer::write(const std::string& path, const std::string& workload) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"layer\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %d, \"workload\": \"%s\"}\n",
                 s.name, layer_name(s.layer), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent, workload.c_str());
  }
  return std::fclose(f) == 0;
}

void Carver::carve(Layer to, double seconds) {
  double& engine = self[static_cast<std::size_t>(Layer::kEngine)];
  const double moved = std::clamp(seconds, 0.0, std::max(engine, 0.0));
  engine -= moved;
  self[static_cast<std::size_t>(to)] += moved;
  clamped += std::max(seconds, 0.0) - moved;
}

double report_self_times(Report& report, const Carver& carved,
                         double op_seconds) {
  double covered = 0.0;
  for (std::size_t i = 1; i < carved.self.size(); ++i) {
    report.set(std::string("self_s.") + layer_name(static_cast<Layer>(i)),
               carved.self[i]);
    covered += carved.self[i];
  }
  report.set("trace.unattributed_s", carved.self[0]);
  report.set("trace.clamped_s", carved.clamped);
  // The clamped excess counts: an estimate that overshoots the engine time
  // it is carved from pushes the closure above 1 instead of vanishing.
  const double closure =
      op_seconds > 0.0 ? (covered + carved.clamped) / op_seconds : 0.0;
  report.set("trace.closure", closure);
  return closure;
}

// --- replica probes -------------------------------------------------------------

namespace {

/// Runs `body` in batches until ~`budget_s` elapsed; returns ns per call.
template <typename Body>
double time_per_call(double budget_s, std::uint64_t batch, const Body& body) {
  std::uint64_t calls = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    for (std::uint64_t i = 0; i < batch; ++i) body(calls + i);
    calls += batch;
    elapsed = seconds_since(t0);
  } while (elapsed < budget_s);
  return elapsed * 1e9 / static_cast<double>(calls);
}

}  // namespace

double probe_delta_ns(const core::Engine& engine, std::uint64_t seed) {
  const core::Automaton& stepper = engine.compiled() != nullptr
                                       ? *engine.compiled()
                                       : engine.automaton();
  const bool mask_kernel = engine.automaton().state_count() <= 64;
  const core::NodeId n = engine.graph().num_nodes();
  util::Rng rng(seed);
  constexpr std::size_t kSamples = 512;
  std::vector<core::StateId> states;
  std::vector<core::Signal> signals;
  std::vector<std::uint64_t> masks;
  for (std::size_t i = 0; i < kSamples; ++i) {
    const auto v = static_cast<core::NodeId>(rng.below(n));
    states.push_back(engine.state_of(v));
    signals.push_back(engine.signal_of(v));
    std::uint64_t mask = 0;
    if (mask_kernel) {
      for (const core::StateId q : signals.back().states()) mask |= 1ULL << q;
    }
    masks.push_back(mask);
  }
  std::vector<core::SignalView> views(signals.begin(), signals.end());
  std::uint64_t sink = 0;
  const double ns = time_per_call(0.05, kSamples, [&](std::uint64_t i) {
    const std::size_t k = i % kSamples;
    sink += mask_kernel ? stepper.step_mask(states[k], masks[k], rng)
                        : stepper.step_fast(states[k], views[k], rng);
  });
  if (sink == 0xFFFFFFFFFFFFFFFFULL) std::printf("#\n");  // keep the calls
  return ns;
}

double probe_draw_ns(const std::string& scheduler, const graph::Graph& g,
                     std::uint64_t seed) {
  auto sched = ssau::sched::make_scheduler(scheduler, g);
  util::Rng rng(seed);
  std::vector<core::NodeId> out;
  return time_per_call(0.02, 64, [&](std::uint64_t t) {
    out.clear();
    sched->activations(t, out, rng);
  });
}

double probe_field_patch_ns(const core::Engine& engine, std::uint64_t seed) {
  const core::NodeId n = engine.graph().num_nodes();
  const core::StateId q_count = engine.automaton().state_count();
  // The replica is indexed like the engine's graph (layout ids); the
  // benchmark's engines never carry a permutation, so config() matches.
  core::Configuration config = engine.config();
  core::SignalField field(engine.graph(), q_count, config);
  util::Rng rng(seed);
  return time_per_call(0.02, 64, [&](std::uint64_t) {
    const auto v = static_cast<core::NodeId>(rng.below(n));
    const auto to = static_cast<core::StateId>(rng.below(q_count));
    field.apply_transition(v, config[v], to);
    config[v] = to;
  });
}

// --- helpers ----------------------------------------------------------------------

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::uint64_t total_activations(const core::Engine& engine) {
  std::uint64_t total = 0;
  const core::NodeId n = engine.graph().num_nodes();
  for (core::NodeId v = 0; v < n; ++v) total += engine.activation_count(v);
  return total;
}

double quantile(std::vector<double> xs, double q) {
  if (xs.empty()) return 0.0;
  std::sort(xs.begin(), xs.end());
  const double pos = q * static_cast<double>(xs.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, xs.size() - 1);
  return xs[lo] + (xs[hi] - xs[lo]) * (pos - static_cast<double>(lo));
}

double mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return std::accumulate(xs.begin(), xs.end(), 0.0) /
         static_cast<double>(xs.size());
}

bool random_edge(const graph::Graph& g, util::Rng& rng,
                 std::pair<graph::NodeId, graph::NodeId>& edge) {
  const auto u = static_cast<graph::NodeId>(rng.below(g.num_nodes()));
  const auto nbrs = g.neighbors(u);
  if (nbrs.empty()) return false;
  const graph::NodeId w = nbrs[rng.below(nbrs.size())];
  edge = {g.to_user(u), g.to_user(w)};
  return true;
}

}  // namespace bench
