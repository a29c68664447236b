// Shared plumbing of the repository benchmark: options, the metric report,
// the span tracer, and the replica probes that split a step's time by layer.
//
// The benchmark drives the library only through its public API. Every
// per-layer number comes from timing those calls from outside (spans), from
// the engine's public counters, or from a replica probe that replays a
// layer's call on sampled inputs; nothing is instrumented inside src/.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace bench {

namespace core = ssau::core;
namespace graph = ssau::graph;
namespace util = ssau::util;

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point a) {
  return std::chrono::duration<double>(Clock::now() - a).count();
}

/// stabilize-1m and serve-mixed set up their instance again while
/// more_setups() holds and report the median as setup_s; the last instance
/// is the one they measure. (recover-clique sets up once per replay pass.)
/// At least 5 set-ups and 2 s of them: a cheap set-up (~0.1 s) is repeated
/// ~20 times, whose median is steadier than that of 5.
inline bool more_setups(const std::vector<double>& seconds) {
  double total = 0.0;
  for (const double s : seconds) total += s;
  return seconds.size() < 5 || total < 2.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Reduced instance sizes (the benchmark's own test).
  bool small = false;
  /// Scratch directory for checkpoints (inside the checkout).
  std::string tmp_dir;
  /// Where the traced run writes its spans ("" = do not write).
  std::string trace_out;
  /// CPUs this process may run on (the thread budget).
  unsigned cpus = 1;
};

// --- metric report ------------------------------------------------------------

struct MetricDef {
  const char* name;
  const char* unit;
};

/// The end-to-end metrics every workload prints with --trace 0. Generic on
/// purpose: each workload has one kind of operation (a stabilization round, a
/// burst recovery, a service command), and these describe it.
extern const std::vector<MetricDef> kEndToEnd;
/// The per-layer metrics every workload prints with --trace 1; a layer the
/// workload does not exercise reads 0.
extern const std::vector<MetricDef> kPerLayer;

class Report {
 public:
  /// Sets a metric declared in kEndToEnd or kPerLayer (aborts otherwise: a
  /// misspelt name must not silently drop a number).
  void set(const std::string& name, double value);
  [[nodiscard]] double get(const std::string& name) const;

  /// A human-readable line under the paper's own metric names.
  void note(const std::string& name, double value, const std::string& unit);

  /// Records that the correctness check `name` ran, and whether it held
  /// (a check that runs several times holds only if it always held). Any
  /// failed check makes the run incorrect.
  void check(const std::string& name, bool ok);

  /// Records a correctness violation with its detail (the first few are
  /// printed); the run then exits non-zero.
  void violation(const std::string& what);

  /// Counts one attempted operation, failed or not.
  void attempt(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
  }

  [[nodiscard]] bool correct() const;

  /// Prints the notes, the violations, and the final JSON line.
  void print(bool trace) const;

 private:
  std::map<std::string, double> values_;
  std::vector<std::string> notes_;
  std::map<std::string, bool> checks_;
  std::vector<std::string> violations_;
  std::size_t violation_count_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
};

// --- tracing ------------------------------------------------------------------

/// The repo's modules, as the per-layer split names them. kOp marks a
/// workload operation's root span; its self time is the part of the
/// operation no layer call covers.
enum class Layer : std::uint8_t {
  kOp = 0,
  kGraph,
  kSched,
  kEngine,
  kRuntime,
  kField,
  kAutomaton,
  kCheck,
  kFaults,
  kSnapshot,
  kService,
  kCount,
};

[[nodiscard]] const char* layer_name(Layer layer);

struct Span {
  const char* name;
  Layer layer;
  std::int64_t start_ns;
  std::int64_t end_ns;
  std::int32_t parent;  // index into the tracer's spans, -1 for a root
};

/// In-memory span recorder for one thread. Disabled tracers record nothing
/// and read no clock, so the untraced run pays only a branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  class Scope {
   public:
    Scope(Tracer* t, std::int32_t index) : tracer_(t), index_(index) {}
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope() { end(); }
    /// Closes the span early (idempotent).
    void end() {
      if (tracer_ != nullptr) tracer_->close(index_);
      tracer_ = nullptr;
    }

   private:
    Tracer* tracer_;
    std::int32_t index_;
  };

  /// Opens a span that closes when the returned scope ends; spans opened
  /// while it is open become its children.
  [[nodiscard]] Scope span(const char* name, Layer layer) {
    if (!enabled_) return {nullptr, -1};
    return {this, open(name, layer)};
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Appends another tracer's spans (re-rooting its parent indices).
  void merge(const Tracer& other);

  /// Self time per layer over the subtrees of root spans whose layer is
  /// kOp, in seconds; index kOp holds the uncovered remainder.
  [[nodiscard]] std::vector<double> op_self_seconds() const;
  /// Summed duration of those op roots, in seconds.
  [[nodiscard]] double op_seconds() const;
  /// Summed duration of every span named `name`, in seconds.
  [[nodiscard]] double total_seconds(const char* name) const;
  [[nodiscard]] std::size_t count(const char* name) const;

  /// Writes one JSON object per span (name, layer, start, end, parent,
  /// workload). Returns false when the file cannot be written.
  bool write(const std::string& path, const std::string& workload) const;

 private:
  std::int32_t open(const char* name, Layer layer);
  void close(std::int32_t index);

  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// Per-layer self times (from Tracer::op_self_seconds) being split further
/// by replica-probe estimates.
struct Carver {
  std::vector<double> self;
  /// Estimated seconds that did not fit in the engine's measured time.
  double clamped = 0.0;

  /// Moves `seconds` of measured engine self time into `to` (an estimated
  /// share of the step that a replica probe attributes to a lower layer),
  /// never more than the engine still holds; the excess adds to `clamped`.
  void carve(Layer to, double seconds);
};

/// Fills the per-layer self-time metrics, trace.clamped_s and the closure
/// ratio, (self times + clamped excess) / op total; returns the closure.
double report_self_times(Report& report, const Carver& carved,
                         double op_seconds);

// --- replica probes -------------------------------------------------------------

/// Mean wall-clock ns of one δ evaluation, timed on (state, signal) pairs
/// sampled from the live engine and replayed through the engine's own
/// stepper (its compiled table when it has one, else the automaton).
[[nodiscard]] double probe_delta_ns(const ssau::core::Engine& engine,
                                    std::uint64_t seed);

/// Mean wall-clock ns of one Scheduler::activations call, replayed on a
/// fresh replica of the named scheduler over `g`.
[[nodiscard]] double probe_draw_ns(const std::string& scheduler,
                                   const ssau::graph::Graph& g,
                                   std::uint64_t seed);

/// Mean wall-clock ns of one SignalField::apply_transition, replayed on a
/// replica field over the engine's graph and configuration.
[[nodiscard]] double probe_field_patch_ns(const ssau::core::Engine& engine,
                                          std::uint64_t seed);

// --- helpers ----------------------------------------------------------------------

/// Peak resident set size of this process, in MB.
[[nodiscard]] double peak_rss_mb();

/// Sum of every node's activation count (O(n)).
[[nodiscard]] std::uint64_t total_activations(const ssau::core::Engine& engine);

/// The q-quantile of `xs` (linear interpolation; 0 for an empty sample).
[[nodiscard]] double quantile(std::vector<double> xs, double q);
[[nodiscard]] double mean(const std::vector<double>& xs);

/// A uniformly random existing edge {u, w} of `g` (user ids), or false when
/// the drawn endpoint is isolated.
bool random_edge(const ssau::graph::Graph& g, ssau::util::Rng& rng,
                 std::pair<ssau::graph::NodeId, ssau::graph::NodeId>& edge);

// --- workloads ----------------------------------------------------------------------

void run_stabilize(const Options& options, Report& report);
void run_recover(const Options& options, Report& report);
void run_serve(const Options& options, Report& report);

}  // namespace bench
