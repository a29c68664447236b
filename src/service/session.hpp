// engine::Session — the one command surface over the simulation engine.
//
// PRs 1-6 grew five distinct mutation entry points — Engine::step/run_rounds,
// inject_state/inject_configuration, apply_topology_delta, snapshot
// checkpoints, and the command-log record types — each with its own calling
// convention, and every driver (tests, benches, tools/replay, fault
// campaigns) re-wired them by hand. Session collapses them into ONE typed
// entry point:
//
//   Session::apply(const core::Command&) -> Result
//
// core::Command (core/command_log.hpp) is deliberately the SAME type the
// command log decodes to, extended with session-only kinds, so every record
// read_command_log yields is directly applicable and — symmetrically — every
// mutation applied through a recording session lands in its log. Record and
// replay are therefore properties of every session, not a bespoke tool path:
//
//   command               engine effect                    log record
//   ---------------------------------------------------------------------
//   kSteps(count)         step() x count                   kSteps(count)
//   kRunRounds(count)     run_rounds(count)                kSteps(steps run)
//   kInjectState          inject_state(v, q)               kInjectState
//   kInjectConfiguration  inject_configuration(config)     kInjectConfiguration
//   kTopologyDelta        apply_topology_delta(delta)      kTopologyDelta
//   kSnapshot(path)       snapshot::write_checkpoint       (none: artifact)
//   kQueryConfig          read config()                    (none: pure read)
//   kQueryStats           read time/rounds/topology        (none: pure read)
//   kQueryHash            read engine_state_hash           kExpectHash(observed)
//   kExpectHash(h)        compare engine_state_hash to h   kExpectHash(observed)
//
// Error surface (the capability redesign): apply never leaks an exception.
// Engine throw sites map to typed Result statuses —
//
//   condition                                     Status
//   -----------------------------------------------------------------------
//   kTopologyDelta on a session whose engine was  kUnsupported (checked up
//   built over a const graph (no churn            front via
//   capability — formerly a raw std::logic_error  Engine::churn_capable();
//   with free-text)                               the logic_error never fires)
//   std::invalid_argument (out-of-range node /    kInvalidArgument (engine
//   state, config size mismatch, malformed        validates before mutating —
//   delta)                                        state is untouched)
//   util::SnapshotError (checkpoint / log I/O)    kIoError (engine state is
//                                                 intact; only the artifact
//                                                 failed)
//   kExpectHash digest divergence                 kHashMismatch (not an
//                                                 engine failure; replays
//                                                 count these)
//   anything else (bad_alloc, a throwing          kError — the engine may be
//   automaton mid-step, ...)                      half-stepped; the service
//                                                 quarantines the session
//
// A session either OWNS its collaborators (built from a SessionSpec, or
// restored from a snapshot — always churn-capable, recording available) or
// BORROWS a caller's live Engine (the fault campaign's checkpoint path —
// capability inherited from the engine, recording unavailable because the
// replay header needs factory specs the engine cannot provide).
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <string>

#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "sched/scheduler.hpp"

namespace ssau::service {

using core::Command;
using core::CommandType;

/// Factory helpers — one per command kind, so drivers never hand-assemble
/// Command structs.
namespace cmd {
[[nodiscard]] Command step(std::uint64_t count = 1);
[[nodiscard]] Command run_rounds(std::uint64_t rounds);
[[nodiscard]] Command inject_state(core::NodeId v, core::StateId q);
[[nodiscard]] Command inject_configuration(core::Configuration config);
[[nodiscard]] Command topology_delta(graph::TopologyDelta delta);
[[nodiscard]] Command snapshot(std::string path);
[[nodiscard]] Command query_config();
[[nodiscard]] Command query_stats();
[[nodiscard]] Command query_hash();
[[nodiscard]] Command expect_hash(std::uint64_t hash);
}  // namespace cmd

enum class Status : std::uint8_t {
  kOk = 0,
  /// The command is not supported by this session (TopologyDelta without the
  /// churn capability). The engine was not touched.
  kUnsupported,
  /// The command's arguments failed validation (engine untouched — every
  /// mutation validates before it mutates).
  kInvalidArgument,
  /// kExpectHash: the live digest differs from the expected one. The engine
  /// is healthy; Result::hash carries the observed digest.
  kHashMismatch,
  /// A checkpoint or log write failed (disk, permissions). Engine healthy.
  kIoError,
  /// The session was quarantined by an earlier kError and executes nothing
  /// anymore (set by SimulationService, never by Session itself).
  kQuarantined,
  /// An unexpected exception escaped the engine mid-command; its state may
  /// be inconsistent. SimulationService quarantines the session.
  kError,
};

[[nodiscard]] const char* status_name(Status s);

/// Cheap observability counters (kQueryStats).
struct SessionStats {
  core::NodeId nodes = 0;
  std::uint64_t edges = 0;
  core::Time time = 0;
  std::uint64_t rounds = 0;
  std::uint64_t activations = 0;  // sum over all nodes
  bool churn_capable = false;
};

struct Result {
  Status status = Status::kOk;
  /// Human-readable failure detail; empty iff status == kOk.
  std::string error;
  /// Engine steps this command executed (kSteps: the count; kRunRounds: the
  /// actual steps the rounds took).
  std::uint64_t steps = 0;
  /// Observed engine_state_hash (kQueryHash and kExpectHash).
  std::uint64_t hash = 0;
  core::Configuration config;  // kQueryConfig
  SessionStats stats;          // kQueryStats
  [[nodiscard]] bool ok() const { return status == Status::kOk; }
};

/// Everything needed to build (or rebuild) a session's collaborators from
/// strings — the factory half of the replay header, plus a graph family.
struct SessionSpec {
  /// Every numeric parameter below must be a whole token that fits its type
  /// (int for D and M, unsigned for m >= 1 and node counts, a decimal for
  /// probabilities): "3junk", "-1" for a count, or "1x" is malformed.
  ///
  /// Automaton spec (colon-separated parameters):
  ///   alg-au:<D> | reset-unison:<D>:<M> | min-prop:<m> | alg-mis:<D> |
  ///   alg-le:<D>
  std::string automaton = "alg-au:3";
  /// sched::make_scheduler name plus its two factory knobs.
  std::string scheduler = "uniform-single";
  double subset_p = 0.5;
  unsigned burst = 4;
  /// Graph family spec:
  ///   random:<n>:<p> | complete:<n> | cycle:<n> | path:<n> | star:<n> |
  ///   grid:<r>:<c> | torus:<r>:<c> | damaged-clique:<n>:<drop_p> |
  ///   ring-of-cliques:<cliques>:<size>
  /// Randomized families draw from a stream forked off `seed`.
  std::string graph = "random:256:0.05";
  /// Initial configuration: "random" (uniform over Q, forked off `seed`) or
  /// "uniform:<q>".
  std::string initial = "random";
  std::uint64_t seed = 0;
  core::EngineOptions options;
};

/// Builds an automaton from its spec string (shared by the service, the
/// replay driver, and the line-protocol tool — one factory, one grammar).
/// Throws std::invalid_argument on an unknown or malformed spec.
[[nodiscard]] std::unique_ptr<core::Automaton> make_automaton(
    const std::string& spec);

/// Builds a graph from a SessionSpec-style family spec. Randomized families
/// use a dedicated rng stream forked off `seed`. Throws
/// std::invalid_argument on an unknown family or malformed parameters.
[[nodiscard]] graph::Graph make_graph(const std::string& spec,
                                      std::uint64_t seed);

/// The SessionSpec equivalent of a command-log header (graph/initial left at
/// their defaults — a restored session takes its topology and configuration
/// from the snapshot, not the spec).
[[nodiscard]] SessionSpec spec_from_header(const core::ReplayHeader& header);

class Session {
 public:
  /// Owning session: builds graph, automaton, scheduler, and engine from the
  /// spec. Always churn-capable (the session owns a mutable graph). Throws
  /// std::invalid_argument on a malformed spec.
  explicit Session(const SessionSpec& spec);

  /// Borrowing session over a caller's live engine (and its collaborators,
  /// which must outlive the session). Churn capability is inherited from
  /// the engine; recording is unavailable (no factory specs to stamp into a
  /// replay header).
  explicit Session(core::Engine& engine);

  /// Restores an owning session from validated snapshot bytes: automaton and
  /// scheduler are built from the spec, the graph and full engine state come
  /// from the snapshot (spec.graph / spec.initial are ignored). Engine
  /// options are the snapshotted ones. Throws util::SnapshotError on any
  /// mismatch, std::invalid_argument on a malformed spec.
  [[nodiscard]] static std::unique_ptr<Session> restore(
      std::span<const std::uint8_t> snapshot_bytes, const SessionSpec& spec);

  /// restore() from a checkpoint file, with the crash-consistency fallback:
  /// `path` if it validates, else `path + ".prev"`
  /// (snapshot::read_checkpoint).
  [[nodiscard]] static std::unique_ptr<Session> restore_checkpoint(
      const std::string& path, const SessionSpec& spec);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  /// THE command surface. Dispatches per the table above; never throws.
  /// When recording, successfully applied mutations (and observed digests)
  /// are appended to the log before apply returns.
  Result apply(const Command& command);

  /// Starts appending every subsequent mutation to a command log at `path`
  /// (header stamped from this session's spec + live engine options).
  /// Throws std::logic_error on a borrowed session, util::SnapshotError when
  /// the log cannot be opened.
  void start_recording(const std::string& log_path);
  /// Flushes and closes the log. No-op when not recording.
  void stop_recording();
  [[nodiscard]] bool recording() const { return log_ != nullptr; }

  /// True when TopologyDelta commands are executable (owning sessions
  /// always; borrowed ones iff their engine is churn-capable).
  [[nodiscard]] bool churn_capable() const { return engine_->churn_capable(); }

  /// The session's spec, or nullptr for a borrowed session.
  [[nodiscard]] const SessionSpec* spec() const {
    return spec_ ? &*spec_ : nullptr;
  }

  /// Direct engine access for inspection (tests, tools). Mutating the engine
  /// behind a recording session's back desynchronizes the log — route
  /// mutations through apply().
  [[nodiscard]] const core::Engine& engine() const { return *engine_; }
  [[nodiscard]] core::Engine& engine() { return *engine_; }

  /// Heap bytes owned by this session's dynamic state: the engine's (see
  /// Engine::dynamic_memory_usage) plus, for owning sessions, the graph's
  /// CSR storage. Borrowed collaborators are not charged — see
  /// util/memusage.hpp for the ownership contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    std::size_t total = engine_->dynamic_memory_usage();
    if (graph_) total += graph_->dynamic_memory_usage();
    return total;
  }

 private:
  Session() = default;

  std::optional<SessionSpec> spec_;
  // Owning sessions hold their collaborators; borrowed sessions leave these
  // null. Declaration order is destruction-order-critical: the engine
  // borrows all three.
  std::unique_ptr<graph::Graph> graph_;
  std::unique_ptr<core::Automaton> automaton_;
  std::unique_ptr<sched::Scheduler> scheduler_;
  std::unique_ptr<core::Engine> owned_engine_;
  core::Engine* engine_ = nullptr;  // owned_engine_.get() or the borrowed one
  std::unique_ptr<core::CommandLogWriter> log_;
};

}  // namespace ssau::service
