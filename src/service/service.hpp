// SimulationService — many sessions, one worker pool (ROADMAP item 3).
//
// The service multiplexes an arbitrary number of Sessions over a fixed pool
// of worker threads fed by ONE bounded command queue:
//
//   submit(id, cmd) ──▶ per-session FIFO ──▶ ready queue ──▶ worker pool
//        (blocks when `queue_capacity` commands are pending: backpressure)
//
// Ordering and determinism: commands for the SAME session execute strictly
// in submission order, and at most one worker touches a session at a time
// (a session is either in the ready queue or active on one worker, never
// both). Sessions therefore run serially with respect to themselves —
// trajectories are bit-identical to a standalone engine regardless of the
// worker count — while distinct sessions execute concurrently. The pool is
// the primary parallelism axis, so a session spec asking for "auto" threads
// (thread_count == 0) is resolved through
// ParallelEngine::recommended_threads(workers): the hardware budget divided
// by the worker count (at least 1), which keeps `workers` concurrently
// executing sessions from multiplying into workers x cores engine threads.
// An EXPLICIT thread_count is honored verbatim — deliberate
// oversubscription (bench experiments, latency probes) stays expressible;
// trajectories are bit-identical at every setting either way.
//
// Isolation: a command that makes apply() report Status::kError (an
// exception escaped the engine mid-command) quarantines that session —
// its queued and future commands complete immediately with kQuarantined
// and the stored reason — without disturbing siblings or the pool.
//
// Shutdown: shutdown() stops accepting new commands, drains everything
// already queued, and joins the workers. Every submitted future is
// fulfilled — the service never drops an accepted command.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "service/session.hpp"

namespace ssau::service {

struct ServiceOptions {
  /// Worker threads; 0 = hardware concurrency
  /// (ParallelEngine::resolve_thread_count).
  unsigned workers = 0;
  /// Total pending commands across all sessions before submit() blocks.
  std::size_t queue_capacity = 4096;
};

class SimulationService {
 public:
  using SessionId = std::uint64_t;

  /// Spawns the worker pool. If a spawn fails, the started workers are
  /// joined before the std::system_error propagates.
  explicit SimulationService(ServiceOptions options = {});
  /// Equivalent to shutdown() — no accepted command is dropped.
  ~SimulationService();
  SimulationService(const SimulationService&) = delete;
  SimulationService& operator=(const SimulationService&) = delete;

  /// Creates a session from the spec and returns its id. A thread_count of
  /// 0 ("auto") resolves to ParallelEngine::recommended_threads(workers())
  /// — the no-oversubscription default; explicit values pass through
  /// verbatim (see header comment). Throws std::invalid_argument on a
  /// malformed spec, std::runtime_error after shutdown.
  SessionId open_session(SessionSpec spec);

  /// Adopts a pre-built session (e.g. Session::restore_checkpoint).
  SessionId adopt_session(std::unique_ptr<Session> session);

  /// Enqueues a command for `id` and returns a future for its Result.
  /// BLOCKS while the total pending count is at queue_capacity
  /// (backpressure). Commands of one session resolve in submission order.
  /// Throws std::out_of_range for an unknown id, std::runtime_error after
  /// shutdown began.
  std::future<Result> submit(SessionId id, Command command);

  /// Blocks until every pending command has completed. New submissions stay
  /// allowed (callers coordinate their own quiescence).
  void drain();

  /// Stops accepting commands, drains the queues, joins the workers.
  /// Idempotent.
  void shutdown();

  /// True when the session hit Status::kError and was quarantined.
  [[nodiscard]] bool quarantined(SessionId id) const;
  /// The stored kError message for a quarantined session ("" otherwise).
  [[nodiscard]] std::string quarantine_reason(SessionId id) const;

  /// Direct access to a session — meaningful only when no commands for it
  /// are in flight (after drain()/shutdown()). Throws std::out_of_range for
  /// an unknown id.
  [[nodiscard]] Session& session(SessionId id);

  [[nodiscard]] unsigned workers() const { return worker_count_; }
  [[nodiscard]] std::size_t pending() const;
  /// High-water mark of the pending count (backpressure observability).
  [[nodiscard]] std::size_t peak_pending() const;
  [[nodiscard]] std::uint64_t commands_completed() const;

  /// Per-command queue+execute latencies in seconds (submit → completion),
  /// appended as commands finish. Read after drain() for a stable view.
  [[nodiscard]] std::vector<double> latency_samples() const;

 private:
  struct Item {
    Command command;
    std::promise<Result> promise;
    std::chrono::steady_clock::time_point enqueued;
  };

  struct Slot {
    std::unique_ptr<Session> session;
    std::deque<Item> fifo;
    bool active = false;  // one worker holds the session right now
    bool quarantined = false;
    std::string quarantine_error;
  };

  void worker_loop();

  ServiceOptions options_;
  unsigned worker_count_ = 0;

  mutable std::mutex mu_;
  std::condition_variable work_ready_;    // workers: ready queue non-empty
  std::condition_variable space_ready_;   // producers: below capacity
  std::condition_variable idle_;          // drain(): pending == 0
  std::unordered_map<SessionId, std::unique_ptr<Slot>> slots_;
  std::deque<Slot*> ready_;               // sessions with runnable commands
  SessionId next_id_ = 1;
  std::size_t pending_ = 0;               // queued + executing commands
  std::size_t peak_pending_ = 0;
  std::uint64_t completed_ = 0;
  bool accepting_ = true;
  bool stopping_ = false;
  std::vector<double> latencies_;
  std::vector<std::thread> threads_;
};

}  // namespace ssau::service
