// Fork-join shard pool driving the sharded engine kernels.
//
// run(shards, fn) executes fn(shards[i], i, participant) once per shard and
// returns when all of them finished. The shard list may be any non-empty
// length: the engine cuts kShardsPerParticipant shards per participant
// (core/shard.hpp), so a participant that wakes late or sits on a slow vCPU
// simply claims fewer of them. The caller (participant 0) and the workers
// (participants 1..P-1) claim shards from one cursor under one mutex, and
// the caller blocks only once every shard is claimed. Shards are many
// microseconds of automaton stepping, so one lock per claim is noise, and
// the mutex orders every shard's writes before run() returns
// (ThreadSanitizer-clean by construction).
//
// The participant index names the thread running the body: a participant
// runs one body at a time, so state indexed by it (the engine's sense
// scratch and lazy memo) is never shared between concurrent bodies.
//
// Exception contract: a throwing shard never terminates a worker and never
// lets the caller unwind while other shards still execute. Every shard of
// the call runs, the first exception is rethrown from run() on the caller,
// and the pool stays usable after.
//
// The pool is policy-free: it knows nothing about engines or automata. The
// Engine's bit-identical-to-serial guarantees live entirely in how it
// splits a step into consecutive run() calls and merges their effects.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <exception>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "core/shard.hpp"
#include "util/memusage.hpp"

namespace ssau::core {

class ParallelEngine {
 public:
  /// Non-owning shard callback (capture-free function pointer + context):
  /// no std::function, no per-step allocation on the hot path.
  struct ShardFnRef {
    using Fn = void (*)(void* ctx, const Shard& shard, unsigned shard_index,
                        unsigned participant);
    Fn fn = nullptr;
    void* ctx = nullptr;

    /// Wraps a callable lvalue taking (const Shard&, unsigned shard_index,
    /// unsigned participant); `f` must outlive every execution of the
    /// returned ref.
    template <typename F>
    [[nodiscard]] static ShardFnRef of(F& f) {
      return {+[](void* ctx, const Shard& shard, unsigned shard_index,
                  unsigned participant) {
                (*static_cast<F*>(ctx))(shard, shard_index, participant);
              },
              const_cast<void*>(
                  static_cast<const void*>(std::addressof(f)))};
    }

    void operator()(const Shard& shard, unsigned shard_index,
                    unsigned participant) const {
      fn(ctx, shard, shard_index, participant);
    }
  };

  /// Spawns participants - 1 worker threads (the caller is the remaining
  /// participant); `participants` must be positive. If a spawn fails, the
  /// started workers are joined before the std::system_error propagates.
  explicit ParallelEngine(unsigned participants);
  /// Stops and joins the workers.
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Executes fn(shards[i], i, participant) exactly once for every i, where
  /// `participant` < participants() names the thread running that body
  /// (0 = the caller, 1..participants() - 1 = the workers); no participant
  /// ever runs two bodies at once. `shards` must be non-empty (any length)
  /// and stay alive until run returns; memory effects of every shard
  /// happen-before the return. A one-shard list runs inline on the caller.
  /// Rethrows the first exception any shard raised, after all of them
  /// finished.
  void run(const std::vector<Shard>& shards, ShardFnRef fn);

  /// Wraps any callable via ShardFnRef::of; it only needs to live through
  /// this synchronous call.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_convertible_v<std::decay_t<F>, ShardFnRef>>>
  void run(const std::vector<Shard>& shards, F&& fn) {
    auto& ref = fn;  // materialized argument outlives the synchronous run
    run(shards, ShardFnRef::of(ref));
  }

  /// The threads that run shards: the workers plus the caller.
  [[nodiscard]] unsigned participants() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Nanoseconds the caller has spent blocked in run() after every shard of
  /// the call was claimed, waiting for the workers to finish theirs — the
  /// pool's residual join cost. Monotonic; caller thread only.
  [[nodiscard]] std::uint64_t barrier_wait_ns() const {
    return barrier_wait_ns_;
  }

  /// Resolves an EngineOptions::thread_count request: 0 = auto (hardware
  /// concurrency, at least 1 — std::thread::hardware_concurrency() may
  /// return 0 on runners that cannot report it, which must resolve to 1,
  /// never 0), anything else verbatim.
  [[nodiscard]] static unsigned resolve_thread_count(unsigned requested);

  /// Thread budget per engine when `sessions` engines run concurrently on
  /// this host (the service pool's oversubscription guard): hardware
  /// concurrency divided by the session count, both clamped to at least 1.
  /// With sessions >= cores this is 1 — pooled sessions that each resolve
  /// thread_count=0 must not multiply into sessions x cores threads.
  [[nodiscard]] static unsigned recommended_threads(unsigned sessions);

  /// Heap bytes owned by the pool (its worker handles) — see
  /// util/memusage.hpp for the contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return util::DynamicUsage(workers_);
  }

 private:
  void worker_loop(unsigned participant);
  /// Claims and executes shards of the current call as `participant` until
  /// none is left unclaimed, capturing the first exception. mu_ held on
  /// entry and exit.
  void claim_shards(std::unique_lock<std::mutex>& lock, unsigned participant);
  void stop_workers();

  std::mutex mu_;
  std::condition_variable work_ready_;  // workers: shards to claim / stop
  std::condition_variable all_done_;    // caller: the call's last shard ended
  const Shard* shards_ = nullptr;       // the current call's shard list
  ShardFnRef fn_;
  std::size_t shard_count_ = 0;
  std::size_t next_shard_ = 0;  // cursor: shards below it are claimed
  std::size_t unfinished_ = 0;
  std::exception_ptr error_;  // first exception of the current call
  std::uint64_t barrier_wait_ns_ = 0;
  bool stopping_ = false;
  // Declared last: the workers use every member above.
  std::vector<std::thread> workers_;
};

}  // namespace ssau::core
