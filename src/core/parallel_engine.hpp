// Task-graph runtime driving the sharded engine kernels.
//
// PR 2's pool was a lockstep epoch barrier: publish one callback, wake every
// worker, wait for all of them, twice per step. This runtime generalizes it
// into a small dependency-scheduled task graph so the engine can keep
// several phases in flight at once:
//
//   * a task is `{fn, shard, shard_index, seq}` plus an explicit unmet-
//     dependency count; add_task() wires edges to earlier tasks, and a task
//     becomes runnable when its last dependency completes;
//   * each participant (the caller plus shard_count()-1 workers) owns a
//     deque of runnable tasks: the owner pushes and pops at the back (LIFO —
//     a task's dependents stay cache-warm on the thread that released them),
//     idle participants steal from the front of another deque (FIFO — they
//     take the oldest, least-warm work). The deques and the dependency
//     bookkeeping are guarded by one runtime mutex: stealing is a scheduling
//     policy here, not a lock-free structure — tasks are shard-sized (many
//     microseconds of automaton stepping), so a mutex acquisition per
//     transition is noise, and the mutex gives every completion→activation
//     edge its happens-before for free (ThreadSanitizer-clean by
//     construction);
//   * the caller participates: wait_all() executes runnable tasks itself and
//     only blocks (accumulating barrier_wait_ns) when the graph has
//     unfinished tasks but nothing runnable — the old "caller runs shard 0"
//     degenerate case falls out naturally.
//
// The epoch-style run() entry points survive as one-generation graphs (one
// independent task per shard, then wait_all) — the sparse-activation kernel
// and the tests keep their shape. Exception contract unchanged: a throwing
// task never terminates a worker and never lets the caller unwind while
// tasks still execute; every task of the generation runs (a failed task
// still releases its dependents), and the first captured exception is
// rethrown from wait_all() on the caller. The runtime stays usable after.
//
// Callbacks are non-owning ShardFnRef (capture-free function pointer +
// context pointer): no std::function, no per-step type erasure or heap
// allocation on the hot path. add_task()/run()/wait_all() are caller-thread
// only (one producer); task bodies run anywhere.
//
// The runtime is deliberately policy-free: it knows nothing about engines or
// automata. The Engine layers the kernels — and their bit-identical-to-
// serial guarantees, which live entirely in how it orders dependencies and
// merges — on top.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <limits>
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
  /// Non-owning shard callback: a capture-free function pointer plus an
  /// opaque context. Replaces the old std::function ShardFn so the engine's
  /// per-step dispatch carries no allocation or type-erasure cost. `seq` is
  /// the caller-chosen sequence tag of the task (epoch counter for the
  /// run() entry points; whatever the caller passes to add_task()).
  struct ShardFnRef {
    using Fn = void (*)(void* ctx, const Shard& shard, unsigned shard_index,
                        std::uint64_t seq);
    Fn fn = nullptr;
    void* ctx = nullptr;

    /// Wraps a callable lvalue (lambda, functor) that takes either
    /// (const Shard&, unsigned) or (const Shard&, unsigned, std::uint64_t).
    /// `f` must outlive every execution of the returned ref — run() and
    /// wait_all() are synchronous, so a local is fine there.
    template <typename F>
    [[nodiscard]] static ShardFnRef of(F& f) {
      return {+[](void* ctx, const Shard& shard, unsigned shard_index,
                  std::uint64_t seq) {
                F& callable = *static_cast<F*>(ctx);
                if constexpr (std::is_invocable_v<F&, const Shard&, unsigned,
                                                  std::uint64_t>) {
                  callable(shard, shard_index, seq);
                } else {
                  callable(shard, shard_index);
                }
              },
              const_cast<void*>(
                  static_cast<const void*>(std::addressof(f)))};
    }

    void operator()(const Shard& shard, unsigned shard_index,
                    std::uint64_t seq) const {
      fn(ctx, shard, shard_index, seq);
    }
  };

  /// Handle to a task within the current generation (between wait_all()
  /// returns). wait_all() resets the arena, invalidating every TaskId.
  using TaskId = std::uint32_t;
  static constexpr TaskId kNoTask = std::numeric_limits<TaskId>::max();

  /// Spawns shards.size() - 1 worker threads (the caller is participant 0).
  /// `shards` must be non-empty.
  explicit ParallelEngine(std::vector<Shard> shards);
  /// Joins the workers. Any tasks still unfinished are abandoned unexecuted
  /// — callers that add tasks must wait_all() before destruction (every
  /// Engine kernel drains its tasks before the step returns).
  ~ParallelEngine();

  ParallelEngine(const ParallelEngine&) = delete;
  ParallelEngine& operator=(const ParallelEngine&) = delete;

  /// Adds one task executing `fn(shard, shard_index, seq)` after every task
  /// in `deps` (ids from this generation; kNoTask and already-completed
  /// entries are skipped) has completed. Tasks that share mutable state —
  /// the engine's per-shard workspaces, a node's rng stream — MUST be
  /// ordered by a dependency path; the runtime only promises that dependency
  /// completion happens-before dependent execution. Caller thread only.
  TaskId add_task(ShardFnRef fn, const Shard& shard, unsigned shard_index,
                  std::uint64_t seq, const TaskId* deps = nullptr,
                  std::size_t dep_count = 0);

  /// Executes runnable tasks on the calling thread until every added task
  /// completed, blocking only when nothing is runnable (that blocked time
  /// accumulates into barrier_wait_ns()). Rethrows the first exception any
  /// task of the generation raised, after all of them finished. Resets the
  /// task arena: previously returned TaskIds become invalid.
  void wait_all();

  /// Epoch-compat entry: one independent task per shard of the fixed
  /// construction-time partition, then wait_all(). Memory effects of every
  /// task happen-before the return.
  void run(ShardFnRef fn);

  /// Same over a caller-supplied per-epoch shard list (the sparse-activation
  /// kernel re-shards the activation list every step): task i executes
  /// shards[i] with shard_index i. `shards` must have 1..shard_count()
  /// entries and stay alive until run returns.
  void run(const std::vector<Shard>& shards, ShardFnRef fn);

  /// Convenience for callable lvalues/rvalues (tests, one-off kernels):
  /// wraps via ShardFnRef::of. The callable only needs to live through this
  /// synchronous call.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_convertible_v<std::decay_t<F>, ShardFnRef>>>
  void run(F&& fn) {
    auto& ref = fn;  // materialized argument outlives the synchronous run
    run(ShardFnRef::of(ref));
  }
  template <typename F,
            typename = std::enable_if_t<
                !std::is_convertible_v<std::decay_t<F>, ShardFnRef>>>
  void run(const std::vector<Shard>& shards, F&& fn) {
    auto& ref = fn;
    run(shards, ShardFnRef::of(ref));
  }

  [[nodiscard]] unsigned shard_count() const {
    return static_cast<unsigned>(shards_.size());
  }
  [[nodiscard]] const std::vector<Shard>& shards() const { return shards_; }

  /// Nanoseconds the caller thread has spent blocked inside wait_all() with
  /// unfinished tasks but nothing runnable — the runtime's residual
  /// "barrier" cost (the epoch pool spent the whole phase-2 serial tail
  /// here). Monotonic over the runtime's lifetime; caller thread only.
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

  /// Heap bytes owned by the runtime (shard plan, worker handles, deques,
  /// task arena, edge pool) — see util/memusage.hpp for the contract. Caller
  /// thread only, between generations (the arena mutates during execution).
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return util::DynamicUsage(shards_) + util::DynamicUsage(workers_) +
           util::DynamicUsage(deques_) + util::DynamicUsage(tasks_) +
           util::DynamicUsage(edges_);
  }

 private:
  struct TaskNode {
    ShardFnRef fn;
    Shard shard;
    unsigned shard_index = 0;
    std::uint64_t seq = 0;
    std::uint32_t unmet = 0;        // unfinished dependencies
    std::uint32_t dependents = kNoEdge;  // head of edge list in edges_
    bool done = false;
  };
  struct DepEdge {
    TaskId to;
    std::uint32_t next;
  };
  static constexpr std::uint32_t kNoEdge =
      std::numeric_limits<std::uint32_t>::max();

  void worker_loop(unsigned participant);
  /// Pops a runnable task: own deque's back first, then steal another
  /// deque's front. Returns kNoTask when every deque is empty. mu_ held.
  TaskId pop_runnable_locked(unsigned participant);
  /// Marks `id` done, releases its dependents onto `participant`'s deque,
  /// and wakes whoever can now make progress. mu_ held.
  void complete_locked(unsigned participant, TaskId id);
  [[nodiscard]] bool has_runnable_locked() const;
  /// Executes one task outside the lock, capturing its exception. Returns
  /// with mu_ re-acquired state handled by the caller (lock passed in).
  void execute(std::unique_lock<std::mutex>& lock, unsigned participant,
               TaskId id);

  std::vector<Shard> shards_;
  std::vector<std::thread> workers_;

  std::mutex mu_;
  std::condition_variable work_ready_;  // new runnable work / all done / stop
  std::vector<std::deque<TaskId>> deques_;  // one per participant
  std::vector<TaskNode> tasks_;             // arena; reset by wait_all
  std::vector<DepEdge> edges_;              // dependent-list pool
  std::size_t unfinished_ = 0;
  unsigned next_spawn_deque_ = 0;  // round-robin home for dependency-free tasks
  std::exception_ptr error_;       // first exception of this generation
  std::uint64_t epoch_ = 0;        // seq tag for the run() entry points
  std::uint64_t barrier_wait_ns_ = 0;
  bool stopping_ = false;
};

}  // namespace ssau::core
