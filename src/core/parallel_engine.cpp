#include "core/parallel_engine.hpp"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <utility>

namespace ssau::core {

ParallelEngine::ParallelEngine(unsigned participants) {
  if (participants == 0) {
    throw std::invalid_argument("ParallelEngine: participants must be positive");
  }
  workers_.reserve(participants - 1);
  try {
    for (unsigned i = 1; i < participants; ++i) {
      workers_.emplace_back(&ParallelEngine::worker_loop, this, i);
    }
  } catch (...) {
    // A failed spawn (std::system_error) must not destroy joinable threads
    // or the members the started ones wait on: stop them first.
    stop_workers();
    throw;
  }
}

ParallelEngine::~ParallelEngine() { stop_workers(); }

void ParallelEngine::stop_workers() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stopping_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ParallelEngine::claim_shards(std::unique_lock<std::mutex>& lock,
                                  const unsigned participant) {
  while (next_shard_ < shard_count_) {
    const auto index = static_cast<unsigned>(next_shard_++);
    const Shard shard = shards_[index];
    const ShardFnRef fn = fn_;
    lock.unlock();
    std::exception_ptr error;
    try {
      fn(shard, index, participant);
    } catch (...) {  // finish every shard; run() rethrows the first error
      error = std::current_exception();
    }
    lock.lock();
    if (error && !error_) error_ = error;
    if (--unfinished_ == 0) {
      lock.unlock();  // see run(): a waiter woken into a held lock re-sleeps
      all_done_.notify_one();
      lock.lock();
    }
  }
}

void ParallelEngine::run(const std::vector<Shard>& shards, ShardFnRef fn) {
  if (shards.empty()) {
    throw std::invalid_argument("ParallelEngine: shard list must be non-empty");
  }
  if (shards.size() == 1) {
    // Single shard: plain serial execution on the caller, zero
    // synchronization.
    fn(shards[0], 0, 0);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  shards_ = shards.data();
  fn_ = fn;
  shard_count_ = shards.size();
  next_shard_ = 0;
  unfinished_ = shards.size();
  lock.unlock();
  // Notify with mu_ released: a thread woken into a held lock sleeps again,
  // and that second wake-up would land on every step's critical path.
  work_ready_.notify_all();
  lock.lock();
  claim_shards(lock, 0);
  if (unfinished_ != 0) {
    const auto blocked_from = std::chrono::steady_clock::now();
    all_done_.wait(lock, [this] { return unfinished_ == 0; });
    const std::chrono::nanoseconds blocked =
        std::chrono::steady_clock::now() - blocked_from;
    barrier_wait_ns_ += static_cast<std::uint64_t>(blocked.count());
  }
  if (error_) {
    const std::exception_ptr error = std::exchange(error_, nullptr);
    lock.unlock();
    std::rethrow_exception(error);
  }
}

void ParallelEngine::worker_loop(const unsigned participant) {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    work_ready_.wait(lock, [this] {
      return stopping_ || next_shard_ < shard_count_;
    });
    if (stopping_) return;
    claim_shards(lock, participant);
  }
}

unsigned ParallelEngine::resolve_thread_count(unsigned requested) {
  if (requested != 0) return requested;
  // hardware_concurrency() is allowed to return 0 ("not computable"); read
  // it once and clamp immediately so no caller arithmetic ever sees 0.
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

unsigned ParallelEngine::recommended_threads(unsigned sessions) {
  const unsigned hw = resolve_thread_count(0);
  const unsigned s = sessions == 0 ? 1 : sessions;
  return std::max(1u, hw / s);
}

}  // namespace ssau::core
