#include "service/service.hpp"

#include <stdexcept>
#include <utility>

#include "core/parallel_engine.hpp"

namespace ssau::service {

SimulationService::SimulationService(ServiceOptions options)
    : options_(options) {
  if (options_.queue_capacity == 0) options_.queue_capacity = 1;
  worker_count_ = core::ParallelEngine::resolve_thread_count(options_.workers);
  threads_.reserve(worker_count_);
  try {
    for (unsigned i = 0; i < worker_count_; ++i) {
      threads_.emplace_back([this] { worker_loop(); });
    }
  } catch (...) {
    // A failed spawn (std::system_error) must not destroy joinable threads
    // or the members the started ones wait on: stop them first.
    shutdown();
    throw;
  }
}

SimulationService::~SimulationService() { shutdown(); }

SimulationService::SessionId SimulationService::open_session(SessionSpec spec) {
  // The pool is the primary parallelism axis: a session asking for "auto"
  // (thread_count == 0) gets the hardware budget DIVIDED by the worker
  // count, so worker_count_ concurrently executing sessions never multiply
  // into workers x cores threads. An explicit thread_count survives verbatim
  // — deliberate oversubscription is a legitimate bench/experiment setup.
  if (spec.options.thread_count == 0) {
    spec.options.thread_count =
        core::ParallelEngine::recommended_threads(worker_count_);
  }
  auto session = std::make_unique<Session>(spec);
  return adopt_session(std::move(session));
}

SimulationService::SessionId SimulationService::adopt_session(
    std::unique_ptr<Session> session) {
  if (!session) throw std::invalid_argument("adopt_session: null session");
  std::lock_guard lock(mu_);
  if (!accepting_) {
    throw std::runtime_error("SimulationService: shutdown in progress");
  }
  const SessionId id = next_id_++;
  auto slot = std::make_unique<Slot>();
  slot->session = std::move(session);
  slots_.emplace(id, std::move(slot));
  return id;
}

std::future<Result> SimulationService::submit(SessionId id, Command command) {
  std::unique_lock lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::out_of_range("SimulationService: unknown session id " +
                            std::to_string(id));
  }
  // Backpressure: block until the global pending count is below capacity.
  // Re-find after waiting is unnecessary — slots are never erased.
  space_ready_.wait(lock, [this] {
    return pending_ < options_.queue_capacity || !accepting_;
  });
  if (!accepting_) {
    throw std::runtime_error("SimulationService: shutdown in progress");
  }
  Slot& slot = *it->second;
  Item item;
  item.command = std::move(command);
  item.enqueued = std::chrono::steady_clock::now();
  std::future<Result> future = item.promise.get_future();
  slot.fifo.push_back(std::move(item));
  ++pending_;
  if (pending_ > peak_pending_) peak_pending_ = pending_;
  // A session enters the ready queue only when it is not already queued or
  // active: !active && fifo had been empty. The worker re-enqueues it after
  // each command while more are waiting — per-session FIFO, global fairness.
  if (!slot.active && slot.fifo.size() == 1) {
    ready_.push_back(&slot);
    work_ready_.notify_one();
  }
  return future;
}

void SimulationService::worker_loop() {
  std::unique_lock lock(mu_);
  while (true) {
    work_ready_.wait(lock, [this] { return stopping_ || !ready_.empty(); });
    if (ready_.empty()) {
      if (stopping_) return;
      continue;
    }
    Slot* slot = ready_.front();
    ready_.pop_front();
    slot->active = true;
    Item item = std::move(slot->fifo.front());
    slot->fifo.pop_front();

    Result result;
    if (slot->quarantined) {
      result.status = Status::kQuarantined;
      result.error = "session quarantined: " + slot->quarantine_error;
    } else {
      Session& session = *slot->session;
      lock.unlock();  // execute outside the lock — this is the parallelism
      result = session.apply(item.command);
      lock.lock();
      if (result.status == Status::kError) {
        slot->quarantined = true;
        slot->quarantine_error = result.error;
      }
    }

    const double latency =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      item.enqueued)
            .count();
    latencies_.push_back(latency);
    slot->active = false;
    if (!slot->fifo.empty()) {
      ready_.push_back(slot);
      work_ready_.notify_one();
    }
    --pending_;
    ++completed_;
    space_ready_.notify_one();
    if (pending_ == 0) idle_.notify_all();

    lock.unlock();
    item.promise.set_value(std::move(result));  // may run continuations
    lock.lock();
  }
}

void SimulationService::drain() {
  std::unique_lock lock(mu_);
  idle_.wait(lock, [this] { return pending_ == 0; });
}

void SimulationService::shutdown() {
  {
    std::unique_lock lock(mu_);
    if (!accepting_ && threads_.empty()) return;
    accepting_ = false;
    space_ready_.notify_all();  // release any producer blocked on capacity
    idle_.wait(lock, [this] { return pending_ == 0; });  // drain
    stopping_ = true;
    work_ready_.notify_all();
  }
  for (auto& t : threads_) t.join();
  threads_.clear();
}

bool SimulationService::quarantined(SessionId id) const {
  std::lock_guard lock(mu_);
  auto it = slots_.find(id);
  return it != slots_.end() && it->second->quarantined;
}

std::string SimulationService::quarantine_reason(SessionId id) const {
  std::lock_guard lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end() || !it->second->quarantined) return "";
  return it->second->quarantine_error;
}

Session& SimulationService::session(SessionId id) {
  std::lock_guard lock(mu_);
  auto it = slots_.find(id);
  if (it == slots_.end()) {
    throw std::out_of_range("SimulationService: unknown session id " +
                            std::to_string(id));
  }
  return *it->second->session;
}

std::size_t SimulationService::pending() const {
  std::lock_guard lock(mu_);
  return pending_;
}

std::size_t SimulationService::peak_pending() const {
  std::lock_guard lock(mu_);
  return peak_pending_;
}

std::uint64_t SimulationService::commands_completed() const {
  std::lock_guard lock(mu_);
  return completed_;
}

std::vector<double> SimulationService::latency_samples() const {
  std::lock_guard lock(mu_);
  return latencies_;
}

}  // namespace ssau::service
