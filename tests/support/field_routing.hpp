// The signal-field routing rule, restated from its inputs: the expectation
// the routing tests hold core::Engine::signal_field_active() to.
//
// A field exists only on engines whose every step runs the serial
// asynchronous path: the scheduler is not full-activation and the engine is
// not sparse-eligible (more than one thread, n > 1, a parallel-safe
// automaton, and a max_activation_hint() at or above the sparse threshold).
// There kOn always builds one and kOff never does; kAuto builds one when
// n > 1, the hint is below the sparse threshold and at most n / 2, the
// average degree reaches core::kSignalFieldMinAvgDegree, and the field
// would keep dense counters: |Q| <= 256, a maximum degree whose counters
// (at most deg + 1) stay below the 16-bit saturation bound, and a counter
// table (|Q| rounded up to 8 counters per node when |Q| <= 64) within the
// dense byte budget. Wide stores (|Q| > 256) therefore never get a kAuto
// field, whatever the daemon.
//
// Header-only test code; tests include it as "support/field_routing.hpp".
#pragma once

#include <cstddef>

#include "core/automaton.hpp"
#include "core/engine.hpp"
#include "graph/graph.hpp"
#include "sched/scheduler.hpp"

namespace ssau::oracle {

/// Whether an engine over (g, alg, sched) built with `opts` owns a signal
/// field. Explicit thread counts only: 0 resolves against the host.
inline bool field_routed(const graph::Graph& g, const core::Automaton& alg,
                         const sched::Scheduler& sched,
                         const core::EngineOptions& opts) {
  const std::size_t n = g.num_nodes();
  const std::size_t hint = sched.max_activation_hint();
  const bool sparse_eligible = opts.thread_count > 1 && n > 1 &&
                               alg.parallel_safe() &&
                               hint >= opts.sparse_activation_threshold;
  if (sched.full_activation() || sparse_eligible) return false;
  switch (opts.signal_field) {
    case core::SignalFieldMode::kOn:
      return true;
    case core::SignalFieldMode::kOff:
      return false;
    case core::SignalFieldMode::kAuto: {
      const std::size_t states = alg.state_count();
      const std::size_t counters = states <= 64 ? (states + 7) / 8 * 8 : states;
      const bool dense =
          states <= 256 && g.max_degree() + 1 < 0xFFFF &&
          counters * n * 2 <= core::SignalField::kDenseMaxCounterBytes;
      return n > 1 && hint < opts.sparse_activation_threshold &&
             2 * hint <= n &&
             g.avg_degree() >= core::kSignalFieldMinAvgDegree && dense;
    }
  }
  return false;
}

}  // namespace ssau::oracle
