// The failed reset-based AU design of Appendix A, plus live-lock detection.
//
// The paper motivates AlgAU's reset-free design by exhibiting a natural
// reset-based algorithm (main clock component + reset chain R_0..R_cD) that
// live-locks under an asynchronous schedule: on an 8-cycle with c = 2, D = 2,
// the rotating single-node daemon drives the system through an infinite
// recurrent sequence of illegitimate configurations (Figure 2).
//
// State ids: able turns 0..cD first, then resets R_0..R_cD.
//
// Note on the exit rule (documented in DESIGN.md): the stated ST3 exit guard
// is Θ ⊆ {R_cD, 0}; Figure 2(b) is reproduced exactly by the stricter guard
// Θ = {R_cD} (the Restart module's exit rule). Both variants are implemented
// and both live-lock; `strict_exit` selects the figure-exact one.
#pragma once

#include <functional>

#include "core/automaton.hpp"
#include "core/engine.hpp"

namespace ssau::unison {

struct FailedAuOptions {
  int c = 2;                 // clock range multiplier (turns 0..cD)
  bool strict_exit = false;  // ST3 exit: Θ = {R_cD} instead of Θ ⊆ {R_cD, 0}
};

class FailedAu final : public core::Automaton {
 public:
  explicit FailedAu(int diameter_bound, FailedAuOptions options = {});

  [[nodiscard]] int num_turns() const { return cd_ + 1; }  // able turns

  [[nodiscard]] core::StateId able_id(int l) const;
  [[nodiscard]] core::StateId reset_id(int i) const;
  [[nodiscard]] bool is_reset(core::StateId q) const;
  /// Turn value of an able state / reset index of a reset state.
  [[nodiscard]] int value_of(core::StateId q) const;

  [[nodiscard]] core::StateId state_count() const override {
    return static_cast<core::StateId>(2 * (cd_ + 1));
  }
  [[nodiscard]] bool is_output(core::StateId q) const override {
    return !is_reset(q);
  }
  [[nodiscard]] std::int64_t output(core::StateId q) const override {
    return value_of(q);
  }
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] bool parallel_safe() const override { return true; }
  [[nodiscard]] std::string state_name(core::StateId q) const override;

  /// Legitimate AU configuration for this algorithm: all able, every edge's
  /// turns within cyclic distance 1 (mod cD+1). `c` is in user ids over any
  /// graph, reordered or not; throws std::invalid_argument unless it holds
  /// one state per node of `g`, each below state_count() (the rules of
  /// baselines.hpp).
  [[nodiscard]] bool legitimate(const graph::Graph& g,
                                const core::Configuration& c) const;

 private:
  int cd_;  // cD
  FailedAuOptions options_;
};

/// The initial configuration of Figure 2(a) on an 8-cycle (requires the
/// algorithm built with D = 2, c = 2):
/// v0..v7 = [0, 0, R0, R1, R2, R3, R4, R4].
[[nodiscard]] core::Configuration figure2a_configuration(const FailedAu& alg);

/// Outcome of deterministic-cycle detection (live-lock proof).
struct CycleDetection {
  bool cycle_found = false;        // a (config, phase) pair recurred
  bool legitimate_seen = false;    // a legitimate config occurred before that
  std::uint64_t cycle_start = 0;   // time of first occurrence
  std::uint64_t cycle_length = 0;  // recurrence period (in steps)
  std::uint64_t steps_run = 0;
};

/// Runs a *deterministic* engine under a schedule that is periodic with
/// period `schedule_period` and searches for an exact recurrence of
/// (configuration, step mod period). A recurrence with no legitimate
/// configuration inside the cycle proves a live-lock (the execution repeats
/// forever without stabilizing).
[[nodiscard]] CycleDetection detect_livelock(
    core::Engine& engine, std::uint64_t schedule_period,
    std::uint64_t max_steps,
    const std::function<bool(const core::Configuration&)>& legitimate);

}  // namespace ssau::unison
