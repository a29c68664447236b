// AlgMIS — synchronous self-stabilizing maximal independent set (§3.1,
// Thm 1.4). State space O(D); stabilization O((D + log n) log n) synchronous
// rounds in expectation and whp.
//
// Modules, following the paper:
//   * RandPhase divides the execution into phases: a random prefix (while
//     flag = 1, each round flips it to 0 w.p. p0; flagged nodes pin step = 0)
//     followed by a deterministic suffix driven by the step-wave rule
//     step <- min_{N+} step + 1 up to D+2, which ends the phase concurrently
//     for all nodes (Cor 3.6). A neighbor step discrepancy > 1 invokes
//     Restart.
//   * Compete runs two-round coin trials among undecided candidates,
//     implicitly building the random variables Z(u); a candidate that tosses
//     0 while a neighboring candidate tossed 1 drops out. Survivors join IN
//     at the step -> D+1 increment; their undecided neighbors join OUT upon
//     sensing an IN state (the phase's ultimate round).
//   * DetectMIS runs forever over decided nodes: IN nodes re-draw a temporary
//     identifier from [k_id] every round; an IN node sensing a different
//     identifier (adjacent IN pair, caught w.p. >= 1 - 1/k_id per round) or an
//     OUT node sensing no identifier (orphaned OUT, caught deterministically)
//     invokes Restart.
//   * Restart (§3.3) resets everyone to q0* concurrently.
#pragma once

#include <optional>

#include "core/automaton.hpp"
#include "core/engine.hpp"
#include "restart/restart.hpp"

namespace ssau::mis {

struct AlgMisParams {
  int diameter_bound = 2;  // D
  int id_alphabet = 8;     // k_id for DetectMIS temporary identifiers
  double p0 = 0.3;         // RandPhase flag-decay probability per round
};

/// Decoded node state.
struct MisState {
  enum class Mode { kUndecided, kIn, kOut, kRestart };
  Mode mode = Mode::kUndecided;
  // kRestart:
  int sigma = 0;  // σ index in [0, 2D]
  // kIn:
  int id = 1;  // temporary identifier in [1, k_id]
  // kUndecided:
  int step = 0;           // RandPhase wave position in [0, D+2]
  bool flag = true;       // random-prefix flag
  bool candidate = true;  // Compete: still in the running
  bool coin = false;      // Compete: this trial's coin
  bool trial_collect = false;  // false: toss round, true: collect round

  friend bool operator==(const MisState&, const MisState&) = default;
};

class AlgMis final : public core::Automaton {
 public:
  explicit AlgMis(AlgMisParams params);

  [[nodiscard]] const AlgMisParams& params() const { return params_; }

  // --- state codec ---------------------------------------------------------
  [[nodiscard]] core::StateId encode(const MisState& s) const;
  [[nodiscard]] MisState decode(core::StateId q) const;
  /// q0*: Undecided, step=0, flag=1, candidate=1, toss round.
  [[nodiscard]] core::StateId initial_state() const;

  // --- Automaton -----------------------------------------------------------
  [[nodiscard]] core::StateId state_count() const override;
  /// Output states: IN (ω=1) and OUT (ω=0).
  [[nodiscard]] bool is_output(core::StateId q) const override;
  [[nodiscard]] std::int64_t output(core::StateId q) const override;
  /// Randomized, so ineligible for table compilation — but the SignalView
  /// overload keeps the engine hot path allocation-free, and the rng draw
  /// sequence is identical either way.
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng& rng) const override;
  [[nodiscard]] std::string state_name(core::StateId q) const override;
  /// Stateless δ (decode/encode on the stack): safe to shard.
  [[nodiscard]] bool parallel_safe() const override { return true; }

 private:
  AlgMisParams params_;
  restart::RestartRules restart_;
  core::StateId undecided_base_ = 0;
  core::StateId in_base_ = 0;
  core::StateId out_base_ = 0;
  core::StateId sigma_base_ = 0;
  core::StateId count_ = 0;
};

/// Legitimacy: every node decided, the IN set independent, and every OUT node
/// adjacent to an IN node (equivalently: IN maximal). Absorbing along real
/// executions (IN/OUT states change only through Restart, and detection is
/// sound).
///
/// Both predicates take `c` in user ids (Engine::config()) over any graph,
/// reordered or not, and walk its CSR rows (core/row_walk.hpp), never the
/// graph's lazy edge list. They throw std::invalid_argument unless `c` holds
/// one state per node of `g`, each below state_count().
[[nodiscard]] bool mis_legitimate(const AlgMis& alg, const graph::Graph& g,
                                  const core::Configuration& c);

/// True iff {v : output 1} is an independent dominating set of g (the MIS
/// task's correctness predicate over outputs alone).
[[nodiscard]] bool mis_outputs_correct(const AlgMis& alg,
                                       const graph::Graph& g,
                                       const core::Configuration& c);

/// Adversarial initial configurations: random | adjacent-in | orphan-out |
/// all-in | all-out | mid-restart | skewed-steps.
[[nodiscard]] core::Configuration mis_adversarial_configuration(
    const std::string& kind, const AlgMis& alg, const graph::Graph& g,
    util::Rng& rng);
[[nodiscard]] std::vector<std::string> mis_adversary_kinds();

}  // namespace ssau::mis
