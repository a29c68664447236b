// AlgAU — the paper's primary contribution (Thm 1.1).
//
// A deterministic self-stabilizing asynchronous unison algorithm for
// D-bounded-diameter graphs with state space O(D) (exactly 4k−2 = 12D+6
// turns, k = 3D+2) and stabilization time O(D^3) rounds.
//
// The three transition types of Table 1, implemented verbatim:
//   AA  (able ℓ  -> able φ(ℓ)):   v is good and Λ_v ⊆ {ℓ, φ(ℓ)}
//   AF  (able ℓ  -> faulty ℓ̂, |ℓ|>=2): v unprotected, or v senses ψ̂−1(ℓ)
//   FA  (faulty ℓ̂ -> able ψ−1(ℓ)): v senses no level in Ψ>(ℓ)
//
// Instead of a reset wave, clock discrepancies are repaired by "closing the
// gap": the two sides of a torn edge walk inward through faulty detours until
// they meet at levels ±1 (§2.1).
//
// Output: able turns are the output states; ω maps ℓ to the AU clock value
// κ(ℓ) ∈ Z_{2k}.
#pragma once

#include <string>
#include <vector>

#include "core/automaton.hpp"
#include "core/engine.hpp"
#include "unison/turns.hpp"

namespace ssau::unison {

/// Ablation switches (paper defaults = all true). Used by bench E11 to show
/// each "cautious" guard is load-bearing.
struct AlgAuOptions {
  /// AF trigger (2): going faulty when sensing a faulty turn one unit inwards.
  bool af_inward_trigger = true;
  /// FA guard: may return to able only when sensing no level outwards of own.
  bool fa_outward_guard = true;
  /// AA guard (1): tick only when good (protected and sensing no faulty turn).
  bool aa_requires_good = true;
};

class AlgAu final : public core::Automaton {
 public:
  explicit AlgAu(int diameter_bound, AlgAuOptions options = {});

  [[nodiscard]] const TurnSystem& turns() const { return turns_; }

  [[nodiscard]] core::StateId state_count() const override {
    return turns_.state_count();
  }
  [[nodiscard]] bool is_output(core::StateId q) const override {
    return turns_.is_able(q);
  }
  /// The AU clock value κ(level) ∈ Z_{2k}.
  [[nodiscard]] std::int64_t output(core::StateId q) const override {
    return turns_.clock(turns_.level_of(q));
  }
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng& rng) const override;
  /// Native bitmask δ: every Table-1 guard is a precomputed per-turn set
  /// test (protected / good / Λ_v ⊆ {ℓ, φ(ℓ)} / faulty-inward / Ψ>), so one
  /// activation costs a handful of AND/compare ops on word 0 of the guard
  /// sets. The engine's kernel when |Q| = 4k-2 <= 64, i.e. D <= 4.
  [[nodiscard]] core::StateId step_mask(core::StateId q, std::uint64_t mask,
                                        util::Rng& rng) const override;
  /// Native 256-bit δ: the same guard tests over all four words of the
  /// guard sets. The engine's kernel when 64 < |Q| <= 256, i.e.
  /// 5 <= D <= 20; larger D keeps the default (unpack into step_fast).
  [[nodiscard]] core::StateId step_set(core::StateId q,
                                       const core::StateSet& set,
                                       util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] bool native_mask_kernel() const override {
    return !guards_.empty() && state_count() <= core::SignalView::kMaskBits;
  }
  /// Stateless δ over precomputed per-turn tables: safe to shard.
  [[nodiscard]] bool parallel_safe() const override { return true; }
  [[nodiscard]] std::string state_name(core::StateId q) const override {
    return turns_.turn_name(q);
  }

  /// Transition taxonomy of Table 1.
  enum class TransitionType { None, AA, AF, FA };
  /// Classifies an observed (from -> to) transition; throws if the pair is
  /// not a legal AlgAU transition shape.
  [[nodiscard]] TransitionType classify(core::StateId from,
                                        core::StateId to) const;

  // --- local predicates over a signal (the node's own view) ---------------
  // SignalView converts implicitly from Signal, so both work here.

  /// All sensed levels adjacent to own level (node is protected).
  [[nodiscard]] bool locally_protected(core::StateId q,
                                       const core::SignalView& sig) const;
  /// Protected and sensing no faulty turn.
  [[nodiscard]] bool locally_good(core::StateId q,
                                  const core::SignalView& sig) const;

 private:
  /// Per-turn Table-1 guard sets, built whenever |Q| <= StateSet::kBits
  /// (empty otherwise): step_set tests all four words, step_mask word 0.
  struct TurnGuards {
    core::StateSet adjacent;        // turns whose level is adjacent to ours
    core::StateSet in_step;         // turns with level in {ℓ, φ(ℓ)}
    core::StateSet af_inward;       // the faulty turn at ψ_{-1}(ℓ), if any
    core::StateSet outwards;        // turns with level in Ψ>(ℓ)
    core::StateId aa_next = 0;      // able φ(ℓ)
    core::StateId af_next = 0;      // faulty ℓ̂ (able turns with |ℓ| >= 2)
    core::StateId fa_next = 0;      // able ψ_{-1}(ℓ) (faulty turns)
    bool has_faulty_twin = false;   // |ℓ| >= 2
  };
  void build_guards();
  /// The one guarded δ body behind step_mask and step_set; `Sensed` is the
  /// 64-bit mask or the StateSet.
  template <typename Sensed>
  [[nodiscard]] core::StateId guarded_step(core::StateId q,
                                           const Sensed& sensed) const;

  TurnSystem turns_;
  AlgAuOptions options_;
  std::vector<TurnGuards> guards_;  // indexed by StateId
  core::StateSet faulty_;           // all faulty turns
};

[[nodiscard]] std::string to_string(AlgAu::TransitionType t);

// --- crafted adversarial initial configurations (bench/test workloads) -----

/// Maximum clock tear: nodes with id < n/2 at able level 1, the rest at able
/// level k — a non-adjacent discrepancy across the whole cut.
[[nodiscard]] core::Configuration au_config_tear(const AlgAu& alg,
                                                 core::NodeId n);

/// All nodes faulty at the outermost level k̂.
[[nodiscard]] core::Configuration au_config_all_faulty(const AlgAu& alg,
                                                       core::NodeId n);

/// Alternating able k and able −k by node id (sign flip on every edge of any
/// bipartite-ish layout; adjacent in clock but maximally outward).
[[nodiscard]] core::Configuration au_config_opposed(const AlgAu& alg,
                                                    core::NodeId n);

/// Uniformly random able turns (clock chaos without initial faulty states).
[[nodiscard]] core::Configuration au_config_random_able(const AlgAu& alg,
                                                        core::NodeId n,
                                                        util::Rng& rng);

/// Legal gradient: node v at able level min(1 + dist_G(0, v), k) — already
/// protected and good; exercises pure liveness.
[[nodiscard]] core::Configuration au_config_gradient(const AlgAu& alg,
                                                     const graph::Graph& g);

/// Names accepted by au_adversarial_configuration.
[[nodiscard]] std::vector<std::string> au_adversary_kinds();

/// Dispatch by name: tear | all-faulty | opposed | random-able | random |
/// gradient ("random" = uniform over the full turn set).
[[nodiscard]] core::Configuration au_adversarial_configuration(
    const std::string& kind, const AlgAu& alg, const graph::Graph& g,
    util::Rng& rng);

}  // namespace ssau::unison
