// Comparison baselines for the §5 related-work narrative (bench E10).
//
// * MinPlusOneUnison — the classic unbounded-state-space approach in the
//   spirit of Awerbuch et al. [AKM+93]: on activation, a node sets its clock
//   to 1 + min of the clocks in N+(v). Stabilizes to a legal unison gradient
//   within O(D) rounds from any configuration, but the state space grows
//   without bound (clocks increase forever); here it is capped at a huge
//   ceiling that no bench run approaches.
//
// * ResetUnison — a bounded-state reset-based unison built from the paper's
//   own Restart chain (§3.3), representing the Boulinier-et-al.-principle
//   design family: a clock modulo M plus reset states σ(0..2D). Correct under
//   the synchronous schedule (Thm 3.1 makes all nodes exit the reset wave
//   concurrently); under asynchronous daemons it exhibits exactly the
//   pathology Appendix A warns about.
//
// Both legitimate() predicates take `c` in user ids (Engine::config()) over
// any graph, reordered or not, walk its CSR rows (core/row_walk.hpp) rather
// than the graph's lazy edge list, and throw std::invalid_argument unless
// `c` holds one state per node of `g`, each below state_count().
#pragma once

#include "core/automaton.hpp"
#include "core/engine.hpp"

namespace ssau::unison {

class MinPlusOneUnison final : public core::Automaton {
 public:
  /// clock_cap bounds the representable clock (simulation ceiling, not an
  /// algorithm parameter); pick it far above initial range + step budget.
  explicit MinPlusOneUnison(std::uint64_t clock_cap = 1ULL << 40)
      : cap_(clock_cap) {}

  [[nodiscard]] core::StateId state_count() const override { return cap_; }
  [[nodiscard]] bool is_output(core::StateId) const override { return true; }
  [[nodiscard]] std::int64_t output(core::StateId q) const override {
    return static_cast<std::int64_t>(q);
  }
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng& rng) const override;
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] bool parallel_safe() const override { return true; }

  /// Safety: every edge's clocks differ by at most 1 (integer difference).
  [[nodiscard]] bool legitimate(const graph::Graph& g,
                                const core::Configuration& c) const;

 private:
  std::uint64_t cap_;
};

class ResetUnison final : public core::Automaton {
 public:
  /// Clock modulo `modulus` (>= 3) plus reset chain σ(0..2D).
  ResetUnison(int diameter_bound, int modulus);

  [[nodiscard]] int modulus() const { return m_; }
  [[nodiscard]] core::StateId clock_id(int c) const;
  [[nodiscard]] core::StateId sigma_id(int i) const;
  [[nodiscard]] bool is_sigma(core::StateId q) const;
  [[nodiscard]] int value_of(core::StateId q) const;

  [[nodiscard]] core::StateId state_count() const override {
    return static_cast<core::StateId>(m_ + 2 * d_ + 1);
  }
  [[nodiscard]] bool is_output(core::StateId q) const override {
    return !is_sigma(q);
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

  /// All able with every edge within cyclic distance 1 (mod M).
  [[nodiscard]] bool legitimate(const graph::Graph& g,
                                const core::Configuration& c) const;

 private:
  int d_;
  int m_;
};

}  // namespace ssau::unison
