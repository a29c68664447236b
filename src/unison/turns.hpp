// The turn/level algebra of AlgAU (paper §2.2).
//
// Fix k = 3D+2. The states ("turns") of AlgAU are
//   * able turns   T  = { ℓ  : 1 <= |ℓ| <= k }   (2k of them), and
//   * faulty turns T̂ = { ℓ̂ : 2 <= |ℓ| <= k }   (2k-2 of them),
// for a total state space of 4k-2 = 12D+6 — linear in D, the paper's "thin"
// claim (Thm 1.1).
//
// Levels carry two geometries at once:
//   * the cyclic clock order 1,2,…,k,−k,−k+1,…,−1 (forward operator φ, clock
//     value κ ∈ Z_{2k}, level distance = cyclic distance), and
//   * the inward/outward axis |ℓ| within a sign (outwards operator ψ_j).
// TurnSystem implements both plus the derived predicates (adjacency, Ψ sets)
// exactly as defined in §2.2.
#pragma once

#include <cstdlib>
#include <string>

#include "core/types.hpp"

namespace ssau::unison {

/// A level ℓ with 1 <= |ℓ| <= k (zero is not a level).
using Level = int;

class TurnSystem {
 public:
  /// diameter_bound = D >= 1; fixes k = 3D + 2.
  explicit TurnSystem(int diameter_bound);

  [[nodiscard]] int diameter_bound() const { return d_; }
  [[nodiscard]] int k() const { return k_; }

  /// |T ∪ T̂| = 4k - 2.
  [[nodiscard]] core::StateId state_count() const {
    return static_cast<core::StateId>(4 * k_ - 2);
  }

  [[nodiscard]] bool valid_level(Level l) const {
    return l != 0 && l >= -k_ && l <= k_;
  }

  // --- state-id encoding -------------------------------------------------
  // Able turns occupy ids [0, 2k), faulty turns [2k, 4k-2).

  [[nodiscard]] core::StateId able_id(Level l) const;
  /// Requires |l| >= 2 (faulty turns exist only for such levels).
  [[nodiscard]] core::StateId faulty_id(Level l) const;
  [[nodiscard]] bool is_able(core::StateId q) const {
    return q < static_cast<core::StateId>(2 * k_);
  }
  [[nodiscard]] bool is_faulty(core::StateId q) const {
    return q >= static_cast<core::StateId>(2 * k_) && q < state_count();
  }
  /// Throws std::invalid_argument for q >= state_count().
  [[nodiscard]] Level level_of(core::StateId q) const {
    if (q >= state_count()) throw_bad_state();
    const int i = static_cast<int>(q);
    if (i < 2 * k_) return i < k_ ? i - k_ : i - k_ + 1;
    const int f = i - 2 * k_;
    return f <= k_ - 2 ? f - k_ : f - k_ + 3;
  }
  /// κ(λ_q), read off the id (requires q < state_count(); unchecked). Able
  /// ids are the clock order rotated by k, κ = (q + k) mod 2k, so two able
  /// ids lie within cyclic distance 1 mod 2k iff their levels are
  /// adjacent. Faulty ids hold −k..−2 (κ = f + k) and then 2..k
  /// (κ = f − k + 2), for f = q − 2k.
  [[nodiscard]] int clock_of(core::StateId q) const {
    const int i = static_cast<int>(q);
    if (i < 2 * k_) return i < k_ ? i + k_ : i - k_;
    const int f = i - 2 * k_;
    return f <= k_ - 2 ? f + k_ : f - k_ + 2;
  }
  /// True iff a faulty turn exists at level l (|l| >= 2).
  [[nodiscard]] bool has_faulty(Level l) const {
    return valid_level(l) && (l >= 2 || l <= -2);
  }

  // --- cyclic clock geometry ----------------------------------------------

  /// φ(ℓ): −1 -> 1, k -> −k, otherwise ℓ+1.
  [[nodiscard]] Level forward(Level l) const;
  /// φ^j for any integer j (negative = inverse).
  [[nodiscard]] Level forward(Level l, int j) const;
  /// κ(ℓ) ∈ Z_{2k}: position of ℓ in the cyclic order 1,…,k,−k,…,−1.
  [[nodiscard]] int clock(Level l) const;
  /// Inverse of clock().
  [[nodiscard]] Level level_at_clock(int kappa) const;
  /// Levels ℓ, ℓ' are adjacent iff ℓ' ∈ {ℓ, φ(ℓ), φ^{-1}(ℓ)}.
  [[nodiscard]] bool adjacent(Level a, Level b) const;
  /// dist(ℓ, ℓ'): the cyclic distance (paper's recursive definition).
  [[nodiscard]] int distance(Level a, Level b) const;

  // --- inward/outward axis -------------------------------------------------

  /// ψ_j(ℓ): same sign, |result| = |ℓ| + j. Requires −|ℓ| < j <= k − |ℓ|.
  [[nodiscard]] Level outwards(Level l, int j) const;
  /// a ∈ Ψ>(b): same sign and |a| > |b|.
  [[nodiscard]] bool strictly_outwards(Level a, Level b) const {
    return (a > 0) == (b > 0) && std::abs(a) > std::abs(b);
  }
  /// a ∈ Ψ≫(b): same sign and |a| > |b| + 1.
  [[nodiscard]] bool far_outwards(Level a, Level b) const {
    return (a > 0) == (b > 0) && std::abs(a) > std::abs(b) + 1;
  }
  /// a ∈ Ψ≥(b): same sign and |a| >= |b|.
  [[nodiscard]] bool weakly_outwards(Level a, Level b) const {
    return (a > 0) == (b > 0) && std::abs(a) >= std::abs(b);
  }

  /// "ℓ̄" / "ℓ̂"-style display name of a turn.
  [[nodiscard]] std::string turn_name(core::StateId q) const;

 private:
  [[noreturn]] static void throw_bad_state();

  int d_;
  int k_;
};

}  // namespace ssau::unison
