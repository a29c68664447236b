#include "unison/turns.hpp"

#include <cmath>
#include <cstdlib>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace ssau::unison {

TurnSystem::TurnSystem(int diameter_bound) : d_(diameter_bound) {
  if (diameter_bound < 1) {
    throw std::invalid_argument("TurnSystem: diameter bound must be >= 1");
  }
  // The largest derived int is 4k = 12D + 8 (the state count 4k - 2, and
  // the clock arithmetic's 2k-modulus plus an offset below 2k).
  if (diameter_bound > (std::numeric_limits<int>::max() - 8) / 12) {
    throw std::invalid_argument("TurnSystem: diameter bound too large");
  }
  k_ = 3 * d_ + 2;
}

core::StateId TurnSystem::able_id(Level l) const {
  if (!valid_level(l)) throw std::invalid_argument("able_id: invalid level");
  // Negative levels first: -k..-1 -> 0..k-1; positive 1..k -> k..2k-1.
  return static_cast<core::StateId>(l < 0 ? l + k_ : k_ + l - 1);
}

core::StateId TurnSystem::faulty_id(Level l) const {
  if (!has_faulty(l)) throw std::invalid_argument("faulty_id: invalid level");
  // Negative -k..-2 -> 0..k-2; positive 2..k -> (k-1)..(2k-3).
  const int idx = l < 0 ? l + k_ : (k_ - 1) + (l - 2);
  return static_cast<core::StateId>(2 * k_ + idx);
}

void TurnSystem::throw_bad_state() {
  throw std::invalid_argument("level_of: bad state");
}

Level TurnSystem::forward(Level l) const {
  if (!valid_level(l)) throw std::invalid_argument("forward: invalid level");
  if (l == -1) return 1;
  if (l == k_) return -k_;
  return l + 1;
}

int TurnSystem::clock(Level l) const {
  if (!valid_level(l)) throw std::invalid_argument("clock: invalid level");
  // Cyclic order: 1,2,…,k (κ = 0..k-1), then −k,−k+1,…,−1 (κ = k..2k-1).
  return l > 0 ? l - 1 : 2 * k_ + l;
}

Level TurnSystem::level_at_clock(int kappa) const {
  const int m = 2 * k_;
  kappa = ((kappa % m) + m) % m;
  return kappa < k_ ? kappa + 1 : kappa - m;
}

Level TurnSystem::forward(Level l, int j) const {
  return level_at_clock(clock(l) + j);
}

bool TurnSystem::adjacent(Level a, Level b) const {
  return distance(a, b) <= 1;
}

int TurnSystem::distance(Level a, Level b) const {
  const int m = 2 * k_;
  const int diff = (((clock(a) - clock(b)) % m) + m) % m;
  return diff <= m - diff ? diff : m - diff;
}

Level TurnSystem::outwards(Level l, int j) const {
  if (!valid_level(l)) throw std::invalid_argument("outwards: invalid level");
  const int mag = std::abs(l) + j;
  if (mag < 1 || mag > k_) throw std::invalid_argument("outwards: j out of range");
  return l > 0 ? mag : -mag;
}

std::string TurnSystem::turn_name(core::StateId q) const {
  return util::labeled(is_faulty(q) ? "^" : "", level_of(q));
}

}  // namespace ssau::unison
