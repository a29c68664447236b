#include "unison/baselines.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "core/row_walk.hpp"
#include "util/strings.hpp"

namespace ssau::unison {

core::StateId MinPlusOneUnison::step_fast(core::StateId /*q*/,
                                          const core::SignalView& sig,
                                          util::Rng& /*rng*/) const {
  // Signal states are sorted ascending, so the minimum sensed clock is the
  // first entry. N+(v) includes v, so sig is never empty.
  const core::StateId next = sig.states().front() + 1;
  return std::min<core::StateId>(next, cap_ - 1);
}

bool MinPlusOneUnison::legitimate(const graph::Graph& g,
                                  const core::Configuration& c) const {
  core::check_configuration(g, c, cap_, "MinPlusOneUnison::legitimate");
  core::Configuration buffer;
  return core::all_edges(g, core::layout_order(g, c, buffer),
                         [](core::StateId a, core::StateId b) {
                           return (a > b ? a - b : b - a) <= 1;
                         });
}

ResetUnison::ResetUnison(int diameter_bound, int modulus)
    : d_(diameter_bound), m_(modulus) {
  if (diameter_bound < 1 || modulus < 3) {
    throw std::invalid_argument("ResetUnison: need D >= 1, modulus >= 3");
  }
  // Derived ints: the state count M + 2D + 1, and the clock arithmetic's
  // c + M - 1 with c < M.
  constexpr long long kIntMax = std::numeric_limits<int>::max();
  if (2LL * modulus > kIntMax || modulus + 2LL * diameter_bound + 1 > kIntMax) {
    throw std::invalid_argument("ResetUnison: D or modulus too large");
  }
}

core::StateId ResetUnison::clock_id(int c) const {
  if (c < 0 || c >= m_) throw std::invalid_argument("ResetUnison::clock_id");
  return static_cast<core::StateId>(c);
}

core::StateId ResetUnison::sigma_id(int i) const {
  if (i < 0 || i > 2 * d_) throw std::invalid_argument("ResetUnison::sigma_id");
  return static_cast<core::StateId>(m_ + i);
}

bool ResetUnison::is_sigma(core::StateId q) const {
  return q >= static_cast<core::StateId>(m_);
}

int ResetUnison::value_of(core::StateId q) const {
  if (q >= state_count()) throw std::invalid_argument("ResetUnison::value_of");
  const int v = static_cast<int>(q);
  return is_sigma(q) ? v - m_ : v;
}

core::StateId ResetUnison::step_fast(core::StateId q,
                                     const core::SignalView& sig,
                                     util::Rng& /*rng*/) const {
  const bool senses_sigma =
      sig.any([&](core::StateId s) { return is_sigma(s); });

  if (!is_sigma(q)) {
    const int c = value_of(q);
    // Joining a reset wave (Restart rule 1, seen from a non-σ node).
    if (senses_sigma) return sigma_id(0);
    // Fault detection: a sensed clock not cyclically adjacent to ours.
    const int fwd = (c + 1) % m_;
    const int bwd = (c + m_ - 1) % m_;
    bool tick = true;
    for (const core::StateId s : sig.states()) {
      const int sc = value_of(s);
      if (sc != c && sc != fwd && sc != bwd) return sigma_id(0);
      if (sc != c && sc != fwd) tick = false;
    }
    return tick ? clock_id(fwd) : q;
  }

  // σ node: the Restart module's rules (§3.3).
  const bool senses_non_sigma =
      sig.any([&](core::StateId s) { return !is_sigma(s); });
  if (senses_non_sigma) return sigma_id(0);
  int imin = 2 * d_;
  bool all_exit = true;
  for (const core::StateId s : sig.states()) {
    imin = std::min(imin, value_of(s));
    if (s != sigma_id(2 * d_)) all_exit = false;
  }
  if (all_exit) return clock_id(0);
  return sigma_id(std::min(imin + 1, 2 * d_));
}

std::string ResetUnison::state_name(core::StateId q) const {
  return util::labeled(is_sigma(q) ? "s" : "", value_of(q));
}

bool ResetUnison::legitimate(const graph::Graph& g,
                             const core::Configuration& c) const {
  // σ ids sit above every clock id, and a clock id is its clock value.
  if (is_sigma(core::check_configuration(g, c, state_count(),
                                         "ResetUnison::legitimate"))) {
    return false;
  }
  const auto m = static_cast<core::StateId>(m_);
  core::Configuration buffer;
  return core::all_edges(g, core::layout_order(g, c, buffer),
                         [m](core::StateId a, core::StateId b) {
                           return core::cyclic_adjacent(a, b, m);
                         });
}

}  // namespace ssau::unison
