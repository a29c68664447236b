#include "restart/restart.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "util/strings.hpp"

namespace ssau::restart {

RestartRules::RestartRules(int diameter_bound) : d_(diameter_bound) {
  if (diameter_bound < 1) {
    throw std::invalid_argument("RestartRules: diameter bound must be >= 1");
  }
  // The chain has 2D + 1 states. Hosts that embed it (AlgMis, AlgLe)
  // construct this member first, so their own D + small-constant
  // arithmetic is covered by the same bound.
  if (diameter_bound > (std::numeric_limits<int>::max() - 1) / 2) {
    throw std::invalid_argument("RestartRules: diameter bound too large");
  }
}

RestartDecision RestartRules::decide(std::optional<int> own_sigma,
                                     std::optional<int> min_sensed_sigma,
                                     bool senses_non_sigma,
                                     bool all_exit) const {
  if (!min_sensed_sigma.has_value()) {
    // No σ anywhere in N+(v): the module is not involved.
    return {RestartDecision::Kind::kNone, 0};
  }
  if (senses_non_sigma) {
    // Rule 1: σ and non-σ mix.
    return {RestartDecision::Kind::kEnter, 0};
  }
  if (all_exit) {
    // Rule 3: St(v) = {σ(2D)}.
    return {RestartDecision::Kind::kExit, 0};
  }
  // Rule 2.
  (void)own_sigma;
  const int next = std::min(*min_sensed_sigma + 1, exit_index());
  return {RestartDecision::Kind::kStep, next};
}

StandaloneRestart::StandaloneRestart(int diameter_bound, int host_count)
    : rules_(diameter_bound), host_count_(host_count) {
  if (host_count < 1) {
    throw std::invalid_argument("StandaloneRestart: host_count >= 1");
  }
}

core::StateId StandaloneRestart::sigma_id(int i) const {
  if (i < 0 || i > rules_.exit_index()) {
    throw std::invalid_argument("StandaloneRestart::sigma_id");
  }
  return static_cast<core::StateId>(i);
}

core::StateId StandaloneRestart::host_id(int h) const {
  if (h < 0 || h >= host_count_) {
    throw std::invalid_argument("StandaloneRestart::host_id");
  }
  return static_cast<core::StateId>(rules_.chain_length() + h);
}

bool StandaloneRestart::is_sigma(core::StateId q) const {
  return q < static_cast<core::StateId>(rules_.chain_length());
}

int StandaloneRestart::sigma_index(core::StateId q) const {
  if (!is_sigma(q)) throw std::invalid_argument("sigma_index: not a σ state");
  return static_cast<int>(q);
}

core::StateId StandaloneRestart::state_count() const {
  return static_cast<core::StateId>(rules_.chain_length() + host_count_);
}

std::int64_t StandaloneRestart::output(core::StateId q) const {
  return static_cast<std::int64_t>(q) - rules_.chain_length();
}

core::StateId StandaloneRestart::step_fast(core::StateId q,
                                           const core::SignalView& sig,
                                           util::Rng& /*rng*/) const {
  std::optional<int> min_sigma;
  bool senses_non_sigma = false;
  bool all_exit = true;
  for (const core::StateId s : sig.states()) {
    if (is_sigma(s)) {
      const int idx = sigma_index(s);
      if (!min_sigma || idx < *min_sigma) min_sigma = idx;
      if (idx != rules_.exit_index()) all_exit = false;
    } else {
      senses_non_sigma = true;
      all_exit = false;
    }
  }
  const std::optional<int> own =
      is_sigma(q) ? std::optional<int>(sigma_index(q)) : std::nullopt;
  const RestartDecision d =
      rules_.decide(own, min_sigma, senses_non_sigma, all_exit);
  switch (d.kind) {
    case RestartDecision::Kind::kNone:
      return q;  // host states are inert without a reset wave
    case RestartDecision::Kind::kEnter:
      return sigma_id(0);
    case RestartDecision::Kind::kStep:
      return sigma_id(d.index);
    case RestartDecision::Kind::kExit:
      return initial_state();
  }
  return q;
}

std::string StandaloneRestart::state_name(core::StateId q) const {
  return is_sigma(q)
             ? util::labeled("s", sigma_index(q))
             : util::labeled("h", static_cast<int>(q) - rules_.chain_length());
}

}  // namespace ssau::restart
