#include "unison/failed_au.hpp"

#include <map>
#include <stdexcept>

#include "core/row_walk.hpp"
#include "util/strings.hpp"

namespace ssau::unison {

FailedAu::FailedAu(int diameter_bound, FailedAuOptions options)
    : options_(options) {
  if (diameter_bound < 1 || options.c < 1) {
    throw std::invalid_argument("FailedAu: need D >= 1, c >= 1");
  }
  cd_ = options.c * diameter_bound;
}

core::StateId FailedAu::able_id(int l) const {
  if (l < 0 || l > cd_) throw std::invalid_argument("FailedAu::able_id");
  return static_cast<core::StateId>(l);
}

core::StateId FailedAu::reset_id(int i) const {
  if (i < 0 || i > cd_) throw std::invalid_argument("FailedAu::reset_id");
  return static_cast<core::StateId>(cd_ + 1 + i);
}

bool FailedAu::is_reset(core::StateId q) const {
  return q > static_cast<core::StateId>(cd_);
}

int FailedAu::value_of(core::StateId q) const {
  if (q >= state_count()) throw std::invalid_argument("FailedAu::value_of");
  const int v = static_cast<int>(q);
  return is_reset(q) ? v - (cd_ + 1) : v;
}

core::StateId FailedAu::step_fast(core::StateId q, const core::SignalView& sig,
                                  util::Rng& /*rng*/) const {
  const int m = cd_ + 1;  // modulus of the main clock
  if (!is_reset(q)) {
    const int l = value_of(q);
    const int fwd = (l + 1) % m;
    const int bwd = (l + m - 1) % m;

    // (ST1): Θ ⊆ {ℓ, ℓ'} -> tick to ℓ'.
    bool st1 = true;
    // (ST2): Θ ⊄ {ℓ, ℓ', ℓ''} (plus R_cD when ℓ = 0) -> R_0.
    bool st2 = false;
    for (const core::StateId s : sig.states()) {
      const bool in_step =
          !is_reset(s) && (value_of(s) == l || value_of(s) == fwd);
      if (!in_step) st1 = false;
      bool allowed = !is_reset(s) && (value_of(s) == l || value_of(s) == fwd ||
                                      value_of(s) == bwd);
      if (l == 0 && is_reset(s) && value_of(s) == cd_) allowed = true;
      if (!allowed) st2 = true;
    }
    if (st1) return able_id(fwd);
    if (st2) return reset_id(0);
    return q;
  }

  // (ST3): reset chain progress.
  const int i = value_of(q);
  if (i < cd_) {
    for (const core::StateId s : sig.states()) {
      if (!is_reset(s) || value_of(s) < i) return q;
    }
    return reset_id(i + 1);
  }
  // i == cD: exit to turn 0.
  if (options_.strict_exit) {
    // Θ = {R_cD} exactly (matches Figure 2(b)).
    for (const core::StateId s : sig.states()) {
      if (s != reset_id(cd_)) return q;
    }
    return able_id(0);
  }
  // Θ ⊆ {R_cD, 0} (the guard as stated in Appendix A).
  for (const core::StateId s : sig.states()) {
    if (s != reset_id(cd_) && s != able_id(0)) return q;
  }
  return able_id(0);
}

std::string FailedAu::state_name(core::StateId q) const {
  return util::labeled(is_reset(q) ? "R" : "", value_of(q));
}

bool FailedAu::legitimate(const graph::Graph& g,
                          const core::Configuration& c) const {
  // Resets sit above every able id, and an able id is its turn value.
  if (is_reset(core::check_configuration(g, c, state_count(),
                                         "FailedAu::legitimate"))) {
    return false;
  }
  const auto m = static_cast<core::StateId>(cd_ + 1);
  core::Configuration buffer;
  return core::all_edges(g, core::layout_order(g, c, buffer),
                         [m](core::StateId a, core::StateId b) {
                           return core::cyclic_adjacent(a, b, m);
                         });
}

core::Configuration figure2a_configuration(const FailedAu& alg) {
  if (alg.num_turns() != 5) {
    throw std::invalid_argument(
        "figure2a_configuration requires D = 2, c = 2 (turns 0..4)");
  }
  return {alg.able_id(0),  alg.able_id(0),  alg.reset_id(0), alg.reset_id(1),
          alg.reset_id(2), alg.reset_id(3), alg.reset_id(4), alg.reset_id(4)};
}

CycleDetection detect_livelock(
    core::Engine& engine, std::uint64_t schedule_period,
    std::uint64_t max_steps,
    const std::function<bool(const core::Configuration&)>& legitimate) {
  CycleDetection result;
  std::map<std::pair<core::Configuration, std::uint64_t>, std::uint64_t> seen;
  for (std::uint64_t step = 0; step < max_steps; ++step) {
    const auto key =
        std::make_pair(engine.config(), engine.time() % schedule_period);
    const auto [it, inserted] = seen.emplace(key, engine.time());
    if (!inserted) {
      result.cycle_found = true;
      result.cycle_start = it->second;
      result.cycle_length = engine.time() - it->second;
      result.steps_run = engine.time();
      return result;
    }
    if (legitimate(engine.config())) {
      result.legitimate_seen = true;
      result.steps_run = engine.time();
      return result;
    }
    engine.step();
  }
  result.steps_run = engine.time();
  return result;
}

}  // namespace ssau::unison
