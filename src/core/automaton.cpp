#include "core/automaton.hpp"

#include <vector>

#include "util/strings.hpp"

namespace ssau::core {

StateId Automaton::step_mask(StateId q, std::uint64_t mask,
                             util::Rng& rng) const {
  thread_local std::vector<StateId> scratch;
  scratch.clear();
  unpack_mask(mask, scratch);
  return step_fast(q, SignalView(scratch, mask, true), rng);
}

StateId Automaton::step_set(StateId q, const StateSet& set,
                            util::Rng& rng) const {
  thread_local std::vector<StateId> scratch;
  return step_fast(q, unpack_set(set, scratch), rng);
}

StateId Automaton::step_wide(StateId q, const WideStateSet& set,
                             util::Rng& rng) const {
  thread_local std::vector<StateId> scratch;
  return step_fast(q, unpack_set(set, scratch), rng);
}

std::string Automaton::state_name(StateId q) const {
  return util::labeled("q", q);
}

}  // namespace ssau::core
