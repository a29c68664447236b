#include "core/row_walk.hpp"

#include <stdexcept>
#include <string>

namespace ssau::core {

StateId check_configuration(const graph::Graph& g, const Configuration& c,
                            StateId state_count, const char* who) {
  if (c.size() != g.num_nodes()) {
    throw std::invalid_argument(std::string(who) + ": configuration has " +
                                std::to_string(c.size()) + " states for " +
                                std::to_string(g.num_nodes()) + " nodes");
  }
  StateId max = 0;
  for (const StateId q : c) max = std::max(max, q);
  if (!c.empty() && max >= state_count) {
    throw std::invalid_argument(std::string(who) + ": state " +
                                std::to_string(max) + " out of range for |Q|=" +
                                std::to_string(state_count));
  }
  return max;
}

const Configuration& layout_order(const graph::Graph& g, const Configuration& c,
                                  Configuration& buffer) {
  if (!g.reordered()) return c;
  buffer.resize(c.size());
  for (NodeId i = 0; i < g.num_nodes(); ++i) buffer[i] = c[g.to_user(i)];
  return buffer;
}

}  // namespace ssau::core
