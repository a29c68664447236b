// Shared helpers for the reproduction benches: standard instance batteries
// and formatting. Each bench binary regenerates one table/figure/theorem
// artifact and prints its rows; DESIGN.md's experiment index lists them
// (E1-E15).
#pragma once

#include <iostream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "util/rng.hpp"

namespace ssau::bench {

struct Instance {
  std::string name;
  graph::Graph graph;
  int diameter;
};

/// Graphs whose diameter is exactly `d` (for clean D sweeps).
inline std::vector<Instance> instances_with_diameter(int d, util::Rng& rng) {
  std::vector<Instance> out;
  auto add = [&](std::string name, graph::Graph g) {
    const int diam = static_cast<int>(graph::diameter(g));
    if (diam == d) out.push_back({std::move(name), std::move(g), diam});
  };
  add("cycle" + std::to_string(2 * d), graph::cycle(2 * d >= 3 ? 2 * d : 3));
  add("path" + std::to_string(d + 1), graph::path(d + 1));
  if (d >= 2) {
    add("grid2x" + std::to_string(d), graph::grid(2, d));
  }
  if (d >= 1) {
    try {
      add("randbd", graph::random_bounded_diameter(3 * d + 4,
                                                   static_cast<unsigned>(d),
                                                   rng));
    } catch (const std::exception&) {
      // Rejection sampling may miss the exact diameter; skip quietly.
    }
  }
  return out;
}

inline void header(const std::string& title) {
  std::cout << "\n==== " << title << " ====\n\n";
}

}  // namespace ssau::bench
