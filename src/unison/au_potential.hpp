// Instrumentation of AlgAU's convergence analysis (§2.3.3–2.3.5).
//
// The stabilization proof factors the execution into three phases, each
// certified by a monotone predicate:
//   T0 — the graph becomes (and stays) out-protected        (Cor 2.15),
//   T1 — the graph becomes (and stays) justified            (Cor 2.17),
//   T2 — the graph becomes protected, hence good            (Lem 2.22 + 2.18),
// each within R(O(k^3)).
//
// PhaseTracker measures the empirical T0/T1/T2 round indices of a run and
// audits monotonicity (once a phase predicate holds it must keep holding —
// Obs 2.6, Lem 2.16, Lem 2.10). PotentialSnapshot exposes the quantities the
// proof manipulates (non-protected edges, faulty nodes, non-out-protected
// nodes, unjustified nodes, maximum level gap) so tests can assert the
// "closing the gap" behaviour directly.
#pragma once

#include <cstdint>

#include "core/engine.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"

namespace ssau::unison {

/// The proof-relevant quantities of a configuration.
struct PotentialSnapshot {
  std::size_t non_protected_edges = 0;
  std::size_t faulty_nodes = 0;
  std::size_t non_out_protected_nodes = 0;
  std::size_t unjustified_nodes = 0;
  /// max over non-protected edges of the integer level gap |λu - λv|
  /// (0 when the graph is protected).
  int max_level_gap = 0;
};

/// `c` is in user ids, like the graph-level predicates (au_invariants.hpp).
[[nodiscard]] PotentialSnapshot measure_potential(const TurnSystem& ts,
                                                  const graph::Graph& g,
                                                  const core::Configuration& c);

/// Empirical phase times of one execution (round indices, paper measure).
struct PhaseTimes {
  bool reached_t0 = false;
  bool reached_t1 = false;
  bool reached_t2 = false;
  std::uint64_t t0_rounds = 0;  // graph out-protected from here on
  std::uint64_t t1_rounds = 0;  // graph justified from here on
  std::uint64_t t2_rounds = 0;  // graph good from here on
  /// Monotonicity audit: true iff no phase predicate was ever observed to
  /// flip back from holding to not holding.
  bool monotone = true;
};

/// Runs the engine until the graph is good (or the budget is exhausted),
/// recording when each phase predicate first holds and auditing that none
/// regresses afterwards. The engine advances to the T2 time (or budget).
[[nodiscard]] PhaseTimes track_phases(core::Engine& engine, const AlgAu& alg,
                                      std::uint64_t max_rounds);

}  // namespace ssau::unison
