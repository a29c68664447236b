// The reference interpreter the engine's kernels are judged against.
//
// ReferenceEngine runs the SA model's step literally (paper §1.1): at step t
// the scheduler picks A_t; every v in A_t senses the set of states in N+(v)
// as an owning core::Signal (Signal::from_states) and applies δ through
// Automaton::step; all of A_t then updates at once, and the round operator ϱ
// closes a round at the first time by which every node has been activated
// since the last boundary. It shares no code with core::Engine's kernels —
// no signal views, masks, sets, compiled tables, signal field, shards or
// node reordering — so an engine that agrees with it step for step is
// checked against the model, not against itself.
//
// Randomness follows core::Engine's RNG discipline (core/engine.hpp), so the
// two walk one trajectory for equal seeds: the scheduler draws from
// Rng(seed).fork(), and node v's a-th activation of a randomized automaton
// draws from Rng::activation_stream(seed, v, a).
//
// Header-only on purpose: it is test and bench code, not part of libssau.
// tests/*.cpp include it as "support/reference_engine.hpp"; the engine
// bench links it for its legacy cells.
#pragma once

#include <cstdint>
#include <functional>
#include <stdexcept>
#include <utility>
#include <vector>

#include "core/automaton.hpp"
#include "core/signal.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "sched/scheduler.hpp"
#include "util/rng.hpp"

namespace ssau::oracle {

class ReferenceEngine {
 public:
  /// Same signature as core::Engine::TransitionListener, so one capture
  /// lambda serves both.
  using TransitionListener =
      std::function<void(core::NodeId v, core::StateId from, core::StateId to,
                         const core::Signal& sig, core::Time t)>;

  /// Borrows graph, automaton and scheduler; they must outlive the engine.
  /// Node ids are the graph's own: a graph that carries a reordering
  /// permutation is rejected rather than translated.
  ReferenceEngine(const graph::Graph& g, const core::Automaton& alg,
                  sched::Scheduler& sched, core::Configuration initial,
                  std::uint64_t seed)
      : graph_(g),
        automaton_(alg),
        scheduler_(sched),
        root_rng_(seed),
        sched_rng_(root_rng_.fork()),
        seed_(seed),
        randomized_(!alg.deterministic()),
        activations_(g.num_nodes(), 0),
        pending_(g.num_nodes(), 1),
        pending_count_(g.num_nodes()) {
    if (g.reordered()) {
      throw std::invalid_argument("ReferenceEngine: reordered graph");
    }
    check_configuration(initial);
    config_ = std::move(initial);
  }

  /// Churn-capable overload: a non-const graph lvalue binds here and enables
  /// apply_topology_delta.
  ReferenceEngine(graph::Graph& g, const core::Automaton& alg,
                  sched::Scheduler& sched, core::Configuration initial,
                  std::uint64_t seed)
      : ReferenceEngine(std::as_const(g), alg, sched, std::move(initial),
                        seed) {
    mutable_graph_ = &g;
  }

  ReferenceEngine(const ReferenceEngine&) = delete;
  ReferenceEngine& operator=(const ReferenceEngine&) = delete;

  /// One step: every node of A_t reads C_t, then all of them write C_{t+1}.
  void step() {
    scheduler_.activations(time_, active_, sched_rng_);
    updates_.clear();
    for (const core::NodeId v : active_) {
      sensed_.clear();
      const core::StateId cur = config_[v];
      sensed_.push_back(cur);
      for (const core::NodeId u : graph_.neighbors(v)) {
        sensed_.push_back(config_[u]);
      }
      const core::Signal sig = core::Signal::from_states(sensed_);
      const core::StateId next = automaton_.step(cur, sig, rng_for(v));
      if (next != cur && listener_) listener_(v, cur, next, sig, time_);
      updates_.emplace_back(v, next);
    }
    for (const auto& [v, q] : updates_) {
      config_[v] = q;
      ++activations_[v];
      if (pending_[v] != 0) {
        pending_[v] = 0;
        --pending_count_;
      }
    }
    ++time_;
    if (pending_count_ == 0) {
      ++rounds_;
      last_boundary_time_ = time_;
      pending_.assign(graph_.num_nodes(), 1);
      pending_count_ = graph_.num_nodes();
    }
  }

  /// Steps until `rounds` more rounds have closed.
  void run_rounds(std::uint64_t rounds) {
    const std::uint64_t target = rounds_ + rounds;
    while (rounds_ < target) step();
  }

  [[nodiscard]] const core::Configuration& config() const { return config_; }
  [[nodiscard]] core::Time time() const { return time_; }
  [[nodiscard]] std::uint64_t rounds_completed() const { return rounds_; }
  /// Smallest i with R(i) >= now: rounds_completed() at a round boundary,
  /// one more strictly inside a round.
  [[nodiscard]] std::uint64_t round_index_now() const {
    return time_ == last_boundary_time_ ? rounds_ : rounds_ + 1;
  }
  [[nodiscard]] std::uint64_t activation_count(core::NodeId v) const {
    return activations_[v];
  }

  /// Observes every transition (from != to) with the signal that caused it.
  void set_transition_listener(TransitionListener listener) {
    listener_ = std::move(listener);
  }

  /// Overwrites the configuration; round tracking continues.
  void inject_configuration(core::Configuration config) {
    check_configuration(config);
    config_ = std::move(config);
  }

  /// Overwrites the state of one node.
  void inject_state(core::NodeId v, core::StateId q) {
    if (v >= graph_.num_nodes() || q >= automaton_.state_count()) {
      throw std::invalid_argument("ReferenceEngine: inject_state out of range");
    }
    config_[v] = q;
  }

  /// Edits the live graph in place and tells the scheduler; returns the
  /// effective delta. The configuration, time, rounds and activation counts
  /// carry across. Throws std::logic_error over a const graph.
  graph::TopologyDelta apply_topology_delta(const graph::TopologyDelta& delta) {
    if (mutable_graph_ == nullptr) {
      throw std::logic_error("ReferenceEngine: constructed over a const graph");
    }
    graph::TopologyDelta applied = mutable_graph_->apply_delta(delta);
    scheduler_.on_topology_change(graph_);
    return applied;
  }

 private:
  void check_configuration(const core::Configuration& c) const {
    if (c.size() != graph_.num_nodes()) {
      throw std::invalid_argument("ReferenceEngine: configuration size");
    }
    for (const core::StateId q : c) {
      if (q >= automaton_.state_count()) {
        throw std::invalid_argument("ReferenceEngine: state out of range");
      }
    }
  }

  /// The generator node v's next activation draws from. Deterministic
  /// automata never draw, so they get the (unused) root stream.
  util::Rng& rng_for(core::NodeId v) {
    if (!randomized_) return root_rng_;
    draw_rng_ = util::Rng::activation_stream(seed_, v, activations_[v]);
    return draw_rng_;
  }

  const graph::Graph& graph_;
  graph::Graph* mutable_graph_ = nullptr;
  const core::Automaton& automaton_;
  sched::Scheduler& scheduler_;
  util::Rng root_rng_;
  util::Rng sched_rng_;
  util::Rng draw_rng_{0};
  std::uint64_t seed_;
  bool randomized_;

  core::Configuration config_;
  core::Time time_ = 0;
  std::uint64_t rounds_ = 0;
  core::Time last_boundary_time_ = 0;
  std::vector<std::uint64_t> activations_;
  std::vector<std::uint8_t> pending_;  // not yet activated this round
  std::uint64_t pending_count_;
  TransitionListener listener_;

  // Reused per step.
  std::vector<core::NodeId> active_;
  std::vector<core::StateId> sensed_;
  std::vector<std::pair<core::NodeId, core::StateId>> updates_;
};

}  // namespace ssau::oracle
