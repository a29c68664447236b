// The signal-field layer (core/signal_field.hpp): unit-level equivalence of
// delta maintenance to a fresh rebuild, engine routing policy, and the
// differential suite pinning the field-sensed engine bit-identical to the
// reference interpreter for AU + MIS + LE across ALL eight schedulers
// (including burst and permutation, which have no golden-trace coverage) at
// thread counts {1, 2, 4, 8} — configurations, rounds, activation counts,
// and listener streams.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/signal_field.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "sync/simple_sync_algs.hpp"
#include "sync/synchronizer.hpp"
#include "unison/alg_au.hpp"
#include "util/rng.hpp"
#include "support/reference_engine.hpp"

namespace ssau {
namespace {

std::vector<std::string> all_scheduler_names() {
  std::vector<std::string> names = sched::async_scheduler_names();
  names.insert(names.begin(), "synchronous");
  return names;
}

/// Multiplicity of q in N+(v) recomputed from scratch — the oracle every
/// incremental counter is checked against.
std::uint32_t brute_count(const graph::Graph& g, const core::Configuration& c,
                          core::NodeId v, core::StateId q) {
  std::uint32_t n = c[v] == q ? 1 : 0;
  for (const core::NodeId u : g.neighbors(v)) n += c[u] == q ? 1 : 0;
  return n;
}

/// Asserts the field equals a fresh rebuild of `c`: every counter, every
/// presence bit, and the sense() output (span, mask, has_mask) against an
/// independent SignalScratch rescan.
void expect_field_matches(const core::SignalField& field, const graph::Graph& g,
                          const core::Configuration& c,
                          core::StateId state_count) {
  core::SignalScratch rescan;
  std::vector<core::StateId> scratch;
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (core::StateId q = 0; q < state_count; ++q) {
      ASSERT_EQ(field.count_of(v, q), brute_count(g, c, v, q))
          << "v=" << v << " q=" << q;
    }
    const core::SignalView got = field.sense(v, scratch);
    const core::SignalView want = rescan.sense(g, c, v);
    ASSERT_EQ(std::vector<core::StateId>(got.states().begin(),
                                         got.states().end()),
              std::vector<core::StateId>(want.states().begin(),
                                         want.states().end()))
        << "sense span mismatch at v=" << v;
    ASSERT_EQ(got.has_mask(), want.has_mask());
    if (got.has_mask()) {
      ASSERT_EQ(got.mask(), want.mask());
    }
    if (field.mask_exact()) {
      ASSERT_EQ(field.mask_of(v), want.mask());
    }
    if (state_count <= core::StateSet::kBits) {
      ASSERT_EQ(field.set_of(v).words,
                core::neighborhood_set(g, c.data(), v).words)
          << "v=" << v;
    }
  }
  // The same senses from a field rebuilt from scratch.
  const core::SignalField fresh(g, state_count, c);
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    if (field.mask_exact()) {
      ASSERT_EQ(field.mask_of(v), fresh.mask_of(v));
    }
    if (state_count <= core::StateSet::kBits) {
      ASSERT_EQ(field.set_of(v).words, fresh.set_of(v).words);
    }
  }
}

/// |Q| around the node-major stride's padding edges (multiples of 8) and
/// the one-word/multi-word boundary at 64.
constexpr core::StateId kFuzzSizes[] = {1, 2, 7, 8, 9, 30, 63, 64, 65};

/// Fuzz: random single-node transitions patched incrementally must keep the
/// field equal to a from-scratch rebuild at every step.
void fuzz_transitions(core::StateId state_count, int rounds,
                      std::uint64_t seed) {
  util::Rng rng(seed);
  const graph::Graph g = graph::random_connected(24, 0.2, rng);
  core::Configuration c(g.num_nodes());
  for (auto& q : c) q = rng.below(state_count);
  core::SignalField field(g, state_count, c);
  expect_field_matches(field, g, c, state_count);
  for (int i = 0; i < rounds; ++i) {
    const auto v = static_cast<core::NodeId>(rng.below(g.num_nodes()));
    core::StateId next = rng.below(state_count);
    if (next == c[v]) continue;
    field.apply_transition(v, c[v], next);
    c[v] = next;
    if (i % 16 == 0) expect_field_matches(field, g, c, state_count);
  }
  expect_field_matches(field, g, c, state_count);
}

TEST(SignalField, DenseSingleWordDeltaEqualsRebuild) {
  for (const core::StateId q : kFuzzSizes) {
    SCOPED_TRACE(q);
    fuzz_transitions(q, /*rounds=*/400, /*seed=*/41 + q);
  }
}

/// Fuzz: random edge insertions and removals, patched per effective edge,
/// must keep the field equal to a rebuild on the edited graph.
void fuzz_edges(core::StateId state_count, int rounds, std::uint64_t seed) {
  util::Rng rng(seed);
  graph::Graph g = graph::random_connected(24, 0.2, rng);
  core::Configuration c(g.num_nodes());
  for (auto& q : c) q = rng.below(state_count);
  core::SignalField field(g, state_count, c);
  for (int i = 0; i < rounds; ++i) {
    const auto u = static_cast<core::NodeId>(rng.below(g.num_nodes()));
    const auto v = static_cast<core::NodeId>(rng.below(g.num_nodes()));
    if (u == v) continue;
    graph::TopologyDelta delta;
    (rng.bernoulli(0.5) ? delta.add : delta.remove).push_back({u, v});
    const graph::TopologyDelta applied = g.apply_delta(delta);
    for (const auto& [a, b] : applied.remove) {
      field.apply_edge_removal(a, b, c[a], c[b]);
    }
    for (const auto& [a, b] : applied.add) {
      field.apply_edge_insertion(a, b, c[a], c[b]);
    }
    if (i % 16 == 0) expect_field_matches(field, g, c, state_count);
  }
  expect_field_matches(field, g, c, state_count);
}

TEST(SignalField, EdgeEditsEqualRebuildAtEverySize) {
  for (const core::StateId q : kFuzzSizes) {
    SCOPED_TRACE(q);
    fuzz_edges(q, /*rounds=*/200, /*seed=*/53 + q);
  }
  fuzz_edges(/*state_count=*/1000, /*rounds=*/200, /*seed=*/53);  // sparse
}

TEST(SignalField, ScalarAndSse2PresenceMasksAgree) {
  // Rows of every stride the node-major layout uses, with zero counters
  // mixed among values whose sign bit is set as a signed 16-bit lane.
  util::Rng rng(57);
  const std::uint16_t values[] = {0, 1, 2, 0x7FFF, 0x8000, 0xFFFE, 0xFFFF};
  std::vector<std::uint16_t> row(64);
  for (core::StateId stride = 8; stride <= 64; stride += 8) {
    for (int trial = 0; trial < 200; ++trial) {
      std::uint64_t want = 0;
      for (core::StateId q = 0; q < 64; ++q) {
        row[q] = q < stride ? values[rng.below(std::size(values))] : 0;
        if (row[q] != 0) want |= std::uint64_t{1} << q;
      }
      ASSERT_EQ(core::presence_mask_scalar(row.data(), stride), want);
#if defined(__SSE2__)
      ASSERT_EQ(core::presence_mask_sse2(row.data(), stride), want)
          << "stride " << stride;
#endif
    }
  }
}

TEST(SignalField, DenseMultiWordDeltaEqualsRebuild) {
  // 64 < |Q| <= kDenseStateLimit: multi-word presence bitmap, mask_exact
  // false, still the flat counter table.
  fuzz_transitions(/*state_count=*/130, /*rounds=*/400, /*seed=*/43);
}

TEST(SignalField, SparseMultisetDeltaEqualsRebuild) {
  // |Q| > kDenseStateLimit routes to the compact sorted-multiset fallback.
  fuzz_transitions(/*state_count=*/1000, /*rounds=*/400, /*seed=*/47);
}

TEST(SignalField, RepresentationRouting) {
  const graph::Graph g = graph::cycle(8);
  const core::Configuration c(8, 0);
  EXPECT_TRUE(core::SignalField(g, 64, c).dense());
  EXPECT_TRUE(core::SignalField(g, 64, c).mask_exact());
  EXPECT_TRUE(core::SignalField(g, core::SignalField::kDenseStateLimit, c).dense());
  EXPECT_FALSE(
      core::SignalField(g, core::SignalField::kDenseStateLimit, c).mask_exact());
  EXPECT_FALSE(
      core::SignalField(g, core::SignalField::kDenseStateLimit + 1, c).dense());

  // n bounds the table too: a node count that would blow the dense byte
  // budget routes to the sparse multiset even with an eligible |Q|.
  constexpr core::StateId kQ = 256;
  const auto big_n = static_cast<core::NodeId>(
      core::SignalField::kDenseMaxCounterBytes / (kQ * sizeof(std::uint16_t)) +
      1);
  const graph::Graph big(big_n, {{0, 1}});
  EXPECT_FALSE(
      core::SignalField(big, kQ, core::Configuration(big_n, 0)).dense());
}

TEST(SignalField, RebuildRecoversFromArbitraryOverwrite) {
  util::Rng rng(59);
  const graph::Graph g = graph::wheel(9);
  core::Configuration c(g.num_nodes());
  for (auto& q : c) q = rng.below(20);
  core::SignalField field(g, 20, c);
  for (auto& q : c) q = rng.below(20);  // overwrite behind the field's back
  field.rebuild(c);
  expect_field_matches(field, g, c, 20);
}

// --- engine routing policy ---------------------------------------------------

TEST(SignalFieldRouting, AutoEnablesOnlyTheSerialDaemonRegime) {
  util::Rng rng(61);
  // Dense enough that avg_degree clears kSignalFieldMinAvgDegree (the
  // heavy-sense floor — AlgMis is randomized, so its rescan path is far
  // more than an OR-loop).
  const graph::Graph g = graph::random_connected(40, 0.3, rng);
  ASSERT_GE(g.avg_degree(), core::kSignalFieldMinAvgDegree);
  const mis::AlgMis alg({.diameter_bound = 3});
  const core::Configuration c0 =
      core::random_configuration(alg, g.num_nodes(), rng);

  const auto active = [&](const std::string& sched_name,
                          core::EngineOptions opts = {}) {
    auto sched = sched::make_scheduler(sched_name, g);
    core::Engine e(g, alg, *sched, c0, 7, opts);
    return e.signal_field_active();
  };

  // Single-node daemons: the regime the field exists for.
  EXPECT_TRUE(active("uniform-single"));
  EXPECT_TRUE(active("rotating-single"));
  EXPECT_TRUE(active("permutation"));
  EXPECT_TRUE(active("burst"));
  // Full activation and large-set daemons: rescan / sharded kernels win.
  EXPECT_FALSE(active("synchronous"));
  EXPECT_FALSE(active("laggard"));        // hint n-1 > n/2
  EXPECT_FALSE(active("random-subset"));  // hint n
  // Explicit overrides beat the heuristic.
  EXPECT_FALSE(active("uniform-single",
                      {.signal_field = core::SignalFieldMode::kOff}));
  EXPECT_TRUE(
      active("synchronous", {.signal_field = core::SignalFieldMode::kOn}));
}

TEST(SignalFieldRouting, AutoAppliesTheMaskKernelDegreeFloor) {
  // AlgAu ships a native O(1) mask kernel, so kAuto demands the stricter
  // kSignalFieldMaskKernelMinAvgDegree: a mid-density graph routes it to
  // the rescan while heavy-sense AlgMis still gets the field.
  util::Rng rng(62);
  const graph::Graph mid = graph::random_connected(40, 0.3, rng);
  ASSERT_GE(mid.avg_degree(), core::kSignalFieldMinAvgDegree);
  ASSERT_LT(mid.avg_degree(), core::kSignalFieldMaskKernelMinAvgDegree);
  const unison::AlgAu au(2);
  {
    auto sched = sched::make_scheduler("uniform-single", mid);
    core::Engine e(mid, au, *sched,
                   core::random_configuration(au, mid.num_nodes(), rng), 7);
    EXPECT_FALSE(e.signal_field_active());
  }
  // A near-clique clears even the mask-kernel floor.
  const graph::Graph dense = graph::damaged_clique(40, 0.05, rng);
  ASSERT_GE(dense.avg_degree(), core::kSignalFieldMaskKernelMinAvgDegree);
  {
    auto sched = sched::make_scheduler("uniform-single", dense);
    core::Engine e(dense, au, *sched,
                   core::random_configuration(au, dense.num_nodes(), rng), 7);
    EXPECT_TRUE(e.signal_field_active());
  }
}

TEST(SignalFieldRouting, AutoBailsOutWhenPatchingOutweighsRescans) {
  // A rotation daemon re-activates each node exactly once per cycle, so
  // unison clocks advance on nearly every activation: the kAuto field on a
  // mask-kernel automaton observes patches outweighing saved rescans and
  // self-disables at a window boundary. Under the randomized single daemon
  // the coupon-collector re-activation pattern keeps the transition rate
  // low and the field stays. (Bit-identity is untouched either way — the
  // differential suite below covers both sensing paths.)
  util::Rng rng(97);
  const graph::Graph g = graph::damaged_clique(48, 0.05, rng);
  ASSERT_GE(g.avg_degree(), core::kSignalFieldMaskKernelMinAvgDegree);
  const unison::AlgAu au(1);
  const core::Configuration c0 = core::uniform_configuration(g.num_nodes(), 0);
  const auto active_after = [&](const char* sched_name) {
    auto sched = sched::make_scheduler(sched_name, g);
    core::Engine e(g, au, *sched, c0, 101);
    EXPECT_TRUE(e.signal_field_active()) << sched_name;
    const auto steps = static_cast<int>(2 * core::kSignalFieldAdaptiveWindow);
    for (int s = 0; s < steps; ++s) e.step();
    return e.signal_field_active();
  };
  EXPECT_FALSE(active_after("rotating-single"));
  EXPECT_TRUE(active_after("uniform-single"));
}

TEST(SignalFieldRouting, AutoDeclinesSparseNeighborhoods) {
  // A path's avg degree (< 2) sits below every routing floor: the rescan
  // reads two or three states, delta maintenance cannot pay for itself.
  const graph::Graph g = graph::path(32);
  ASSERT_LT(g.avg_degree(), core::kSignalFieldMinAvgDegree);
  const mis::AlgMis alg({.diameter_bound = 6});
  util::Rng rng(63);
  auto sched = sched::make_scheduler("uniform-single", g);
  core::Engine e(g, alg, *sched,
                 core::random_configuration(alg, g.num_nodes(), rng), 7);
  EXPECT_FALSE(e.signal_field_active());
}

// --- differential suite ------------------------------------------------------

/// A random-subset daemon whose draw is usually empty on these small
/// graphs: most of its steps fall back to one node (the one-pass step), the
/// rest activate several (the two-phase loop).
constexpr double kSparseSubsetP = 0.03;

/// Field-sensed engine (signal_field forced ON, tiny sparse threshold so the
/// large-set daemons shard) vs the reference interpreter, in lockstep; then
/// round by round, each run_rounds(1) ending on its boundary step.
void expect_field_matches_oracle(const graph::Graph& g,
                                 const core::Automaton& alg,
                                 const core::Configuration& initial,
                                 const std::string& sched_name,
                                 unsigned threads, std::uint64_t seed,
                                 int steps, double subset_p = 0.5) {
  auto field_sched = sched::make_scheduler(sched_name, g, subset_p);
  auto legacy_sched = sched::make_scheduler(sched_name, g, subset_p);
  core::Engine field(g, alg, *field_sched, initial, seed,
                     core::EngineOptions{
                         .thread_count = threads,
                         .sparse_activation_threshold = 2,
                         .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, initial, seed);
  ASSERT_TRUE(field.signal_field_active());
  for (int s = 0; s < steps; ++s) {
    field.step();
    legacy.step();
    ASSERT_EQ(field.config(), legacy.config())
        << sched_name << " threads=" << threads << " diverged at step " << s;
    ASSERT_EQ(field.time(), legacy.time());
    ASSERT_EQ(field.rounds_completed(), legacy.rounds_completed())
        << sched_name << " threads=" << threads << " round drift at step " << s;
    ASSERT_EQ(field.round_index_now(), legacy.round_index_now());
  }
  for (int r = 0; r < 3; ++r) {
    field.run_rounds(1);
    legacy.run_rounds(1);
    ASSERT_EQ(field.time(), legacy.time()) << sched_name << " run_rounds";
    ASSERT_EQ(field.rounds_completed(), legacy.rounds_completed());
    ASSERT_EQ(field.round_index_now(), field.rounds_completed());
    ASSERT_EQ(field.config(), legacy.config()) << sched_name << " run_rounds";
  }
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    ASSERT_EQ(field.activation_count(v), legacy.activation_count(v));
  }
}

TEST(SignalFieldDifferential, AlgAuAllSchedulersAllThreadCounts) {
  const unison::AlgAu alg(2);
  util::Rng rng(67);
  const graph::Graph g = graph::random_bounded_diameter(24, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_field_matches_oracle(g, alg, c0, sched_name, threads, 211, 200);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    expect_field_matches_oracle(g, alg, c0, "random-subset", threads, 211,
                                200, kSparseSubsetP);
  }
}

TEST(SignalFieldDifferential, AlgMisAllSchedulersAllThreadCounts) {
  // Randomized: additionally pins the per-node rng draw sequences (a field
  // sense that consulted the rng differently would diverge in a few steps).
  const mis::AlgMis alg({.diameter_bound = 2});
  util::Rng rng(71);
  const graph::Graph g = graph::random_bounded_diameter(20, 2, rng);
  const core::Configuration c0 =
      mis::mis_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_field_matches_oracle(g, alg, c0, sched_name, threads, 223, 200);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    expect_field_matches_oracle(g, alg, c0, "random-subset", threads, 223,
                                200, kSparseSubsetP);
  }
}

TEST(SignalFieldDifferential, AlgLeAllSchedulersAllThreadCounts) {
  const le::AlgLe alg({.diameter_bound = 2});
  util::Rng rng(73);
  const graph::Graph g = graph::random_bounded_diameter(18, 2, rng);
  const core::Configuration c0 =
      le::le_adversarial_configuration("random", alg, g, rng);
  for (const std::string& sched_name : all_scheduler_names()) {
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
      expect_field_matches_oracle(g, alg, c0, sched_name, threads, 227, 200);
    }
  }
  for (const unsigned threads : {1u, 4u}) {
    expect_field_matches_oracle(g, alg, c0, "random-subset", threads, 227,
                                200, kSparseSubsetP);
  }
}

TEST(SignalFieldDifferential, SparseRepresentationSynchronizerProduct) {
  // The synchronizer product space (|Q| = 8^2 * 18 = 1152) exercises the
  // sorted-multiset representation end to end. The synchronizer is not
  // parallel_safe, so the engine stays serial regardless of thread_count.
  const sync::MinPropagation inner(8);
  const sync::Synchronizer alg(inner, 1);
  ASSERT_GT(alg.state_count(), core::SignalField::kDenseStateLimit);
  util::Rng rng(79);
  const graph::Graph g = graph::wheel(9);
  const core::Configuration c0 =
      core::random_configuration(alg, g.num_nodes(), rng);
  for (const char* sched_name : {"uniform-single", "burst", "permutation"}) {
    expect_field_matches_oracle(g, alg, c0, sched_name, 1, 229, 120);
  }
}

TEST(SignalFieldDifferential, ListenerStreamsMatchOracle) {
  // The field-sensed listener path materializes signals from the field into
  // a reused scratch Signal; the observed streams (and signal contents) must
  // equal the reference interpreter's allocating path exactly. AlgAu(1) is a
  // mask-kernel automaton: under every asynchronous daemon its one-node
  // steps emit before they apply, so each signal is the pre-step one.
  const unison::AlgAu alg(1);
  util::Rng rng(83);
  const graph::Graph g = graph::random_bounded_diameter(16, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  struct Event {
    core::NodeId v;
    core::StateId from, to;
    core::Time t;
    bool operator==(const Event&) const = default;
  };
  for (const std::string& sched_name : sched::async_scheduler_names()) {
    const auto run = [&](auto& engine) {
      std::vector<Event> events;
      std::vector<core::Signal> signals;
      engine.set_transition_listener(
          [&](core::NodeId v, core::StateId from, core::StateId to,
              const core::Signal& sig, core::Time t) {
            events.push_back({v, from, to, t});
            signals.push_back(sig);  // must copy: the reference is scratch
          });
      for (int s = 0; s < 300; ++s) engine.step();
      return std::make_pair(events, signals);
    };
    auto field_sched = sched::make_scheduler(sched_name, g);
    core::Engine field(g, alg, *field_sched, c0, 233,
                       {.signal_field = core::SignalFieldMode::kOn});
    auto legacy_sched = sched::make_scheduler(sched_name, g);
    oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 233);
    const auto [field_events, field_signals] = run(field);
    const auto [legacy_events, legacy_signals] = run(legacy);
    EXPECT_EQ(field_events, legacy_events) << sched_name;
    EXPECT_EQ(field_signals, legacy_signals) << sched_name;
    EXPECT_FALSE(field_events.empty()) << sched_name;
  }
}

TEST(SignalFieldDifferential, InjectionsStayBitIdentical) {
  // inject_state patches a live field in place; inject_configuration marks
  // it stale for a lazy rebuild. Either way the continued run must track the
  // oracle exactly.
  const unison::AlgAu alg(2);
  util::Rng rng(89);
  const graph::Graph g = graph::random_bounded_diameter(20, 2, rng);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  core::Configuration mid(g.num_nodes());
  for (auto& q : mid) q = rng.below(alg.state_count());

  auto field_sched = sched::make_scheduler("uniform-single", g);
  auto legacy_sched = sched::make_scheduler("uniform-single", g);
  core::Engine field(g, alg, *field_sched, c0, 239,
                     core::EngineOptions{
                         .signal_field = core::SignalFieldMode::kOn});
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 239);
  ASSERT_TRUE(field.signal_field_active());
  auto lockstep = [&](int steps) {
    for (int s = 0; s < steps; ++s) {
      field.step();
      legacy.step();
      ASSERT_EQ(field.config(), legacy.config()) << "step " << s;
    }
  };
  lockstep(60);
  field.inject_state(3, 0);
  legacy.inject_state(3, 0);
  lockstep(60);
  field.inject_configuration(mid);
  legacy.inject_configuration(mid);
  EXPECT_TRUE(field.signal_field_stale());
  lockstep(1);  // the next field sense rebuilds lazily
  EXPECT_FALSE(field.signal_field_stale());
  lockstep(59);
  ASSERT_EQ(field.rounds_completed(), legacy.rounds_completed());
}

TEST(SignalFieldDifferential, FullActivationFieldStaysStaleAfterInjection) {
  // A forced-on field under a synchronous scheduler is patched per step but
  // never sensed, so an injection leaves it stale forever — the accessor
  // pair (signal_field(), signal_field_stale()) is how observability
  // readers learn its counters describe the pre-injection configuration.
  const unison::AlgAu alg(1);
  util::Rng rng(91);
  const graph::Graph g = graph::wheel(8);
  const core::Configuration c0 =
      unison::au_adversarial_configuration("random", alg, g, rng);
  auto sched = sched::make_scheduler("synchronous", g);
  core::Engine e(g, alg, *sched, c0, 241,
                 core::EngineOptions{
                     .signal_field = core::SignalFieldMode::kOn});
  ASSERT_TRUE(e.signal_field_active());
  for (int s = 0; s < 5; ++s) e.step();
  EXPECT_FALSE(e.signal_field_stale());
  core::Configuration mid(g.num_nodes());
  for (auto& q : mid) q = rng.below(alg.state_count());
  e.inject_configuration(mid);
  EXPECT_TRUE(e.signal_field_stale());
  for (int s = 0; s < 5; ++s) e.step();
  EXPECT_TRUE(e.signal_field_stale());  // nothing here senses -> stays stale
}

}  // namespace
}  // namespace ssau
