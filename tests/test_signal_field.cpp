// The signal-field layer (core/signal_field.hpp): unit-level equivalence of
// delta maintenance to a fresh rebuild, the engine's one routing rule, and
// the differential suite pinning the field-forced engine bit-identical to the
// reference interpreter for AU + MIS + LE across ALL eight schedulers
// (including burst and permutation, which have no golden-trace coverage) at
// thread counts {1, 2, 4, 8} — configurations, rounds, activation counts,
// listener streams, and an engine state hash equal to a serial field-less
// twin's.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/command_log.hpp"
#include "core/engine.hpp"
#include "core/signal_field.hpp"
#include "graph/generators.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "sync/simple_sync_algs.hpp"
#include "sync/synchronizer.hpp"
#include "unison/alg_au.hpp"
#include "unison/baselines.hpp"
#include "util/rng.hpp"
#include "support/field_routing.hpp"
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

TEST(SignalFieldRouting, OneRuleForEveryKernelDaemonAndMode) {
  // The routing rule as one table: five automaton kernels x all eight
  // daemons x a graph below the kAuto degree floor and one at average degree
  // ~10 x serial and 4-thread (sparse threshold 2) engines x the three
  // modes. signal_field_active() must equal the rule at construction, and
  // still equal it after 2 x 8,192 rotating-single steps: no step revisits
  // the decision.
  util::Rng rng(61);
  const graph::Graph below_floor = graph::random_connected(40, 0.02, rng);
  const graph::Graph degree_10 = graph::random_connected(40, 0.21, rng);
  ASSERT_LT(below_floor.avg_degree(), core::kSignalFieldMinAvgDegree);
  ASSERT_GT(degree_10.avg_degree(), 8.0);
  ASSERT_LT(degree_10.avg_degree(), 12.0);

  const unison::AlgAu mask_au(2);                 // native mask kernel
  const unison::ResetUnison table_reset(1, 6);    // dense compiled table
  const sync::MinPropagation memo_minprop(32);    // lazy-memo compiled table
  const unison::AlgAu set_au(5);                  // 256-bit set kernel
  const mis::AlgMis wide_mis({.diameter_bound = 12});  // wide store
  ASSERT_TRUE(mask_au.native_mask_kernel());
  ASSERT_GT(set_au.state_count(), core::SignalView::kMaskBits);
  ASSERT_LE(set_au.state_count(), 256u);
  ASSERT_GT(wide_mis.state_count(), 256u);
  const std::vector<std::pair<std::string, const core::Automaton*>> kernels = {
      {"mask alg-au(2)", &mask_au},
      {"table reset-unison", &table_reset},
      {"memo min-prop-32", &memo_minprop},
      {"set alg-au(5)", &set_au},
      {"wide alg-mis", &wide_mis}};
  const std::vector<core::EngineOptions> engines = {
      {.thread_count = 1},
      {.thread_count = 4, .sparse_activation_threshold = 2}};
  const core::SignalFieldMode modes[] = {core::SignalFieldMode::kAuto,
                                         core::SignalFieldMode::kOn,
                                         core::SignalFieldMode::kOff};
  constexpr int kLongRun = 2 * 8192;

  for (const auto& [kernel_name, alg] : kernels) {
    for (const graph::Graph* g : {&below_floor, &degree_10}) {
      const core::Configuration c0 =
          core::random_configuration(*alg, g->num_nodes(), rng);
      for (const std::string& sched_name : all_scheduler_names()) {
        for (core::EngineOptions opts : engines) {
          for (const core::SignalFieldMode mode : modes) {
            opts.signal_field = mode;
            SCOPED_TRACE(kernel_name + " x " + sched_name + " x avg degree " +
                         std::to_string(g->avg_degree()) + " x threads " +
                         std::to_string(opts.thread_count) + " x mode " +
                         std::to_string(static_cast<int>(mode)));
            auto sched = sched::make_scheduler(sched_name, *g);
            const bool routed = oracle::field_routed(*g, *alg, *sched, opts);
            core::Engine e(*g, *alg, *sched, c0, 7, opts);
            EXPECT_EQ(e.signal_field_active(), routed);
            if (sched_name != "rotating-single") continue;
            for (int s = 0; s < kLongRun; ++s) e.step();
            EXPECT_EQ(e.signal_field_active(), routed);
          }
        }
      }
    }
  }

  // A few rows stated literally, so the rule above cannot drift together
  // with the engine. Every byte-store kernel gets the field from kAuto on
  // the serial single-node daemons at degree ~10 — the mask kernels
  // included; the wide store never does, since its field would be the
  // sorted multiset, which patches slower than the wide set rescans.
  const auto active = [&](const core::Automaton& alg, const char* sched_name,
                          core::EngineOptions opts) {
    auto sched = sched::make_scheduler(sched_name, degree_10);
    core::Engine e(degree_10, alg, *sched,
                   core::random_configuration(alg, degree_10.num_nodes(), rng),
                   7, opts);
    return e.signal_field_active();
  };
  for (const auto& [kernel_name, alg] : kernels) {
    SCOPED_TRACE(kernel_name);
    const bool wide = alg->state_count() > 256;
    for (const char* single : {"uniform-single", "rotating-single",
                               "permutation", "burst"}) {
      EXPECT_EQ(active(*alg, single, {}), !wide);
    }
    EXPECT_FALSE(active(*alg, "synchronous", {}));
    EXPECT_FALSE(active(*alg, "laggard", {}));        // hint n - 1 > n / 2
    EXPECT_FALSE(active(*alg, "random-subset", {}));  // hint n
    constexpr core::SignalFieldMode kOn = core::SignalFieldMode::kOn;
    EXPECT_FALSE(active(*alg, "uniform-single",
                        {.signal_field = core::SignalFieldMode::kOff}));
    // kOn builds a field only where every step runs the serial path.
    EXPECT_FALSE(active(*alg, "synchronous", {.signal_field = kOn}));
    EXPECT_TRUE(active(*alg, "laggard", {.signal_field = kOn}));
    EXPECT_FALSE(active(*alg, "laggard",
                        {.thread_count = 4,
                         .sparse_activation_threshold = 2,
                         .signal_field = kOn}));
    EXPECT_TRUE(active(*alg, "uniform-single",
                       {.thread_count = 4,
                        .sparse_activation_threshold = 2,
                        .signal_field = kOn}));
  }
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

TEST(SignalFieldRouting, AutoBuildsOnlyDenseFields) {
  // kAuto's last clause is SignalField's dense layout: a byte-store
  // automaton whose counter table would overrun the byte budget gets no
  // kAuto field, while kOn still builds one (the sorted multiset).
  const unison::AlgAu alg(20);  // |Q| = 246: state-major counters
  const auto n = static_cast<core::NodeId>(
      core::SignalField::kDenseMaxCounterBytes /
          (alg.state_count() * sizeof(std::uint16_t)) +
      1);
  util::Rng rng(65);
  const graph::Graph g = graph::random_connected(n, 6.0 / n, rng);
  ASSERT_GE(g.avg_degree(), core::kSignalFieldMinAvgDegree);
  ASSERT_FALSE(core::SignalField::dense_eligible(g, alg.state_count()));
  ASSERT_TRUE(core::SignalField::dense_eligible(g, 64));
  const core::Configuration c0 = core::random_configuration(alg, n, rng);
  for (const core::SignalFieldMode mode :
       {core::SignalFieldMode::kAuto, core::SignalFieldMode::kOn}) {
    auto sched = sched::make_scheduler("uniform-single", g);
    const core::EngineOptions opts{.signal_field = mode};
    core::Engine e(g, alg, *sched, c0, 7, opts);
    EXPECT_EQ(e.signal_field_active(),
              oracle::field_routed(g, alg, *sched, opts));
    EXPECT_EQ(e.signal_field_active(), mode == core::SignalFieldMode::kOn);
    if (e.signal_field_active()) {
      EXPECT_FALSE(e.signal_field()->dense());
    }
  }
}

// --- differential suite ------------------------------------------------------

/// A random-subset daemon whose draw is usually empty on these small
/// graphs: most of its steps fall back to one node (the one-pass step), the
/// rest activate several (the two-phase loop).
constexpr double kSparseSubsetP = 0.03;

/// Field-forced engine (signal_field ON, tiny sparse threshold so the
/// large-set daemons shard) vs the reference interpreter, in lockstep; then
/// round by round, each run_rounds(1) ending on its boundary step. The
/// field exists where the routing rule puts it: on serial asynchronous
/// engines only. A serial kOff twin steps alongside: the engine state hash
/// depends on neither routing nor thread count.
void expect_field_matches_oracle(const graph::Graph& g,
                                 const core::Automaton& alg,
                                 const core::Configuration& initial,
                                 const std::string& sched_name,
                                 unsigned threads, std::uint64_t seed,
                                 int steps, double subset_p = 0.5) {
  auto field_sched = sched::make_scheduler(sched_name, g, subset_p);
  auto plain_sched = sched::make_scheduler(sched_name, g, subset_p);
  auto legacy_sched = sched::make_scheduler(sched_name, g, subset_p);
  const core::EngineOptions opts{.thread_count = threads,
                                 .sparse_activation_threshold = 2,
                                 .signal_field = core::SignalFieldMode::kOn};
  core::Engine field(g, alg, *field_sched, initial, seed, opts);
  core::Engine plain(g, alg, *plain_sched, initial, seed,
                     {.signal_field = core::SignalFieldMode::kOff});
  oracle::ReferenceEngine legacy(g, alg, *legacy_sched, initial, seed);
  ASSERT_EQ(field.signal_field_active(),
            oracle::field_routed(g, alg, *field_sched, opts));
  ASSERT_FALSE(plain.signal_field_active());
  for (int s = 0; s < steps; ++s) {
    field.step();
    plain.step();
    legacy.step();
    ASSERT_EQ(field.config(), legacy.config())
        << sched_name << " threads=" << threads << " diverged at step " << s;
    ASSERT_EQ(core::engine_state_hash(field), core::engine_state_hash(plain))
        << sched_name << " threads=" << threads << " hash at step " << s;
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

TEST(SignalFieldDifferential, AlgMisAndLeWideStores) {
  // The wide stores at D = 12 and 14 (MIS |Q| = 274 and 310, LE 571 and
  // 659) and across the 1,024-state bound of the wide set (MIS D = 53 and
  // 54, 1,012 and 1,030 states; LE D = 22 and 23, 1,011 and 1,055): a kOn
  // field engine, serial and at 4 threads with sparse threshold 2 (the shard
  // kernels' wide-set branch), and its serial kOff twin (the serial
  // wide-set kernel), against the oracle under every daemon.
  util::Rng rng(75);
  const graph::Graph g = graph::random_bounded_diameter(16, 2, rng);
  const auto run_all = [&](const core::Automaton& alg,
                           const core::Configuration& c0,
                           std::uint64_t seed) {
    for (const std::string& sched_name : all_scheduler_names()) {
      for (const unsigned threads : {1u, 4u}) {
        expect_field_matches_oracle(g, alg, c0, sched_name, threads, seed,
                                    150);
      }
    }
    for (const unsigned threads : {1u, 4u}) {
      expect_field_matches_oracle(g, alg, c0, "random-subset", threads, seed,
                                  150, kSparseSubsetP);
    }
  };
  for (const int d : {12, 14, 53, 54}) {
    SCOPED_TRACE("alg-mis D=" + std::to_string(d));
    const mis::AlgMis alg({.diameter_bound = d});
    run_all(alg, mis::mis_adversarial_configuration("random", alg, g, rng),
            241);
  }
  for (const int d : {12, 14, 22, 23}) {
    SCOPED_TRACE("alg-le D=" + std::to_string(d));
    const le::AlgLe alg({.diameter_bound = d});
    run_all(alg, le::le_adversarial_configuration("random", alg, g, rng), 251);
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

}  // namespace
}  // namespace ssau
