// Unit tests for AlgAU's transition function against Table 1, condition by
// condition, using hand-built signals; its native 256-bit kernel (step_set)
// against the span-walking step_fast; and the engine's set and sorted-span
// sense paths on either side of the byte-store boundary (|Q| = 256 / 257).
#include "unison/alg_au.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/engine.hpp"
#include "core/signal.hpp"
#include "graph/generators.hpp"
#include "sched/scheduler.hpp"
#include "support/reference_engine.hpp"

namespace ssau::unison {
namespace {

class AlgAuRules : public ::testing::Test {
 protected:
  AlgAuRules() : alg_(2), ts_(alg_.turns()) {}  // D=2, k=8

  core::Signal sig(std::initializer_list<core::StateId> states) {
    return core::Signal::from_states(std::vector<core::StateId>(states));
  }

  AlgAu alg_;
  const TurnSystem& ts_;
  util::Rng rng_{1};
};

// --- type AA ----------------------------------------------------------------

TEST_F(AlgAuRules, AaTicksWhenAloneAtOwnLevel) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(4));
}

TEST_F(AlgAuRules, AaTicksWhenNeighborsAtOwnOrNextLevel) {
  const auto q = ts_.able_id(3);
  const auto next = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, next}), rng_), next);
}

TEST_F(AlgAuRules, AaWrapsMinusOneToOne) {
  const auto q = ts_.able_id(-1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(1)}), rng_), ts_.able_id(1));
}

TEST_F(AlgAuRules, AaWrapsKToMinusK) {
  const auto q = ts_.able_id(ts_.k());
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-ts_.k())}), rng_),
            ts_.able_id(-ts_.k()));
}

TEST_F(AlgAuRules, AaBlockedByLaggingNeighbor) {
  // A neighbor one level behind (own level - 1) blocks the tick: Λ ⊄ {ℓ, ℓ+1}.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(2)}), rng_), q);
}

TEST_F(AlgAuRules, AaBlockedBySensedFaultyTurn) {
  // Λ ⊆ {ℓ, ℓ+1} holds but a faulty turn at ℓ+1 makes v not good.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(4)}), rng_), q);
}

TEST_F(AlgAuRules, AaBlockedByFaultyTwinAtOwnLevel) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(3)}), rng_), q);
}

// --- type AF ----------------------------------------------------------------

TEST_F(AlgAuRules, AfWhenUnprotected) {
  // Neighbor at level 6 is not adjacent to level 3 -> v unprotected -> ^3.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(6)}), rng_), ts_.faulty_id(3));
}

TEST_F(AlgAuRules, AfWhenUnprotectedByOppositeSign) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-3)}), rng_), ts_.faulty_id(3));
}

TEST_F(AlgAuRules, AfOnFaultyInwardNeighbor) {
  // v at level 4 sensing ^3 (= faulty ψ−1(4)) goes faulty even if protected.
  const auto q = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(3)}), rng_), ts_.faulty_id(4));
}

TEST_F(AlgAuRules, NoAfOnFaultyOutwardNeighbor) {
  // ^5 is one unit outwards of 4: AF condition (2) does not apply; the node
  // is protected (levels adjacent), so it stays (AA blocked by faulty).
  const auto q = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelOneNeverGoesFaulty) {
  // |ℓ| = 1 has no faulty twin: an unprotected node at level 1 stays put.
  const auto q = ts_.able_id(1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelMinusOneNeverGoesFaulty) {
  const auto q = ts_.able_id(-1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelTwoHasNoFaultyInwardTrigger) {
  // ψ−1(2) = 1 has no faulty twin, so condition (2) can never fire at level 2.
  const auto q = ts_.able_id(2);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(1)}), rng_), q);
}

// --- type FA ----------------------------------------------------------------

TEST_F(AlgAuRules, FaReturnsOneUnitInwards) {
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(3)}), rng_), ts_.able_id(3));
}

TEST_F(AlgAuRules, FaFromLevelTwoLandsOnOne) {
  const auto q = ts_.faulty_id(2);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(1));
}

TEST_F(AlgAuRules, FaFromNegativeLevel) {
  const auto q = ts_.faulty_id(-5);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(-4));
}

TEST_F(AlgAuRules, FaBlockedBySensedOutwardLevel) {
  // Sensing level 5 (outwards of 4, same sign) blocks the return.
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, FaBlockedBySensedOutwardFaulty) {
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(6)}), rng_), q);
}

TEST_F(AlgAuRules, FaIgnoresOppositeSignOutwardLevels) {
  // Ψ>(4) contains only positive levels: sensing -7 does not block.
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-7)}), rng_), ts_.able_id(3));
}

TEST_F(AlgAuRules, FaFromOutermostLevelAlwaysEnabled) {
  // Nothing is outwards of k: ^k returns inwards upon first activation.
  const auto q = ts_.faulty_id(ts_.k());
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(ts_.k()), ts_.faulty_id(-2)}),
                      rng_),
            ts_.able_id(ts_.k() - 1));
}

// --- classification & metadata ------------------------------------------------

TEST_F(AlgAuRules, ClassifyRecognizesAllThreeTypes) {
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.able_id(4)),
            AlgAu::TransitionType::AA);
  EXPECT_EQ(alg_.classify(ts_.able_id(-1), ts_.able_id(1)),
            AlgAu::TransitionType::AA);
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.faulty_id(3)),
            AlgAu::TransitionType::AF);
  EXPECT_EQ(alg_.classify(ts_.faulty_id(3), ts_.able_id(2)),
            AlgAu::TransitionType::FA);
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.able_id(3)),
            AlgAu::TransitionType::None);
  EXPECT_THROW((void)alg_.classify(ts_.able_id(3), ts_.able_id(6)),
               std::logic_error);
}

TEST_F(AlgAuRules, OutputsAreClockValues) {
  EXPECT_TRUE(alg_.is_output(ts_.able_id(5)));
  EXPECT_FALSE(alg_.is_output(ts_.faulty_id(5)));
  EXPECT_EQ(alg_.output(ts_.able_id(1)), 0);
  EXPECT_EQ(alg_.output(ts_.able_id(ts_.k())), ts_.k() - 1);
  EXPECT_EQ(alg_.output(ts_.able_id(-1)), 2 * ts_.k() - 1);
}

TEST_F(AlgAuRules, DeterministicStateSpaceIsThin) {
  for (int d = 1; d <= 10; ++d) {
    EXPECT_EQ(AlgAu(d).state_count(),
              static_cast<core::StateId>(12 * d + 6));
  }
}

// --- local predicates ---------------------------------------------------------

TEST_F(AlgAuRules, LocallyProtectedAndGood) {
  const auto q = ts_.able_id(3);
  EXPECT_TRUE(alg_.locally_protected(q, sig({q, ts_.able_id(4)})));
  EXPECT_FALSE(alg_.locally_protected(q, sig({q, ts_.able_id(5)})));
  EXPECT_TRUE(alg_.locally_good(q, sig({q, ts_.able_id(4)})));
  EXPECT_FALSE(alg_.locally_good(q, sig({q, ts_.faulty_id(4)})));
}

// --- crafted adversarial configurations ---------------------------------------

TEST_F(AlgAuRules, AdversaryKindsProduceValidConfigs) {
  const graph::Graph g = graph::Graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                          {4, 5}, {5, 0}});
  util::Rng rng(9);
  for (const auto& kind : au_adversary_kinds()) {
    const auto c = au_adversarial_configuration(kind, alg_, g, rng);
    ASSERT_EQ(c.size(), 6u) << kind;
    for (const auto q : c) EXPECT_LT(q, alg_.state_count()) << kind;
  }
  EXPECT_THROW(au_adversarial_configuration("bogus", alg_, g, rng),
               std::invalid_argument);
}

TEST_F(AlgAuRules, GradientConfigIsGood) {
  const graph::Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto c = au_config_gradient(alg_, g);
  EXPECT_EQ(ts_.level_of(c[0]), 1);
  EXPECT_EQ(ts_.level_of(c[1]), 2);
  EXPECT_EQ(ts_.level_of(c[2]), 3);
  EXPECT_EQ(ts_.level_of(c[3]), 4);
}

// --- native 256-bit kernel ---------------------------------------------------

/// A random presence set containing turn q: up to five more turns, drawn
/// mostly from levels within two steps of q's (so AA, AF and FA all fire)
/// and otherwise from the whole turn set.
core::StateSet random_set_around(const TurnSystem& ts, core::StateId q,
                                 util::Rng& rng) {
  core::StateSet set;
  set.insert(q);
  const Level l = ts.level_of(q);
  const bool near = rng.below(4) != 0;
  const auto extra = rng.below(6);
  for (std::uint64_t i = 0; i < extra; ++i) {
    if (!near) {
      set.insert(rng.below(ts.state_count()));
      continue;
    }
    const Level sl = ts.forward(l, static_cast<int>(rng.below(5)) - 2);
    set.insert(rng.below(2) == 0 || !ts.has_faulty(sl) ? ts.able_id(sl)
                                                       : ts.faulty_id(sl));
  }
  return set;
}

TEST(AlgAuSetKernel, MatchesStepFastForEveryTurnAndAblation) {
  // D = 5, 16, 20: |Q| = 66, 198, 246 — one, three and four populated words.
  for (const int d : {5, 16, 20}) {
    for (unsigned bits = 0; bits < 8; ++bits) {
      const AlgAuOptions opts{.af_inward_trigger = (bits & 1u) != 0,
                              .fa_outward_guard = (bits & 2u) != 0,
                              .aa_requires_good = (bits & 4u) != 0};
      const AlgAu alg(d, opts);
      ASSERT_FALSE(alg.native_mask_kernel());
      const TurnSystem& ts = alg.turns();
      util::Rng rng(1000 + 8 * static_cast<std::uint64_t>(d) + bits);
      std::vector<core::StateId> scratch;
      std::set<AlgAu::TransitionType> seen;
      for (core::StateId q = 0; q < alg.state_count(); ++q) {
        for (int trial = 0; trial < 1000; ++trial) {
          const core::StateSet set = random_set_around(ts, q, rng);
          util::Rng r1(0), r2(0);
          const core::StateId next = alg.step_set(q, set, r1);
          ASSERT_EQ(next, alg.step_fast(q, core::unpack_set(set, scratch), r2))
              << "D=" << d << " options=" << bits << " q=" << q;
          seen.insert(alg.classify(q, next));
        }
      }
      EXPECT_EQ(seen.size(), 4u) << "D=" << d << " options=" << bits;
    }
  }
}

// --- byte-store boundary: set kernel at |Q| = 256, sort at 257 ---------------

/// Deterministic toy automaton whose δ reads the whole signal: its largest
/// state, its size and one membership test 64 states (one word) away.
class SpreadAutomaton final : public core::Automaton {
 public:
  explicit SpreadAutomaton(core::StateId states) : states_(states) {}
  [[nodiscard]] core::StateId state_count() const override { return states_; }
  [[nodiscard]] bool is_output(core::StateId) const override { return true; }
  [[nodiscard]] std::int64_t output(core::StateId q) const override {
    return static_cast<std::int64_t>(q);
  }
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng&) const override {
    const core::StateId hop = sig.contains((q + 64) % states_) ? 65 : 1;
    return (sig.states().back() + 3 * sig.size() + hop) % states_;
  }
  [[nodiscard]] bool deterministic() const override { return true; }
  [[nodiscard]] bool parallel_safe() const override { return true; }

 private:
  core::StateId states_;
};

TEST(ByteStoreBoundary, SetAndSortPathsMatchLegacyOracle) {
  util::Rng rng(41);
  const graph::Graph g = graph::random_connected(48, 0.2, rng);
  for (const core::StateId states : {core::StateId{256}, core::StateId{257}}) {
    const SpreadAutomaton alg(states);
    const core::Configuration c0 =
        core::random_configuration(alg, g.num_nodes(), rng);
    for (const char* sched_name :
         {"synchronous", "uniform-single", "random-subset", "laggard"}) {
      for (const core::EngineOptions& opts :
           {core::EngineOptions{.signal_field = core::SignalFieldMode::kOff},
            core::EngineOptions{.signal_field = core::SignalFieldMode::kOn},
            core::EngineOptions{.thread_count = 2,
                                .sparse_activation_threshold = 2}}) {
        auto fast_sched = sched::make_scheduler(sched_name, g);
        auto legacy_sched = sched::make_scheduler(sched_name, g);
        core::Engine fast(g, alg, *fast_sched, c0, 43, opts);
        oracle::ReferenceEngine legacy(g, alg, *legacy_sched, c0, 43);
        EXPECT_EQ(fast.compact_config(), states <= 256);
        for (int s = 0; s < 120; ++s) {
          fast.step();
          legacy.step();
          ASSERT_EQ(fast.config(), legacy.config())
              << "|Q|=" << states << " " << sched_name << " step " << s;
        }
        ASSERT_EQ(fast.rounds_completed(), legacy.rounds_completed());
        EXPECT_NE(fast.config(), c0) << "|Q|=" << states << " " << sched_name;
      }
    }
  }
}

}  // namespace
}  // namespace ssau::unison
