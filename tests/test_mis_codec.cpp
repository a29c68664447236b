// Round-trip and size tests for the AlgMIS state codec, and the native
// class-set δ held to step_fast draw for draw.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <vector>

#include "mis/alg_mis.hpp"
#include "util/rng.hpp"

namespace ssau::mis {
namespace {

class MisCodec : public ::testing::TestWithParam<int> {};

TEST_P(MisCodec, DecodeEncodeIsIdentityOnAllIds) {
  const AlgMis alg({.diameter_bound = GetParam(), .id_alphabet = 5});
  for (core::StateId q = 0; q < alg.state_count(); ++q) {
    EXPECT_EQ(alg.encode(alg.decode(q)), q);
  }
}

TEST_P(MisCodec, StateCountIsLinearInD) {
  const int d = GetParam();
  const AlgMis alg({.diameter_bound = d, .id_alphabet = 5});
  // Undecided 16(D+3) + IN k + OUT 1 + restart 2D+1.
  EXPECT_EQ(alg.state_count(),
            static_cast<core::StateId>(16 * (d + 3) + 5 + 1 + 2 * d + 1));
}

TEST_P(MisCodec, ModesPartition) {
  const int d = GetParam();
  const AlgMis alg({.diameter_bound = d, .id_alphabet = 5});
  std::size_t undecided = 0, in = 0, out = 0, restart = 0;
  for (core::StateId q = 0; q < alg.state_count(); ++q) {
    switch (alg.decode(q).mode) {
      case MisState::Mode::kUndecided: ++undecided; break;
      case MisState::Mode::kIn: ++in; break;
      case MisState::Mode::kOut: ++out; break;
      case MisState::Mode::kRestart: ++restart; break;
    }
  }
  EXPECT_EQ(undecided, static_cast<std::size_t>(16 * (d + 3)));
  EXPECT_EQ(in, 5u);
  EXPECT_EQ(out, 1u);
  EXPECT_EQ(restart, static_cast<std::size_t>(2 * d + 1));
}

INSTANTIATE_TEST_SUITE_P(Diameters, MisCodec, ::testing::Values(1, 2, 4, 7));

TEST(MisCodec, InitialStateShape) {
  const AlgMis alg({.diameter_bound = 2});
  const MisState s = alg.decode(alg.initial_state());
  EXPECT_EQ(s.mode, MisState::Mode::kUndecided);
  EXPECT_EQ(s.step, 0);
  EXPECT_TRUE(s.flag);
  EXPECT_TRUE(s.candidate);
  EXPECT_FALSE(s.trial_collect);
}

TEST(MisCodec, OutputsAreInAndOut) {
  const AlgMis alg({.diameter_bound = 2});
  const auto in = alg.encode({.mode = MisState::Mode::kIn, .id = 3});
  const auto out = alg.encode({.mode = MisState::Mode::kOut});
  EXPECT_TRUE(alg.is_output(in));
  EXPECT_TRUE(alg.is_output(out));
  EXPECT_EQ(alg.output(in), 1);
  EXPECT_EQ(alg.output(out), 0);
  EXPECT_FALSE(alg.is_output(alg.initial_state()));
}

TEST(MisCodec, ParameterValidation) {
  EXPECT_THROW(AlgMis({.diameter_bound = 0}), std::invalid_argument);
  EXPECT_THROW(AlgMis({.diameter_bound = 2, .id_alphabet = 1}),
               std::invalid_argument);
  EXPECT_THROW(AlgMis({.diameter_bound = 2, .id_alphabet = 4, .p0 = 1.5}),
               std::invalid_argument);
}

TEST(MisCodec, StateNames) {
  const AlgMis alg({.diameter_bound = 2});
  EXPECT_NE(alg.state_name(alg.initial_state()).find("U(step=0"),
            std::string::npos);
  EXPECT_EQ(alg.state_name(alg.encode({.mode = MisState::Mode::kOut})), "OUT");
  EXPECT_EQ(alg.state_name(alg.encode({.mode = MisState::Mode::kIn, .id = 2})),
            "IN(id=2)");
}

// --- native set kernels ------------------------------------------------------

/// A state a neighbor of `self` plausibly holds: an undecided state within
/// two steps of self's, an IN or the OUT state, or (rarely, since any σ
/// state sends δ down the restart rules) a σ state, the exit most often.
core::StateId nearby_state(const AlgMis& alg, const MisState& self,
                           util::Rng& rng) {
  const AlgMisParams& p = alg.params();
  MisState s;
  switch (rng.below(8)) {
    case 0:
      s.mode = MisState::Mode::kIn;
      s.id = 1 + static_cast<int>(rng.below(
                     static_cast<std::uint64_t>(p.id_alphabet)));
      break;
    case 1:
      s.mode = MisState::Mode::kOut;
      break;
    case 2:
      if (rng.below(4) != 0) {
        s.mode = MisState::Mode::kRestart;
        s.sigma = rng.below(2) == 0
                      ? 2 * p.diameter_bound
                      : static_cast<int>(rng.below(
                            static_cast<std::uint64_t>(2 * p.diameter_bound + 1)));
        break;
      }
      [[fallthrough]];
    default:
      s.mode = MisState::Mode::kUndecided;
      s.step = std::clamp(self.step + static_cast<int>(rng.below(5)) - 2, 0,
                          p.diameter_bound + 2);
      s.flag = rng.below(4) == 0;
      s.candidate = rng.coin();
      s.coin = rng.coin();
      s.trial_collect = rng.coin();
      break;
  }
  return alg.encode(s);
}

/// The states of one random sensed set around q (q included): up to six
/// more, mostly nearby, otherwise drawn from the whole state set.
std::vector<core::StateId> random_states_around(const AlgMis& alg,
                                                core::StateId q,
                                                util::Rng& rng) {
  std::vector<core::StateId> states{q};
  const MisState self = alg.decode(q);
  const bool sigma_only = self.mode == MisState::Mode::kRestart &&
                          rng.below(2) == 0;
  const auto extra = rng.below(7);
  for (std::uint64_t i = 0; i < extra; ++i) {
    if (sigma_only) {
      // The exit half the time, so St(v) = {σ(2D)} comes up at every D.
      const int exit = 2 * alg.params().diameter_bound;
      states.push_back(alg.encode(
          {.mode = MisState::Mode::kRestart,
           .sigma = rng.coin() ? exit
                               : static_cast<int>(rng.below(
                                     static_cast<std::uint64_t>(exit + 1)))}));
    } else if (rng.below(5) == 0) {
      states.push_back(rng.below(alg.state_count()));
    } else {
      states.push_back(nearby_state(alg, self, rng));
    }
  }
  return states;
}

TEST(MisSetKernel, MatchesStepFastDrawForDraw) {
  // D = 2 and 11: |Q| = 94 and 256, the StateSet kernel (and the wide one
  // over the same states); D = 12, 14 and 53: |Q| = 274, 310 and 1,012, the
  // wide kernel only. Every call must return step_fast's state and leave
  // the rng exactly where step_fast leaves it. At D = 54 (|Q| = 1,030) no
  // wide set holds the states, and the engine keeps the sorted view.
  EXPECT_FALSE(AlgMis({.diameter_bound = 54}).native_wide_kernel());
  for (const int d : {2, 11, 12, 14, 53}) {
    const AlgMis alg({.diameter_bound = d});
    const bool narrow = alg.state_count() <= core::StateSet::kBits;
    ASSERT_TRUE(alg.native_wide_kernel()) << "D=" << d;
    util::Rng rng(4000 + static_cast<std::uint64_t>(d));
    std::vector<core::StateId> scratch;
    std::set<std::pair<MisState::Mode, MisState::Mode>> seen;
    const int trials = d > 14 ? 100 : 300;
    for (core::StateId q = 0; q < alg.state_count(); ++q) {
      for (int trial = 0; trial < trials; ++trial) {
        const std::vector<core::StateId> states =
            random_states_around(alg, q, rng);
        core::WideStateSet wide;
        core::StateSet set;
        for (const core::StateId s : states) {
          wide.insert(s);
          if (narrow) set.insert(s);
        }
        const std::uint64_t seed = rng();
        util::Rng ref_rng(seed);
        const core::StateId want =
            alg.step_fast(q, core::unpack_set(wide, scratch), ref_rng);
        util::Rng wide_rng(seed);
        ASSERT_EQ(alg.step_wide(q, wide, wide_rng), want)
            << "D=" << d << " q=" << alg.state_name(q);
        ASSERT_EQ(wide_rng.state(), ref_rng.state())
            << "D=" << d << " q=" << alg.state_name(q);
        if (narrow) {
          util::Rng set_rng(seed);
          ASSERT_EQ(alg.step_set(q, set, set_rng), want)
              << "D=" << d << " q=" << alg.state_name(q);
          ASSERT_EQ(set_rng.state(), ref_rng.state())
              << "D=" << d << " q=" << alg.state_name(q);
        }
        seen.insert({alg.decode(q).mode, alg.decode(want).mode});
      }
    }
    // Every mode reaches every mode it can: undecided -> all four, IN and
    // OUT -> themselves and restart, restart -> itself and undecided.
    EXPECT_EQ(seen.size(), 10u) << "D=" << d;
  }
}

}  // namespace
}  // namespace ssau::mis
