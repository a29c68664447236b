// Property tests for the turn/level algebra of §2.2: encodings are bijective,
// φ is a 2k-cycle, ψ respects the inward/outward axis, distance is a metric.
#include "unison/turns.hpp"

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/row_walk.hpp"

namespace ssau::unison {
namespace {

std::vector<Level> all_levels(const TurnSystem& ts) {
  std::vector<Level> ls;
  for (int l = -ts.k(); l <= ts.k(); ++l) {
    if (l != 0) ls.push_back(l);
  }
  return ls;
}

TEST(TurnSystem, KIsThreeDPlusTwo) {
  EXPECT_EQ(TurnSystem(1).k(), 5);
  EXPECT_EQ(TurnSystem(4).k(), 14);
  EXPECT_EQ(TurnSystem(10).k(), 32);
}

TEST(TurnSystem, StateCountIsLinearInD) {
  for (int d = 1; d <= 12; ++d) {
    const TurnSystem ts(d);
    EXPECT_EQ(ts.state_count(), static_cast<core::StateId>(12 * d + 6));
  }
}

TEST(TurnSystem, RejectsBadDiameter) {
  EXPECT_THROW(TurnSystem(0), std::invalid_argument);
  EXPECT_THROW(TurnSystem(-2), std::invalid_argument);
  // The largest D whose 4k = 12D + 8 still fits an int, and one past it.
  const TurnSystem largest(178956969);
  EXPECT_EQ(largest.state_count(), core::StateId{2147483634});
  EXPECT_THROW(TurnSystem(178956970), std::invalid_argument);
  EXPECT_THROW(TurnSystem(800000000), std::invalid_argument);
}

class TurnSystemP : public ::testing::TestWithParam<int> {};

TEST_P(TurnSystemP, EncodingIsBijective) {
  const TurnSystem ts(GetParam());
  std::set<core::StateId> ids;
  for (const Level l : all_levels(ts)) {
    const auto a = ts.able_id(l);
    EXPECT_TRUE(ts.is_able(a));
    EXPECT_FALSE(ts.is_faulty(a));
    EXPECT_EQ(ts.level_of(a), l);
    ids.insert(a);
    if (ts.has_faulty(l)) {
      const auto f = ts.faulty_id(l);
      EXPECT_TRUE(ts.is_faulty(f));
      EXPECT_FALSE(ts.is_able(f));
      EXPECT_EQ(ts.level_of(f), l);
      ids.insert(f);
    }
  }
  EXPECT_EQ(ids.size(), ts.state_count());
  for (const auto id : ids) EXPECT_LT(id, ts.state_count());
}

TEST_P(TurnSystemP, FaultyExistsExactlyForMagnitudeTwoPlus) {
  const TurnSystem ts(GetParam());
  EXPECT_FALSE(ts.has_faulty(1));
  EXPECT_FALSE(ts.has_faulty(-1));
  EXPECT_FALSE(ts.has_faulty(0));
  for (int m = 2; m <= ts.k(); ++m) {
    EXPECT_TRUE(ts.has_faulty(m));
    EXPECT_TRUE(ts.has_faulty(-m));
  }
  EXPECT_THROW((void)ts.faulty_id(1), std::invalid_argument);
}

TEST_P(TurnSystemP, ForwardIsA2kCycle) {
  const TurnSystem ts(GetParam());
  Level l = 1;
  std::set<Level> visited;
  for (int i = 0; i < 2 * ts.k(); ++i) {
    EXPECT_TRUE(visited.insert(l).second) << "premature revisit of " << l;
    l = ts.forward(l);
  }
  EXPECT_EQ(l, 1);  // closed the cycle
  EXPECT_EQ(static_cast<int>(visited.size()), 2 * ts.k());
}

TEST_P(TurnSystemP, ForwardSpecialCases) {
  const TurnSystem ts(GetParam());
  EXPECT_EQ(ts.forward(-1), 1);
  EXPECT_EQ(ts.forward(ts.k()), -ts.k());
  EXPECT_EQ(ts.forward(1), 2);
  EXPECT_EQ(ts.forward(-ts.k()), -ts.k() + 1);
}

TEST_P(TurnSystemP, ForwardPowersMatchClockArithmetic) {
  const TurnSystem ts(GetParam());
  for (const Level l : all_levels(ts)) {
    EXPECT_EQ(ts.forward(l, 1), ts.forward(l));
    EXPECT_EQ(ts.forward(ts.forward(l, 3), -3), l);
    EXPECT_EQ(ts.forward(l, 2 * ts.k()), l);  // full cycle
    EXPECT_EQ(ts.clock(ts.forward(l)), (ts.clock(l) + 1) % (2 * ts.k()));
  }
}

TEST_P(TurnSystemP, ClockIsABijectionOntoZ2k) {
  const TurnSystem ts(GetParam());
  std::set<int> clocks;
  for (const Level l : all_levels(ts)) {
    const int kappa = ts.clock(l);
    EXPECT_GE(kappa, 0);
    EXPECT_LT(kappa, 2 * ts.k());
    EXPECT_TRUE(clocks.insert(kappa).second);
    EXPECT_EQ(ts.level_at_clock(kappa), l);
  }
  EXPECT_EQ(static_cast<int>(clocks.size()), 2 * ts.k());
}

TEST_P(TurnSystemP, AdjacencyMatchesForward) {
  const TurnSystem ts(GetParam());
  for (const Level a : all_levels(ts)) {
    for (const Level b : all_levels(ts)) {
      const bool expect =
          a == b || a == ts.forward(b) || b == ts.forward(a);
      EXPECT_EQ(ts.adjacent(a, b), expect) << a << " vs " << b;
      EXPECT_EQ(ts.adjacent(a, b), ts.adjacent(b, a));
    }
  }
}

TEST_P(TurnSystemP, DistanceIsAMetric) {
  const TurnSystem ts(GetParam());
  const auto ls = all_levels(ts);
  for (const Level a : ls) {
    EXPECT_EQ(ts.distance(a, a), 0);
    for (const Level b : ls) {
      EXPECT_EQ(ts.distance(a, b), ts.distance(b, a));
      EXPECT_LE(ts.distance(a, b), ts.k());  // max cyclic distance
      // Triangle inequality against a fixed witness.
      EXPECT_LE(ts.distance(a, b),
                ts.distance(a, 1) + ts.distance(1, b));
    }
  }
}

TEST_P(TurnSystemP, DistanceMatchesRecursiveDefinition) {
  const TurnSystem ts(GetParam());
  // dist(ℓ, ℓ') = min steps of φ^{+1}/φ^{-1} from ℓ' to ℓ: check a few hops.
  for (const Level a : all_levels(ts)) {
    EXPECT_EQ(ts.distance(a, ts.forward(a)), 1);
    EXPECT_EQ(ts.distance(a, ts.forward(a, 2)), 2);
    EXPECT_EQ(ts.distance(a, ts.forward(a, -2)), 2);
    EXPECT_EQ(ts.distance(a, ts.forward(a, ts.k())), ts.k());
  }
}

TEST_P(TurnSystemP, OutwardsPreservesSignAndShiftsMagnitude) {
  const TurnSystem ts(GetParam());
  for (const Level l : all_levels(ts)) {
    const int mag = l > 0 ? l : -l;
    for (int j = -(mag - 1); j <= ts.k() - mag; ++j) {
      const Level r = ts.outwards(l, j);
      EXPECT_EQ(r > 0, l > 0);
      EXPECT_EQ(std::abs(r), mag + j);
    }
    EXPECT_THROW((void)ts.outwards(l, ts.k() - mag + 1), std::invalid_argument);
    EXPECT_THROW((void)ts.outwards(l, -mag), std::invalid_argument);
  }
}

TEST_P(TurnSystemP, PsiSetPredicates) {
  const TurnSystem ts(GetParam());
  EXPECT_TRUE(ts.strictly_outwards(3, 2));
  EXPECT_FALSE(ts.strictly_outwards(2, 2));
  EXPECT_FALSE(ts.strictly_outwards(-3, 2));  // different sign
  EXPECT_TRUE(ts.strictly_outwards(-3, -2));
  EXPECT_TRUE(ts.far_outwards(4, 2));
  EXPECT_FALSE(ts.far_outwards(3, 2));  // exactly one unit is not "far"
  EXPECT_TRUE(ts.weakly_outwards(2, 2));
  EXPECT_FALSE(ts.weakly_outwards(1, 2));
}

TEST_P(TurnSystemP, ClockOfReadsTheClockOffEveryStateId) {
  // clock_of and cyclic distance 1 mod 2k are the id arithmetic the
  // graph-level predicates walk with; they must agree with
  // clock(level_of(q)) and adjacent() on every state and pair of states,
  // and on able ids the ids themselves must do.
  const TurnSystem ts(GetParam());
  const auto m = static_cast<core::StateId>(2 * ts.k());
  for (core::StateId q = 0; q < ts.state_count(); ++q) {
    ASSERT_EQ(ts.clock_of(q), ts.clock(ts.level_of(q))) << q;
    for (core::StateId r = 0; r < ts.state_count(); ++r) {
      const bool adjacent = ts.adjacent(ts.level_of(q), ts.level_of(r));
      ASSERT_EQ(core::cyclic_adjacent(ts.clock_of(q), ts.clock_of(r), m),
                adjacent)
          << q << " " << r;
      if (ts.is_able(q) && ts.is_able(r)) {
        ASSERT_EQ(core::cyclic_adjacent(q, r, m), adjacent) << q << " " << r;
      }
    }
  }
  EXPECT_THROW((void)ts.level_of(ts.state_count()), std::invalid_argument);
}

TEST_P(TurnSystemP, TurnNames) {
  const TurnSystem ts(GetParam());
  EXPECT_EQ(ts.turn_name(ts.able_id(3)), "3");
  EXPECT_EQ(ts.turn_name(ts.able_id(-1)), "-1");
  EXPECT_EQ(ts.turn_name(ts.faulty_id(-2)), "^-2");
}

INSTANTIATE_TEST_SUITE_P(Diameters, TurnSystemP,
                         ::testing::Values(1, 2, 3, 5, 8));

}  // namespace
}  // namespace ssau::unison
