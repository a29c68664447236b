// Unit tests for util::Rng: determinism, bounds, distribution sanity.
#include "util/rng.hpp"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <limits>
#include <set>

namespace ssau::util {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a() == b()) ++equal;
  }
  EXPECT_LT(equal, 5);
}

TEST(Rng, BelowStaysInRange) {
  Rng rng(7);
  for (std::uint64_t bound : {1ULL, 2ULL, 3ULL, 10ULL, 1000ULL, 1ULL << 40}) {
    for (int i = 0; i < 200; ++i) {
      EXPECT_LT(rng.below(bound), bound);
    }
  }
}

TEST(Rng, BelowOneIsAlwaysZero) {
  Rng rng(9);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.below(1), 0u);
}

TEST(Rng, BelowCoversAllResidues) {
  Rng rng(11);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 2000; ++i) seen.insert(rng.below(7));
  EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, UniformInclusiveBounds) {
  Rng rng(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 5000; ++i) {
    const auto x = rng.uniform(-3, 3);
    EXPECT_GE(x, -3);
    EXPECT_LE(x, 3);
    saw_lo = saw_lo || x == -3;
    saw_hi = saw_hi || x == 3;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, Uniform01InHalfOpenInterval) {
  Rng rng(17);
  double sum = 0;
  for (int i = 0; i < 20000; ++i) {
    const double u = rng.uniform01();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    sum += u;
  }
  EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, BernoulliMatchesProbability) {
  Rng rng(19);
  int hits = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.02);
}

TEST(Rng, BernoulliExtremes) {
  Rng rng(23);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

TEST(Rng, CoinIsRoughlyFair) {
  Rng rng(29);
  int heads = 0;
  const int trials = 50000;
  for (int i = 0; i < trials; ++i) heads += rng.coin() ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(heads) / trials, 0.5, 0.02);
}

TEST(Rng, GeometricMeanMatches) {
  Rng rng(31);
  const double p = 0.25;
  double sum = 0;
  const int trials = 20000;
  for (int i = 0; i < trials; ++i) {
    const auto g = rng.geometric(p);
    ASSERT_GE(g, 1u);
    sum += static_cast<double>(g);
  }
  EXPECT_NEAR(sum / trials, 1.0 / p, 0.15);
}

TEST(Rng, GeometricProbabilityOneIsOneTrial) {
  Rng rng(37);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.geometric(1.0), 1u);
}

TEST(Rng, GeometricWithPrecomputedLogMatchesPlainDraws) {
  for (const double p : {1e-6, 0.01, 0.25, 0.9, 1.0, 0.0, -0.5}) {
    Rng plain(41);
    Rng hoisted(41);
    const double log_q = std::log1p(-p);
    for (int i = 0; i < 1000; ++i) {
      ASSERT_EQ(plain.geometric(p), hoisted.geometric(p, log_q)) << p;
    }
    EXPECT_EQ(plain(), hoisted());  // same number of draws consumed
  }
}

TEST(Rng, GeometricSaturatesPastSixtyFourBits) {
  // ln(U) / ln(1 - 1e-300) is ~1e300 trials: no uint64 holds it.
  Rng rng(43);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(rng.geometric(1e-300), std::numeric_limits<std::uint64_t>::max());
  }
  EXPECT_EQ(rng.geometric(0.0), std::numeric_limits<std::uint64_t>::max());
}

TEST(Rng, ForkedStreamsAreIndependentAndDeterministic) {
  Rng a(5);
  Rng b(5);
  Rng fa = a.fork();
  Rng fb = b.fork();
  for (int i = 0; i < 100; ++i) EXPECT_EQ(fa(), fb());
  // The parent streams stay in lockstep too.
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, StreamIsAPureFunctionOfSeedAndId) {
  // Counter-based derivation: stream i of seed s yields the same sequence no
  // matter when, where, or in what order the streams are constructed — the
  // property the sharded engine's per-node streams rely on.
  Rng early = Rng::stream(99, 3);
  Rng other = Rng::stream(99, 7);
  for (int i = 0; i < 50; ++i) (void)other();
  Rng late = Rng::stream(99, 3);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(early(), late());
}

TEST(Rng, StreamsAreDistinct) {
  // Different ids (and different seeds) give different sequences; stream 0
  // differs from the root generator of the same seed.
  Rng s0 = Rng::stream(11, 0);
  Rng s1 = Rng::stream(11, 1);
  Rng other_seed = Rng::stream(12, 0);
  Rng root(11);
  int agree01 = 0;
  int agree_seed = 0;
  int agree_root = 0;
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t a = s0();
    if (a == s1()) ++agree01;
    if (a == other_seed()) ++agree_seed;
    if (a == root()) ++agree_root;
  }
  EXPECT_EQ(agree01, 0);
  EXPECT_EQ(agree_seed, 0);
  EXPECT_EQ(agree_root, 0);
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(Rng::min() == 0);
  static_assert(Rng::max() == ~std::uint64_t{0});
  Rng rng(41);
  (void)rng();
}

}  // namespace
}  // namespace ssau::util
