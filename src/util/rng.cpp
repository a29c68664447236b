#include "util/rng.hpp"

#include <cmath>

namespace ssau::util {

namespace {

constexpr std::uint64_t kSplitMixGamma = 0x9E3779B97F4A7C15ULL;

std::uint64_t splitmix64(std::uint64_t& x) noexcept {
  x += kSplitMixGamma;
  std::uint64_t z = x;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

constexpr std::uint64_t rotl(std::uint64_t x, int k) noexcept {
  return (x << k) | (x >> (64 - k));
}

}  // namespace

Rng::Rng(std::uint64_t seed) noexcept {
  std::uint64_t x = seed;
  for (auto& word : s_) word = splitmix64(x);
  // Guard against the (astronomically unlikely) all-zero state.
  if ((s_[0] | s_[1] | s_[2] | s_[3]) == 0) s_[0] = kSplitMixGamma;
}

Rng::result_type Rng::operator()() noexcept {
  const std::uint64_t result = rotl(s_[1] * 5, 7) * 9;
  const std::uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = rotl(s_[3], 45);
  return result;
}

std::uint64_t Rng::below(std::uint64_t bound) noexcept {
  // Lemire's nearly-divisionless bounded draw with rejection for exactness.
  if (bound == 0) return 0;
  std::uint64_t x = operator()();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  auto lo = static_cast<std::uint64_t>(m);
  if (lo < bound) {
    const std::uint64_t threshold = (0 - bound) % bound;
    while (lo < threshold) {
      x = operator()();
      m = static_cast<__uint128_t>(x) * bound;
      lo = static_cast<std::uint64_t>(m);
    }
  }
  return static_cast<std::uint64_t>(m >> 64);
}

std::int64_t Rng::uniform(std::int64_t lo, std::int64_t hi) noexcept {
  const auto span = static_cast<std::uint64_t>(hi - lo) + 1;
  return lo + static_cast<std::int64_t>(below(span));
}

double Rng::uniform01() noexcept {
  return static_cast<double>(operator()() >> 11) * 0x1.0p-53;
}

bool Rng::bernoulli(double p) noexcept {
  if (p <= 0.0) return false;
  if (p >= 1.0) return true;
  return uniform01() < p;
}

std::uint64_t Rng::geometric(double p) noexcept {
  return geometric(p, std::log1p(-p));
}

std::uint64_t Rng::geometric(double p, double log1p_neg_p) noexcept {
  if (p >= 1.0) return 1;
  if (p <= 0.0) return std::numeric_limits<std::uint64_t>::max();
  // Inverse-CDF sampling: ceil(ln(U) / ln(1-p)) over U in (0,1).
  double u = uniform01();
  while (u <= 0.0) u = uniform01();
  const double draw = std::ceil(std::log(u) / log1p_neg_p);
  if (draw < 1.0) return 1;
  // Past 2^64 (p below ~1e-18) the cast would overflow: saturate instead.
  if (draw >= 0x1p64) return std::numeric_limits<std::uint64_t>::max();
  return static_cast<std::uint64_t>(draw);
}

Rng Rng::fork() noexcept {
  Rng child(operator()() ^ rotl(operator()(), 31));
  return child;
}

Rng Rng::from_state(const std::array<std::uint64_t, 4>& s) noexcept {
  Rng r(0);
  for (int i = 0; i < 4; ++i) r.s_[i] = s[static_cast<std::size_t>(i)];
  if ((r.s_[0] | r.s_[1] | r.s_[2] | r.s_[3]) == 0) r.s_[0] = kSplitMixGamma;
  return r;
}

Rng Rng::stream(std::uint64_t seed, std::uint64_t stream_id) noexcept {
  // The stream_id-th output of a SplitMix64 counter sequence anchored at
  // `seed` (offset by an odd constant so stream 0 differs from Rng(seed)'s
  // own state words) becomes the child seed; the Rng constructor then
  // avalanches it into the four state words.
  std::uint64_t x = (seed ^ 0x6A09E667F3BCC909ULL) + stream_id * kSplitMixGamma;
  return Rng(splitmix64(x));
}

Rng Rng::activation_stream(std::uint64_t seed, std::uint64_t node,
                           std::uint64_t activation) noexcept {
  // Two chained SplitMix64 rounds fold (node, activation) into the root
  // seed: the first avalanches the node axis (matching stream()'s counter
  // discipline), the second folds the activation counter into that stream's
  // gamma-spaced sequence. Distinct (node, activation) pairs land on
  // decorrelated child seeds without any per-node state being stored.
  std::uint64_t x = (seed ^ 0x6A09E667F3BCC909ULL) + node * kSplitMixGamma;
  std::uint64_t y = splitmix64(x) + activation * kSplitMixGamma;
  return Rng(splitmix64(y));
}

}  // namespace ssau::util
