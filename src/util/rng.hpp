// Deterministic pseudo-random number generation for simulations.
//
// Every randomized component in the library draws from util::Rng so that an
// entire experiment is reproducible from a single 64-bit seed. The generator
// is a SplitMix64-seeded xoshiro256** — fast, high quality, and trivially
// forkable (Rng::fork) so that independent streams can be handed to nodes,
// schedulers, and adversaries without correlation.
#pragma once

#include <array>
#include <cstdint>
#include <limits>

namespace ssau::util {

/// Deterministic 64-bit PRNG (xoshiro256**) with convenience draws.
///
/// Satisfies the C++ UniformRandomBitGenerator concept, so it can also be
/// plugged into <random> distributions when needed.
class Rng {
 public:
  using result_type = std::uint64_t;

  /// Seeds the four-word state from `seed` via SplitMix64.
  explicit Rng(std::uint64_t seed = 0x9E3779B97F4A7C15ULL) noexcept;

  static constexpr result_type min() noexcept { return 0; }
  static constexpr result_type max() noexcept {
    return std::numeric_limits<result_type>::max();
  }

  /// Next raw 64-bit value.
  result_type operator()() noexcept;

  /// Uniform integer in [0, bound). Requires bound > 0.
  [[nodiscard]] std::uint64_t below(std::uint64_t bound) noexcept;

  /// Uniform integer in [lo, hi] inclusive. Requires lo <= hi.
  [[nodiscard]] std::int64_t uniform(std::int64_t lo, std::int64_t hi) noexcept;

  /// Uniform real in [0, 1).
  [[nodiscard]] double uniform01() noexcept;

  /// Bernoulli trial with success probability p (clamped to [0,1]).
  [[nodiscard]] bool bernoulli(double p) noexcept;

  /// Fair coin.
  [[nodiscard]] bool coin() noexcept { return (operator()() >> 63) != 0; }

  /// Geometric draw: number of trials until first success (support {1,2,...})
  /// with success probability p in (0,1]. p <= 0 returns UINT64_MAX without
  /// drawing ("never"), and so does a draw too large for 64 bits.
  [[nodiscard]] std::uint64_t geometric(double p) noexcept;

  /// geometric(p) for a caller that draws many times at one p: it passes
  /// log1p_neg_p = std::log1p(-p), computed once. Same draws, same values.
  [[nodiscard]] std::uint64_t geometric(double p, double log1p_neg_p) noexcept;

  /// Derives an independent child stream; deterministic given this stream's
  /// current state.
  [[nodiscard]] Rng fork() noexcept;

  /// Counter-based stream derivation: the generator seeded for stream
  /// `stream_id` of root `seed`. Unlike fork(), it has no shared state — any
  /// subset of streams can be constructed in any order (or concurrently) and
  /// always yields the same sequences, which is what makes sharded parallel
  /// execution reproducible: stream i is a pure function of (seed, i).
  [[nodiscard]] static Rng stream(std::uint64_t seed,
                                  std::uint64_t stream_id) noexcept;

  /// Two-axis counter-based derivation: the generator for activation number
  /// `activation` of node `node` under root `seed`. A pure function of its
  /// three arguments — no per-node generator object needs to exist between
  /// activations, which is what lets the engine drop its O(n) stored rng
  /// streams and re-derive each draw from the activation-count discipline it
  /// already maintains. Shares stream()'s counter construction on the node
  /// axis, then folds the activation counter in with a second SplitMix64
  /// round.
  [[nodiscard]] static Rng activation_stream(std::uint64_t seed,
                                             std::uint64_t node,
                                             std::uint64_t activation) noexcept;

  /// The raw xoshiro256** state words — serialization support. A generator
  /// reconstructed via from_state(state()) continues the exact sequence.
  [[nodiscard]] std::array<std::uint64_t, 4> state() const noexcept {
    return {s_[0], s_[1], s_[2], s_[3]};
  }

  /// Rebuilds a generator from state() words. The all-zero state (a fixed
  /// point of xoshiro, unreachable from any seeded generator) is remapped to
  /// the same guard word the seeding constructor uses.
  [[nodiscard]] static Rng from_state(
      const std::array<std::uint64_t, 4>& s) noexcept;

 private:
  std::uint64_t s_[4];
};

}  // namespace ssau::util
