// Prefetched / SIMD gather kernels for the engine's hot loops.
//
// Every per-activation cost in the fast path is dominated by one shape of
// work: gather c[u] over a CSR adjacency span and fold the states into a
// presence set — a 64-bit mask when |Q| <= 64 (neighborhood_mask, the
// signal field's rebuild), the exact 256-bit set of every byte-per-node
// store otherwise (core::StateSet via accumulate_set, feeding step_set and
// SignalScratch::sense). After graph::reorder packs neighborhoods into
// nearby ids these gathers hit warm cache lines; this header squeezes what
// remains:
//
//   * software prefetch a fixed distance ahead of the gather index stream
//     (the adjacency span is sequential, so nb[i + d] is known long before
//     c[nb[i + d]] is needed);
//   * an AVX2 lane-parallel mask accumulator for the byte-per-node storage
//     mode: 8 neighbor ids per _mm256_i32gather_epi32, presence bits built
//     with variable 64-bit shifts and OR-folded once per span.
//
// Dispatch is compile-time: the AVX2 overload exists only under __AVX2__
// (see the SSAU_NATIVE CMake option); every other build gets the scalar
// prefetching loops, which are bit-identical by construction. The AVX2 byte
// gathers read 4 bytes at c + id, so byte configuration buffers must keep
// kByteStorePadding readable bytes past the last node — ConfigStore
// guarantees this for the engine's double buffers.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>

#include "core/types.hpp"
#include "graph/graph.hpp"

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace ssau::core::simd {

/// Tail slack (bytes) every byte-per-node configuration buffer must keep
/// readable past its last element: the AVX2 path gathers 32-bit lanes at
/// byte offsets, so the final node's gather touches 3 bytes beyond it.
inline constexpr std::size_t kByteStorePadding = 4;

/// Lookahead (in adjacency-span elements) for software prefetch in every
/// gather loop. Far enough to cover an L2 miss at typical bench degrees,
/// near enough to stay inside most spans.
inline constexpr unsigned kDefaultPrefetchDistance = 8;

/// Which gather kernel this translation unit compiled in — benches and
/// tests report it so numbers are attributable.
[[nodiscard]] constexpr const char* gather_kernel_name() {
#if defined(__AVX2__)
  return "avx2";
#else
  return "scalar";
#endif
}

inline void prefetch(const void* p) {
#if defined(__GNUC__) || defined(__clang__)
  __builtin_prefetch(p, /*rw=*/0, /*locality=*/1);
#else
  static_cast<void>(p);
#endif
}

/// OR the presence bits of c[u] for every u in `neighbors` into `mask`.
/// Caller guarantees every gathered state is < 64 (mask-kernel automata);
/// the scalar and SIMD forms are bit-identical under that contract.
template <typename T>
[[nodiscard]] inline std::uint64_t accumulate_mask(
    std::span<const graph::NodeId> neighbors, const T* c, std::uint64_t mask) {
  const graph::NodeId* nb = neighbors.data();
  const std::size_t deg = neighbors.size();
  for (std::size_t i = 0; i < deg; ++i) {
    if (i + kDefaultPrefetchDistance < deg) {
      prefetch(c + nb[i + kDefaultPrefetchDistance]);
    }
    mask |= std::uint64_t{1} << c[nb[i]];
  }
  return mask;
}

#if defined(__AVX2__)
namespace detail {

/// Folds one vector of eight gathered states (32-bit lanes, each < 64) into
/// the 4x64 OR-accumulator via variable shifts.
inline __m256i or_presence_bits(__m256i acc, __m256i states) {
  const __m256i one = _mm256_set1_epi64x(1);
  acc = _mm256_or_si256(
      acc, _mm256_sllv_epi64(
               one, _mm256_cvtepu32_epi64(_mm256_castsi256_si128(states))));
  return _mm256_or_si256(
      acc, _mm256_sllv_epi64(
               one, _mm256_cvtepu32_epi64(_mm256_extracti128_si256(states, 1))));
}

[[nodiscard]] inline std::uint64_t horizontal_or(__m256i acc) {
  __m128i folded = _mm_or_si128(_mm256_castsi256_si128(acc),
                                _mm256_extracti128_si256(acc, 1));
  folded = _mm_or_si128(folded, _mm_unpackhi_epi64(folded, folded));
  return static_cast<std::uint64_t>(_mm_cvtsi128_si64(folded));
}

}  // namespace detail

/// Byte-storage overload: lane-parallel gather + shift. Requires
/// kByteStorePadding readable bytes past the last node of `c`.
[[nodiscard]] inline std::uint64_t accumulate_mask(
    std::span<const graph::NodeId> neighbors, const std::uint8_t* c,
    std::uint64_t mask) {
  const graph::NodeId* nb = neighbors.data();
  const std::size_t deg = neighbors.size();
  std::size_t i = 0;
  if (deg >= 8) {
    const __m256i low_byte = _mm256_set1_epi32(0xFF);
    __m256i acc = _mm256_setzero_si256();
    for (; i + 8 <= deg; i += 8) {
      const __m256i ids =
          _mm256_loadu_si256(reinterpret_cast<const __m256i*>(nb + i));
      const __m256i states = _mm256_and_si256(
          _mm256_i32gather_epi32(reinterpret_cast<const int*>(c), ids, 1),
          low_byte);
      acc = detail::or_presence_bits(acc, states);
    }
    mask |= detail::horizontal_or(acc);
  }
  for (; i < deg; ++i) {
    if (i + kDefaultPrefetchDistance < deg) {
      prefetch(c + nb[i + kDefaultPrefetchDistance]);
    }
    mask |= std::uint64_t{1} << c[nb[i]];
  }
  return mask;
}
#endif  // __AVX2__

/// OR the presence bits of c[u] for every u in `neighbors` into a 256-bit
/// set held as four 64-bit words — core::StateSet's layout, bit q & 63 of
/// word q >> 6. Caller guarantees every gathered state is < 256, which a
/// byte-per-node store holds by construction.
template <typename T>
inline void accumulate_set(std::span<const graph::NodeId> neighbors,
                           const T* c, std::array<std::uint64_t, 4>& words) {
  const graph::NodeId* nb = neighbors.data();
  const std::size_t deg = neighbors.size();
  for (std::size_t i = 0; i < deg; ++i) {
    if (i + kDefaultPrefetchDistance < deg) {
      prefetch(c + nb[i + kDefaultPrefetchDistance]);
    }
    const auto q = static_cast<unsigned>(c[nb[i]]);
    words[q >> 6] |= std::uint64_t{1} << (q & 63);
  }
}

/// Checked 64-bit variant for SignalScratch::sense over wide stores
/// (|Q| > 256), where states >= 64 may appear: accumulates into `mask` and
/// returns true iff every sensed state fit the bitmask. On false, `mask` is
/// unspecified and the caller must fall back to the sorted path.
template <typename T>
[[nodiscard]] inline bool try_accumulate_mask(
    std::span<const graph::NodeId> neighbors, const T* c,
    std::uint64_t& mask) {
  const graph::NodeId* nb = neighbors.data();
  const std::size_t deg = neighbors.size();
  for (std::size_t i = 0; i < deg; ++i) {
    if (i + kDefaultPrefetchDistance < deg) {
      prefetch(c + nb[i + kDefaultPrefetchDistance]);
    }
    const StateId q = c[nb[i]];
    if (q >= 64) return false;
    mask |= std::uint64_t{1} << q;
  }
  return true;
}

}  // namespace ssau::core::simd
