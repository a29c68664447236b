// Bounds-checked little-endian binary serialization primitives.
//
// The snapshot subsystem (core/snapshot.hpp) and the replay command log
// (core/command_log.hpp) read and write through these two classes so that
// every byte that crosses a process boundary goes through one audited code
// path. The contract is strict:
//   * the wire format is little-endian regardless of host byte order —
//     values are assembled byte by byte, never memcpy'd from host integers;
//   * every read is bounds-checked and throws SnapshotError on truncation —
//     corrupt or adversarial input can never index out of bounds, read
//     uninitialized memory, or otherwise invoke UB;
//   * length-prefixed fields validate the length against the remaining
//     buffer BEFORE allocating, so a corrupt length cannot trigger an
//     attempted multi-gigabyte allocation.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

namespace ssau::util {

/// Thrown on any malformed snapshot / command-log input: truncation, bad
/// magic, version skew, endianness mismatch, CRC mismatch, or a structural
/// inconsistency found while decoding. Deliberately a single type — callers
/// recover the same way (discard the artifact, fall back) regardless of
/// which validation layer tripped; the message says which one did.
class SnapshotError : public std::runtime_error {
 public:
  explicit SnapshotError(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {

/// Slicing-by-8 tables for the reflected CRC-32 polynomial 0xEDB88320:
/// row 0 is the bytewise table, and row k maps a byte to the CRC of that
/// byte followed by k zero bytes, so eight rows fold eight input bytes at
/// once.
inline const std::array<std::array<std::uint32_t, 256>, 8>& crc32_tables() {
  static const auto tables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1U) ? 0xEDB88320U ^ (c >> 1) : c >> 1;
      }
      t[0][i] = c;
    }
    for (std::size_t k = 1; k < 8; ++k) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFU];
      }
    }
    return t;
  }();
  return tables;
}

/// Four input bytes as a little-endian word, assembled byte by byte.
inline std::uint32_t le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         static_cast<std::uint32_t>(p[1]) << 8 |
         static_cast<std::uint32_t>(p[2]) << 16 |
         static_cast<std::uint32_t>(p[3]) << 24;
}

}  // namespace detail

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) over `data`,
/// resumable via `seed` (pass a previous crc32 result to extend it).
/// Slicing-by-8: eight bytes per step through eight table lookups, then
/// the tail bytewise — the same value as the bytewise loop on every input.
[[nodiscard]] inline std::uint32_t crc32(std::span<const std::uint8_t> data,
                                         std::uint32_t seed = 0) {
  const auto& t = detail::crc32_tables();
  std::uint32_t crc = ~seed;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
  for (; n >= 8; p += 8, n -= 8) {
    const std::uint32_t lo = crc ^ detail::le32(p);
    const std::uint32_t hi = detail::le32(p + 4);
    crc = t[7][lo & 0xFFU] ^ t[6][(lo >> 8) & 0xFFU] ^
          t[5][(lo >> 16) & 0xFFU] ^ t[4][lo >> 24] ^ t[3][hi & 0xFFU] ^
          t[2][(hi >> 8) & 0xFFU] ^ t[1][(hi >> 16) & 0xFFU] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) {
    crc = t[0][(crc ^ *p) & 0xFFU] ^ (crc >> 8);
  }
  return ~crc;
}

/// Append-only little-endian encoder into a growable byte buffer.
class BinaryWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }

  void u16(std::uint16_t v) {
    buf_.push_back(static_cast<std::uint8_t>(v));
    buf_.push_back(static_cast<std::uint8_t>(v >> 8));
  }

  void u32(std::uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void u64(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  // resize + memcpy rather than vector::insert with range iterators: GCC
  // 12's stringop-overflow analysis misfires on the inlined _M_range_insert
  // under -O2 (it pins the fresh allocation at the first chunk's size), and
  // the matrix builds with -Werror.
  void bytes(std::span<const std::uint8_t> data) {
    if (data.empty()) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + data.size());
    std::memcpy(buf_.data() + old, data.data(), data.size());
  }

  /// u64 length prefix + raw bytes.
  void str(std::string_view s) {
    u64(s.size());
    if (s.empty()) return;
    const std::size_t old = buf_.size();
    buf_.resize(old + s.size());
    std::memcpy(buf_.data() + old, s.data(), s.size());
  }

  /// Current write position — pair with patch_u64 to backfill a length
  /// reserved earlier (e.g. a sub-blob framed before its size is known).
  [[nodiscard]] std::size_t tell() const { return buf_.size(); }

  /// Overwrites the 8 bytes at `offset` (previously written, e.g. via
  /// u64(0)) with `v`.
  void patch_u64(std::size_t offset, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      buf_[offset + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (8 * i));
    }
  }

  [[nodiscard]] const std::vector<std::uint8_t>& buffer() const { return buf_; }
  [[nodiscard]] std::vector<std::uint8_t> take() { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

/// Bounds-checked little-endian decoder over a borrowed byte span. Every
/// accessor throws SnapshotError instead of reading past the end.
class BinaryReader {
 public:
  explicit BinaryReader(std::span<const std::uint8_t> data) : data_(data) {}

  [[nodiscard]] std::size_t remaining() const { return data_.size() - pos_; }
  [[nodiscard]] std::size_t tell() const { return pos_; }
  [[nodiscard]] bool done() const { return pos_ == data_.size(); }

  std::uint8_t u8() {
    need(1, "u8");
    return data_[pos_++];
  }

  std::uint16_t u16() {
    need(2, "u16");
    const auto v = static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(data_[pos_]) |
        static_cast<std::uint16_t>(data_[pos_ + 1]) << 8);
    pos_ += 2;
    return v;
  }

  std::uint32_t u32() {
    need(4, "u32");
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<std::uint32_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 4;
    return v;
  }

  std::uint64_t u64() {
    need(8, "u64");
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<std::uint64_t>(data_[pos_ + static_cast<std::size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  double f64() { return std::bit_cast<double>(u64()); }

  /// Borrowed view of the next n bytes (valid while the backing span lives).
  std::span<const std::uint8_t> bytes(std::size_t n) {
    need(n, "bytes");
    const auto out = data_.subspan(pos_, n);
    pos_ += n;
    return out;
  }

  /// Length-prefixed string; the length is validated against the remaining
  /// buffer before any allocation.
  std::string str() {
    const std::uint64_t len = u64();
    need(len, "str");
    std::string out(reinterpret_cast<const char*>(data_.data() + pos_),
                    static_cast<std::size_t>(len));
    pos_ += static_cast<std::size_t>(len);
    return out;
  }

  void skip(std::size_t n) {
    need(n, "skip");
    pos_ += n;
  }

 private:
  void need(std::uint64_t n, const char* what) const {
    if (n > data_.size() - pos_) {
      throw SnapshotError(std::string("truncated input: need ") +
                          std::to_string(n) + " bytes for " + what +
                          ", have " + std::to_string(data_.size() - pos_));
    }
  }

  std::span<const std::uint8_t> data_;
  std::size_t pos_ = 0;
};

}  // namespace ssau::util
