// Small string helpers shared across the library.
#pragma once

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ssau::util {

/// prefix + std::to_string(value), built by append. This exists because the
/// natural `"x" + std::to_string(v)` trips a GCC 12 -Wrestrict false
/// positive under -Werror; every state_name-style label funnels through here
/// so the workaround (and this note) lives in one place.
template <typename T>
[[nodiscard]] std::string labeled(std::string prefix, T value) {
  prefix += std::to_string(value);
  return prefix;
}

/// `token` as a T, or nullopt. The whole token must be one number that fits
/// T (std::from_chars): no sign on an unsigned T, no leading '+', blanks or
/// "0x", no trailing characters, nothing out of T's range. `base` applies
/// to integer types only. The one strict number parser behind every
/// user-typed number (SessionSpec strings, the ssau_serve protocol).
template <typename T>
[[nodiscard]] std::optional<T> parse_number(std::string_view token,
                                            int base = 10) {
  static_assert(std::is_arithmetic_v<T> && !std::is_same_v<T, bool>);
  T value{};
  const char* last = token.data() + token.size();
  std::from_chars_result result{};
  if constexpr (std::is_floating_point_v<T>) {
    result = std::from_chars(token.data(), last, value);
  } else {
    result = std::from_chars(token.data(), last, value, base);
  }
  if (result.ec != std::errc() || result.ptr != last) {
    return std::nullopt;
  }
  return value;
}

}  // namespace ssau::util
