// Tiny command-line flag parser shared by benches, tools and examples.
//
// Supports "--name=value" and "--name value" forms plus boolean "--name".
// Numbers are read strictly (util::parse_number): get_int, get_count and
// get_double throw std::invalid_argument naming the flag unless its whole
// value is one number that fits; get_count also refuses negative values.
// The parser remembers which names has/get* read. A program calls
// reject_unread() once, after it has read every flag it knows, and a flag
// nothing read (a typo such as --nodes for --n, or --help) stops it with
// std::invalid_argument naming the flag instead of being ignored.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <vector>

#include "util/strings.hpp"

namespace ssau::util {

class Cli {
 public:
  Cli(int argc, char** argv);

  [[nodiscard]] bool has(const std::string& name) const;
  [[nodiscard]] std::string get(const std::string& name,
                                const std::string& fallback) const;
  [[nodiscard]] std::int64_t get_int(const std::string& name,
                                     std::int64_t fallback) const;
  [[nodiscard]] double get_double(const std::string& name,
                                  double fallback) const;
  [[nodiscard]] bool get_bool(const std::string& name, bool fallback) const;

  /// The flag's value as a count of integer type T: std::invalid_argument
  /// naming the flag unless the whole value is a number >= 0 that fits T
  /// (`--workers=-1` must not become 4,294,967,295 workers).
  template <typename T>
  [[nodiscard]] T get_count(const std::string& name, T fallback) const {
    static_assert(std::is_integral_v<T> && !std::is_same_v<T, bool>);
    const std::string* value = find(name);
    if (value == nullptr) return fallback;
    const auto parsed = parse_number<T>(*value);
    if (!parsed || *parsed < T{0}) {
      throw std::invalid_argument("--" + name +
                                  ": expected a count (a whole number >= 0 "
                                  "in range), got '" + *value + "'");
    }
    return *parsed;
  }

  /// Throws std::invalid_argument naming every flag that no has/get* call
  /// has read. Call it once, after reading every flag the program knows.
  void reject_unread() const;

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  /// The flag's raw value, or nullptr when absent; marks `name` read.
  [[nodiscard]] const std::string* find(const std::string& name) const;

  std::map<std::string, std::string> flags_;
  mutable std::set<std::string> read_;
  std::vector<std::string> positional_;
};

}  // namespace ssau::util
