// Tiny command-line flag parser shared by benches and examples.
//
// Supports "--name=value" and "--name value" forms plus boolean "--name".
// Numbers are read strictly (util::parse_number): get_int and get_double
// throw std::invalid_argument naming the flag unless its whole value is one
// number that fits. Unknown flags are not reported.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

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

  /// Positional (non-flag) arguments in order.
  [[nodiscard]] const std::vector<std::string>& positional() const {
    return positional_;
  }

 private:
  std::map<std::string, std::string> flags_;
  std::vector<std::string> positional_;
};

}  // namespace ssau::util
