// Minimal table builder: the benches print the paper's tables/series as
// aligned plain-text and optionally as CSV, so result rows can be copied
// verbatim from bench output.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

namespace ssau::util {

/// A rectangular table with a header row. Cells are strings; numeric helpers
/// format with sensible defaults.
class Table {
 public:
  explicit Table(std::vector<std::string> header);

  /// Starts a new row; subsequent add() calls fill it left to right.
  Table& row();
  Table& add(const std::string& cell);
  Table& add(const char* cell);
  Table& add(double value, int precision = 2);
  Table& add(std::uint64_t value);
  Table& add(std::int64_t value);
  Table& add(int value);

  [[nodiscard]] std::size_t rows() const { return cells_.size(); }

  /// Aligned monospace rendering with a separator under the header.
  void print(std::ostream& os) const;

  /// RFC-4180-ish CSV rendering (no quoting of embedded commas needed here).
  void print_csv(std::ostream& os) const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> cells_;
};

}  // namespace ssau::util
