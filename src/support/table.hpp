#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace dws::support {

/// Console table printer used by every bench binary so that regenerated
/// figures/tables share one readable format:
///
///   ranks  alloc  speedup
///   -----  -----  -------
///    1024    1/N   512.3
///
/// Cells are strings; callers format numbers with the helpers below so the
/// whole harness rounds consistently.
class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  void add_row(std::vector<std::string> cells);

  /// Render with columns right-aligned and padded; includes the header rule.
  std::string render() const;

  std::size_t rows() const noexcept { return rows_.size(); }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

/// Fixed-precision decimal formatting ("12.34").
std::string fmt(double v, int precision = 2);
std::string fmt(std::uint64_t v);
/// Percentage with % sign ("43.0%").
std::string fmt_pct(double fraction, int precision = 1);

}  // namespace dws::support
