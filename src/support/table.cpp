#include "support/table.hpp"

#include <algorithm>
#include <cstdio>

#include "support/check.hpp"

namespace dws::support {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {
  DWS_CHECK(!headers_.empty());
}

void Table::add_row(std::vector<std::string> cells) {
  DWS_CHECK(cells.size() == headers_.size());
  rows_.push_back(std::move(cells));
}

std::string Table::render() const {
  std::vector<std::size_t> widths(headers_.size());
  for (std::size_t c = 0; c < headers_.size(); ++c) widths[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  auto emit_row = [&](const std::vector<std::string>& row, std::string& out) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) out += "  ";
      out.append(widths[c] - row[c].size(), ' ');
      out += row[c];
    }
    out += '\n';
  };

  std::string out;
  emit_row(headers_, out);
  for (std::size_t c = 0; c < headers_.size(); ++c) {
    if (c) out += "  ";
    out.append(widths[c], '-');
  }
  out += '\n';
  for (const auto& row : rows_) emit_row(row, out);
  return out;
}

std::string fmt(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

std::string fmt(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%llu", static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt_pct(double fraction, int precision) {
  return fmt(fraction * 100.0, precision) + "%";
}

}  // namespace dws::support
