#include "support/table.hpp"

#include <gtest/gtest.h>

namespace dws::support {
namespace {

TEST(Table, RendersAlignedColumns) {
  Table t({"ranks", "speedup"});
  t.add_row({"8", "7.9"});
  t.add_row({"1024", "512.3"});
  const std::string out = t.render();
  EXPECT_NE(out.find("ranks"), std::string::npos);
  EXPECT_NE(out.find("-----"), std::string::npos);
  EXPECT_NE(out.find("512.3"), std::string::npos);
  // All lines share the same width (right-aligned columns).
  std::size_t first_nl = out.find('\n');
  std::size_t second_nl = out.find('\n', first_nl + 1);
  EXPECT_EQ(first_nl, second_nl - first_nl - 1);
}

TEST(Table, RowCount) {
  Table t({"x"});
  EXPECT_EQ(t.rows(), 0u);
  t.add_row({"1"});
  t.add_row({"2"});
  EXPECT_EQ(t.rows(), 2u);
}

TEST(Format, FixedPrecision) {
  EXPECT_EQ(fmt(1.23456, 2), "1.23");
  EXPECT_EQ(fmt(1.0, 0), "1");
  EXPECT_EQ(fmt(std::uint64_t{157063495159ull}), "157063495159");
}

TEST(Format, Percent) {
  EXPECT_EQ(fmt_pct(0.43, 1), "43.0%");
  EXPECT_EQ(fmt_pct(1.0, 0), "100%");
}

}  // namespace
}  // namespace dws::support
