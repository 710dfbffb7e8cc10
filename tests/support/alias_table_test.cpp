#include "support/alias_table.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "support/rng.hpp"

namespace dws::support {
namespace {

TEST(AliasTable, SingleEntryAlwaysReturnsIt) {
  AliasTable t({5.0});
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(t.sample(rng), 0u);
}

TEST(AliasTable, ZeroWeightNeverSampled) {
  AliasTable t({1.0, 0.0, 1.0, 0.0});
  Xoshiro256StarStar rng(3);
  for (int i = 0; i < 20000; ++i) {
    const auto s = t.sample(rng);
    ASSERT_TRUE(s == 0 || s == 2) << s;
  }
}

TEST(AliasTable, UniformWeightsSampleUniformly) {
  const std::size_t n = 16;
  AliasTable t(std::vector<double>(n, 1.0));
  Xoshiro256StarStar rng(7);
  std::vector<int> counts(n, 0);
  const int draws = 160000;
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  const double expected = draws / static_cast<double>(n);
  for (int c : counts) EXPECT_NEAR(c, expected, expected * 0.06);
}

TEST(AliasTable, SkewedWeightsMatchProbabilities) {
  std::vector<double> w{10.0, 1.0, 5.0, 0.5, 3.5};
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  AliasTable t(w);
  Xoshiro256StarStar rng(13);
  std::vector<int> counts(w.size(), 0);
  const int draws = 500000;
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = w[i] / total * draws;
    EXPECT_NEAR(counts[i], expected, 4.0 * std::sqrt(expected) + 1.0)
        << "index " << i;
  }
}

TEST(AliasTable, ChiSquareGoodnessOfFit) {
  // 1/distance-like weights as used for victim selection.
  std::vector<double> w;
  for (int i = 1; i <= 64; ++i) w.push_back(1.0 / i);
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  AliasTable t(w);
  Xoshiro256StarStar rng(99);
  std::vector<int> counts(w.size(), 0);
  const int draws = 640000;
  for (int i = 0; i < draws; ++i) ++counts[t.sample(rng)];
  double chi2 = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double e = w[i] / total * draws;
    chi2 += (counts[i] - e) * (counts[i] - e) / e;
  }
  // 63 degrees of freedom; the 99.9th percentile is ~103.4.
  EXPECT_LT(chi2, 104.0);
}

/// The table keeps no weights, only thresholds built from weights[i] / total,
/// so scaling every weight by a power of two (exact in binary floating point)
/// must leave every draw unchanged.
TEST(AliasTable, PowerOfTwoScaledWeightsDrawTheSameStream) {
  std::vector<double> w;
  for (int i = 1; i <= 48; ++i) w.push_back(i % 5 == 0 ? 0.0 : 1.0 / i);
  std::vector<double> scaled = w;
  for (auto& x : scaled) x *= 1024.0;
  AliasTable a(w);
  AliasTable b(scaled);
  Xoshiro256StarStar rng_a(21);
  Xoshiro256StarStar rng_b(21);
  for (int i = 0; i < 20000; ++i) {
    ASSERT_EQ(a.sample(rng_a), b.sample(rng_b)) << "draw " << i;
  }
}

TEST(AliasTable, LargeTableConstructionIsSane) {
  std::vector<double> w(8192);
  Xoshiro256StarStar rng(5);
  for (auto& x : w) x = rng.next_double() + 1e-9;
  AliasTable t(w);
  EXPECT_EQ(t.size(), w.size());
  Xoshiro256StarStar draw_rng(6);
  for (int i = 0; i < 1000; ++i) ASSERT_LT(t.sample(draw_rng), w.size());
}

}  // namespace
}  // namespace dws::support
