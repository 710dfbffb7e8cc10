#include "support/rejection_sampler.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <numeric>
#include <vector>

#include "support/alias_table.hpp"
#include "support/rng.hpp"

namespace dws::support {
namespace {

TEST(RejectionSampler, SingleIndex) {
  RejectionSampler s(1, 1.0, [](std::size_t) { return 1.0; });
  Xoshiro256StarStar rng(1);
  for (int i = 0; i < 50; ++i) EXPECT_EQ(s.sample(rng), 0u);
}

TEST(RejectionSampler, SkipsZeroWeightIndices) {
  RejectionSampler s(4, 1.0,
                     [](std::size_t i) { return i % 2 == 0 ? 1.0 : 0.0; });
  Xoshiro256StarStar rng(2);
  for (int i = 0; i < 10000; ++i) {
    const auto v = s.sample(rng);
    ASSERT_TRUE(v == 0 || v == 2);
  }
}

TEST(RejectionSampler, MatchesWeightRatios) {
  const std::vector<double> w{4.0, 1.0, 2.0, 1.0};
  RejectionSampler s(w.size(), 4.0, [&](std::size_t i) { return w[i]; });
  Xoshiro256StarStar rng(3);
  std::vector<int> counts(w.size(), 0);
  const int draws = 400000;
  for (int i = 0; i < draws; ++i) ++counts[s.sample(rng)];
  const double total = 8.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double expected = w[i] / total * draws;
    EXPECT_NEAR(counts[i], expected, 4.0 * std::sqrt(expected));
  }
}

/// The key property: rejection sampling and the alias table realise the SAME
/// distribution (this is what justifies swapping one for the other at large
/// rank counts — see DESIGN.md).
TEST(RejectionSampler, AgreesWithAliasTable) {
  std::vector<double> w;
  for (int i = 1; i <= 32; ++i) w.push_back(1.0 / std::sqrt(i));
  const double total = std::accumulate(w.begin(), w.end(), 0.0);
  AliasTable alias(w);
  RejectionSampler rej(w.size(), 1.0, [&](std::size_t i) { return w[i]; });

  Xoshiro256StarStar rng_a(11);
  Xoshiro256StarStar rng_b(12);
  std::vector<int> ca(w.size(), 0);
  std::vector<int> cb(w.size(), 0);
  const int draws = 320000;
  for (int i = 0; i < draws; ++i) {
    ++ca[alias.sample(rng_a)];
    ++cb[rej.sample(rng_b)];
  }
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double e = w[i] / total * draws;
    EXPECT_NEAR(ca[i], e, 5.0 * std::sqrt(e)) << i;
    EXPECT_NEAR(cb[i], e, 5.0 * std::sqrt(e)) << i;
  }
}

/// The draw protocol the skewed victim selectors' streams rest on: one index
/// per candidate, a zero-weight candidate (the thief itself) skipped before
/// any coin is drawn, and one coin per positive-weight candidate. A
/// hand-written loop over a second generator must pick the same indices and
/// leave that generator in the same state.
TEST(RejectionSampler, DrawsOneIndexPerCandidateAndOneCoinPerPositiveWeight) {
  const std::vector<double> w{0.5, 0.0, 1.0, 0.25, 0.0, 0.125, 0.75};
  for (const double w_max : {1.0, 8.0}) {
    RejectionSampler s(w.size(), w_max, [&](std::size_t i) { return w[i]; });
    Xoshiro256StarStar rng(41);
    Xoshiro256StarStar ref(41);
    for (int i = 0; i < 20000; ++i) {
      std::size_t expected = 0;
      for (;;) {
        const auto c = static_cast<std::size_t>(ref.next_below(w.size()));
        if (w[c] <= 0.0) continue;
        if (ref.next_double() * w_max < w[c]) {
          expected = c;
          break;
        }
      }
      ASSERT_EQ(s.sample(rng), expected) << "w_max " << w_max << " draw " << i;
    }
    EXPECT_EQ(rng.next(), ref.next()) << "w_max " << w_max;
  }
}

TEST(RejectionSamplerDeathTest, AllZeroWeightsAbort) {
  // An all-zero weight function used to spin forever in sample(); the
  // constructor now rejects it outright.
  EXPECT_DEATH(RejectionSampler(4, 1.0, [](std::size_t) { return 0.0; }),
               "all weights are zero");
}

TEST(RejectionSampler, WorksWithLooseUpperBound) {
  // w_max larger than any actual weight only slows sampling, never biases it.
  const std::vector<double> w{1.0, 2.0};
  RejectionSampler s(w.size(), 100.0, [&](std::size_t i) { return w[i]; });
  Xoshiro256StarStar rng(21);
  int ones = 0;
  const int draws = 90000;
  for (int i = 0; i < draws; ++i) ones += s.sample(rng) == 1 ? 1 : 0;
  EXPECT_NEAR(ones, draws * 2.0 / 3.0, 1500.0);
}

}  // namespace
}  // namespace dws::support
