#include "audit/distribution.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "support/stats.hpp"
#include "topo/latency.hpp"
#include "proto/victim.hpp"

namespace dws::audit {
namespace {

/// Fixture supplying a 64-rank grouped job (8 ranks per node) — the layout
/// where every selector family has non-trivial structure: Tofu distances
/// vary, and the hierarchical local set is the 7 node-mates.
class DistributionTest : public ::testing::Test {
 protected:
  DistributionTest()
      : layout_(machine_, 64, topo::Placement::kGrouped, 8),
        latency_(layout_) {}

  topo::TofuMachine machine_;
  topo::JobLayout layout_;
  topo::LatencyModel latency_;
};

TEST(ChiSquareSf, MatchesTextbookValues) {
  // sf(3.841, 1) is the classic 5% critical value.
  EXPECT_NEAR(support::chi_square_sf(3.841, 1.0), 0.05, 2e-3);
  EXPECT_NEAR(support::chi_square_sf(18.307, 10.0), 0.05, 2e-3);
  EXPECT_DOUBLE_EQ(support::chi_square_sf(0.0, 5.0), 1.0);
  EXPECT_GT(support::chi_square_sf(10.0, 10.0),
            support::chi_square_sf(20.0, 10.0));
  EXPECT_LT(support::chi_square_sf(100.0, 3.0), 1e-12);
}

/// chi_square_sf against the closed forms that exist for small integer
/// degrees of freedom. Each dof gets one x below dof + 2 (the series branch)
/// and one above it (the continued-fraction branch).
struct SfCase {
  double x;
  double dof;
};

void PrintTo(const SfCase& c, std::ostream* os) {
  *os << "x=" << c.x << " dof=" << c.dof;
}

double closed_form_sf(double x, double dof) {
  const double h = x / 2.0;
  const double pi = 3.14159265358979323846;
  if (dof == 1.0) return std::erfc(std::sqrt(h));
  if (dof == 2.0) return std::exp(-h);
  if (dof == 3.0) {
    return std::erfc(std::sqrt(h)) + std::sqrt(2.0 * x / pi) * std::exp(-h);
  }
  if (dof == 4.0) return std::exp(-h) * (1.0 + h);
  return std::exp(-h) * (1.0 + h + h * h / 2.0);  // dof == 6
}

class ChiSquareSfClosedForm : public ::testing::TestWithParam<SfCase> {};

TEST_P(ChiSquareSfClosedForm, MatchesToTenDigits) {
  const SfCase c = GetParam();
  const double want = closed_form_sf(c.x, c.dof);
  EXPECT_NEAR(support::chi_square_sf(c.x, c.dof), want, 1e-10 * want);
}

INSTANTIATE_TEST_SUITE_P(
    SmallDof, ChiSquareSfClosedForm,
    ::testing::Values(SfCase{0.5, 1}, SfCase{6.0, 1}, SfCase{1.0, 2},
                      SfCase{30.0, 2}, SfCase{2.0, 3}, SfCase{9.0, 3},
                      SfCase{0.3, 4}, SfCase{15.0, 4}, SfCase{4.0, 6},
                      SfCase{25.0, 6}),
    [](const ::testing::TestParamInfo<SfCase>& case_info) {
      // "dof3_x9", "dof1_x0p5": gtest names allow only [A-Za-z0-9_].
      std::ostringstream name;
      name << "dof" << case_info.param.dof << "_x" << case_info.param.x;
      std::string s = name.str();
      std::replace(s.begin(), s.end(), '.', 'p');
      return s;
    });

TEST_F(DistributionTest, EveryPolicyMatchesItsAnalyticDistribution) {
  const ws::VictimPolicy policies[] = {
      ws::VictimPolicy::kRoundRobin, ws::VictimPolicy::kRandom,
      ws::VictimPolicy::kTofuSkewed, ws::VictimPolicy::kHierarchical,
      ws::VictimPolicy::kAdaptive};
  for (const ws::VictimPolicy policy : policies) {
    ws::WsConfig cfg;
    cfg.victim_policy = policy;
    const topo::Rank self = 5;
    const std::vector<double> expected =
        expected_distribution(cfg, self, 64, latency_);
    ASSERT_EQ(expected.size(), 64u);
    EXPECT_DOUBLE_EQ(expected[self], 0.0);
    EXPECT_NEAR(std::accumulate(expected.begin(), expected.end(), 0.0), 1.0,
                1e-9);
    auto selector = proto::make_selector(cfg, self, latency_);
    const DistributionCheck check =
        check_selector_distribution(*selector, expected, self, 20000);
    EXPECT_TRUE(check.ok) << ws::to_string(policy) << ": " << check.detail;
    EXPECT_EQ(check.samples, 20000u);
  }
}

TEST_F(DistributionTest, SkewedSelectorFailsTheUniformExpectation) {
  // Negative control: the distance-skewed draw against a flat analytic
  // distribution must trip the chi-square screen.
  std::vector<double> uniform(64, 1.0 / 63.0);
  uniform[5] = 0.0;
  proto::TofuSkewedSelector selector(5, latency_, 1, 2048);
  const DistributionCheck check =
      check_selector_distribution(selector, uniform, 5, 20000);
  EXPECT_FALSE(check.ok);
  EXPECT_FALSE(check.detail.empty());
}

TEST_F(DistributionTest, HierarchicalExpectationUsesCorrectedSplit) {
  // local_tries = 3 schedules 3 local picks per remote pick, so exactly 3/4
  // of the mass sits on the local set — not the pre-fix local/(local+remote)
  // node-count ratio.
  ws::WsConfig cfg;
  cfg.victim_policy = ws::VictimPolicy::kHierarchical;
  cfg.hierarchical_local_tries = 3;
  const std::vector<double> expected =
      expected_distribution(cfg, 0, 64, latency_);
  proto::HierarchicalSelector selector(0, latency_, 7, 3);
  double local_mass = 0.0;
  for (const topo::Rank r : selector.local_set()) local_mass += expected[r];
  EXPECT_NEAR(local_mass, 0.75, 1e-9);
  const DistributionCheck check =
      check_selector_distribution(selector, expected, 0, 20000);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_F(DistributionTest, LocalTriesKnobChangesTheDistribution) {
  // Regression for the make_selector plumbing: a selector built with
  // local_tries = 4 must fail the all-remote (local_tries = 0) expectation —
  // before the fix both built identically and this was indistinguishable.
  ws::WsConfig all_remote;
  all_remote.victim_policy = ws::VictimPolicy::kHierarchical;
  all_remote.hierarchical_local_tries = 0;
  const std::vector<double> remote_only =
      expected_distribution(all_remote, 0, 64, latency_);

  ws::WsConfig mostly_local = all_remote;
  mostly_local.hierarchical_local_tries = 4;
  auto selector = proto::make_selector(mostly_local, 0, latency_);
  const DistributionCheck cross =
      check_selector_distribution(*selector, remote_only, 0, 20000);
  EXPECT_FALSE(cross.ok);

  auto remote_selector = proto::make_selector(all_remote, 0, latency_);
  const DistributionCheck own =
      check_selector_distribution(*remote_selector, remote_only, 0, 20000);
  EXPECT_TRUE(own.ok) << own.detail;
}

TEST_F(DistributionTest, RemoteTriesKnobChangesTheHierarchicalSplit) {
  // remote_tries = 3 against local_tries = 3 moves the local mass from 3/4
  // down to 1/2; the audit expectation must track the knob, not assume the
  // historical single remote slot.
  ws::WsConfig cfg;
  cfg.victim_policy = ws::VictimPolicy::kHierarchical;
  cfg.hierarchical_local_tries = 3;
  cfg.hierarchical_remote_tries = 3;
  const std::vector<double> expected =
      expected_distribution(cfg, 0, 64, latency_);
  proto::HierarchicalSelector selector(0, latency_, 7, 3, 3);
  double local_mass = 0.0;
  for (const topo::Rank r : selector.local_set()) local_mass += expected[r];
  EXPECT_NEAR(local_mass, 0.5, 1e-9);
  const DistributionCheck check =
      check_selector_distribution(selector, expected, 0, 20000);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_F(DistributionTest, FreshAdaptiveMatchesTheEpsilonMixedTofuExpectation) {
  // Before any feedback the live weights equal the static Tofu base, so the
  // analytic distribution is (1 - eps) * tofu + eps * uniform — which is
  // what expected_distribution builds from probability().
  ws::WsConfig cfg;
  cfg.victim_policy = ws::VictimPolicy::kAdaptive;
  cfg.adapt_epsilon = 0.2;
  const topo::Rank self = 5;
  const std::vector<double> expected =
      expected_distribution(cfg, self, 64, latency_);
  proto::TofuSkewedSelector tofu(self, latency_, cfg.seed, 2048);
  for (topo::Rank j = 0; j < 64; ++j) {
    const double mixed =
        j == self ? 0.0 : 0.8 * tofu.probability(j) + 0.2 / 63.0;
    EXPECT_NEAR(expected[j], mixed, 1e-12) << j;
  }
  auto selector = proto::make_selector(cfg, self, latency_);
  const DistributionCheck check =
      check_selector_distribution(*selector, expected, self, 20000);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_F(DistributionTest, TofuBackendsSelectByThresholdAndAgree) {
  // 64 ranks: max_ranks = 2048 keeps the Walker alias table, max_ranks = 1
  // forces rejection sampling. Identical probability vectors either way.
  proto::TofuSkewedSelector alias(3, latency_, 7, 2048);
  proto::TofuSkewedSelector rejection(3, latency_, 7, 1);
  EXPECT_TRUE(alias.uses_alias_table());
  EXPECT_FALSE(rejection.uses_alias_table());
  for (topo::Rank r = 0; r < 64; ++r) {
    EXPECT_NEAR(alias.probability(r), rejection.probability(r), 1e-12) << r;
  }

  ws::WsConfig cfg;
  cfg.victim_policy = ws::VictimPolicy::kTofuSkewed;
  const DistributionCheck check =
      check_tofu_backends_agree(cfg, 3, latency_, 20000);
  EXPECT_TRUE(check.ok) << check.detail;
}

TEST_F(DistributionTest, TofuAgreementHoldsOnBothSidesOfTheThreshold) {
  for (const std::uint32_t max_ranks : {1u, 2048u}) {
    ws::WsConfig cfg;
    cfg.victim_policy = ws::VictimPolicy::kTofuSkewed;
    cfg.alias_table_max_ranks = max_ranks;
    const std::vector<double> expected =
        expected_distribution(cfg, 9, 64, latency_);
    auto selector = proto::make_selector(cfg, 9, latency_);
    const DistributionCheck check =
        check_selector_distribution(*selector, expected, 9, 20000);
    EXPECT_TRUE(check.ok) << "max_ranks=" << max_ranks << ": " << check.detail;
  }
}

/// A Tofu job whose nodes hold unequal numbers of ranks: `width` ranks
/// sliced from `parent_ranks` grouped at 8 per node, starting at `base`.
struct UnevenJob {
  const char* name;
  topo::Rank parent_ranks;
  topo::Rank base;
  topo::Rank width;
  topo::Rank self;
};

void PrintTo(const UnevenJob& job, std::ostream* os) { *os << job.name; }

class TofuUnevenOccupancy : public ::testing::TestWithParam<UnevenJob> {};

TEST_P(TofuUnevenOccupancy, BothBackendsMatchProbability) {
  const UnevenJob& job = GetParam();
  const topo::TofuMachine machine;
  const topo::JobLayout parent(machine, job.parent_ranks,
                               topo::Placement::kGrouped, 8);
  const topo::JobLayout layout =
      topo::JobLayout::slice(parent, job.base, job.width);
  const topo::LatencyModel latency(layout);
  for (const std::uint32_t max_ranks : {2048u, 1u}) {
    ws::WsConfig cfg;
    cfg.victim_policy = ws::VictimPolicy::kTofuSkewed;
    cfg.alias_table_max_ranks = max_ranks;
    const std::vector<double> expected =
        expected_distribution(cfg, job.self, job.width, latency);
    EXPECT_DOUBLE_EQ(expected[job.self], 0.0);
    EXPECT_NEAR(std::accumulate(expected.begin(), expected.end(), 0.0), 1.0,
                1e-12);
    auto selector = proto::make_selector(cfg, job.self, latency);
    // check_selector_distribution also fails on any draw of self.
    const DistributionCheck check =
        check_selector_distribution(*selector, expected, job.self, 20000);
    EXPECT_TRUE(check.ok) << "max_ranks=" << max_ranks << ": " << check.detail;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, TofuUnevenOccupancy,
    ::testing::Values(
        // Nodes of 8 and 5 ranks, the thief on either.
        UnevenJob{"Nodes8And5SelfOnThe5", 16, 0, 13, 10},
        UnevenJob{"Nodes8And5SelfOnThe8", 16, 0, 13, 2},
        // Parent rank 7 alone on its node: its own-node weight is 0.
        UnevenJob{"ThiefAloneOnItsNode", 16, 7, 9, 0},
        UnevenJob{"OneNodeJob", 8, 0, 8, 3},
        // One node, one other rank: the within-node pick costs no draw.
        UnevenJob{"OneNodeTwoRanks", 8, 0, 2, 1}),
    [](const ::testing::TestParamInfo<UnevenJob>& param_info) {
      return std::string(param_info.param.name);
    });

}  // namespace
}  // namespace dws::audit
