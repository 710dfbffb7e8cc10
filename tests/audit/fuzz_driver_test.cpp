#include "audit/fuzz.hpp"

#include <gtest/gtest.h>

#include <string>

#include "exp/record.hpp"
#include "uts/sequential.hpp"

namespace dws::audit {
namespace {

TEST(RandomConfig, ValidatesAndFitsTheBudget) {
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    const ws::RunConfig cfg = random_config(seed, 200'000);
    EXPECT_TRUE(cfg.validate()) << "seed " << seed;
    EXPECT_GE(cfg.num_ranks, 2u);
    const auto stats = uts::enumerate_sequential(cfg.tree, 200'000);
    EXPECT_FALSE(stats.truncated) << "seed " << seed;
  }
}

TEST(RandomConfig, IsDeterministicPerSeed) {
  EXPECT_EQ(exp::canonical_config(random_config(42, 500'000)),
            exp::canonical_config(random_config(42, 500'000)));
  EXPECT_NE(exp::canonical_config(random_config(1, 500'000)),
            exp::canonical_config(random_config(2, 500'000)));
}

TEST(Reproducer, IsAPasteableUtsCliCommand) {
  const std::string cmd = reproducer_command(random_config(3, 200'000));
  EXPECT_NE(cmd.find("uts_cli"), std::string::npos);
  EXPECT_NE(cmd.find("--engine sim"), std::string::npos);
  EXPECT_NE(cmd.find("--ranks"), std::string::npos);
  EXPECT_NE(cmd.find("--seed"), std::string::npos);
  EXPECT_NE(cmd.find("--audit"), std::string::npos);
}

TEST(MutationParse, RoundTrips) {
  EXPECT_EQ(parse_mutation("drop-receipt").value(), Mutation::kDropReceipt);
  EXPECT_EQ(parse_mutation("double-expand").value(), Mutation::kDoubleExpand);
  EXPECT_EQ(parse_mutation("leak-message").value(), Mutation::kLeakMessage);
  EXPECT_EQ(parse_mutation("none").value(), Mutation::kNone);
  EXPECT_FALSE(parse_mutation("bogus"));
  EXPECT_STREQ(to_string(Mutation::kDoubleExpand), "double-expand");
}

TEST(FuzzDriver, CleanSweepFindsNothing) {
  FuzzOptions opts;
  opts.cases = 3;
  opts.seed = 5;
  opts.node_budget = 100'000;
  opts.threads = 2;
  const FuzzResult r = run_fuzz(opts);
  EXPECT_TRUE(r.ok()) << r.failure->first_violation;
  EXPECT_EQ(r.cases_run, 3u);
}

/// A failure's case count, violation and reproducer are functions of the
/// case stream: points are claimed in index order and a failure only cancels
/// later ones, so the lowest failing case runs at any thread count. Under this
/// mutation seed 7's first two cases pass and its third fails, so four
/// threads also run cases past the first failure.
TEST(FuzzDriver, FailureReportIsThreadCountInvariant) {
  FuzzOptions opts;
  opts.cases = 10;
  opts.seed = 7;
  opts.node_budget = 100'000;
  opts.mutation = Mutation::kDropReceipt;
  opts.threads = 1;
  const FuzzResult one = run_fuzz(opts);
  opts.threads = 4;
  const FuzzResult four = run_fuzz(opts);
  ASSERT_TRUE(one.failure.has_value());
  ASSERT_TRUE(four.failure.has_value());
  EXPECT_EQ(one.cases_run, 3u);
  EXPECT_EQ(one.cases_run, four.cases_run);
  EXPECT_EQ(one.cases_skipped, four.cases_skipped);
  EXPECT_EQ(one.cases_run + one.cases_skipped, opts.cases);
  EXPECT_EQ(one.failure->first_violation, four.failure->first_violation);
  EXPECT_EQ(one.failure->reproducer, four.failure->reproducer);
}

/// The mutation matrix: every lie the fuzzer can tell must be caught and
/// shrunk to a usable reproducer. This is the checker's own test coverage.
class MutationCatches : public ::testing::TestWithParam<Mutation> {};

TEST_P(MutationCatches, AuditFlagsTheLieAndShrinksIt) {
  FuzzOptions opts;
  opts.cases = 4;
  opts.seed = 2;
  opts.node_budget = 100'000;
  opts.threads = 1;
  opts.mutation = GetParam();
  const FuzzResult r = run_fuzz(opts);
  ASSERT_TRUE(r.failure.has_value())
      << to_string(GetParam()) << " was not caught";
  EXPECT_FALSE(r.failure->first_violation.empty());
  EXPECT_FALSE(r.failure->reproducer.empty());
  EXPECT_NE(r.failure->reproducer.find("uts_cli"), std::string::npos);
  EXPECT_TRUE(r.failure->config.validate());
}

INSTANTIATE_TEST_SUITE_P(AllLies, MutationCatches,
                         ::testing::Values(Mutation::kDropReceipt,
                                           Mutation::kDoubleExpand,
                                           Mutation::kLeakMessage));

}  // namespace
}  // namespace dws::audit
