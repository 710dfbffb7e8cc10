#include <gtest/gtest.h>

#include <string>

#include "uts/params.hpp"
#include "ws/scheduler.hpp"

namespace dws::ws {
namespace {

RunConfig valid_config() {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 8;
  return cfg;
}

void expect_rejected(const RunConfig& cfg, const char* needle) {
  const auto status = cfg.validate();
  ASSERT_FALSE(status) << "expected rejection mentioning '" << needle << "'";
  EXPECT_NE(status.message().find(needle), std::string::npos)
      << status.message();
}

TEST(RunConfigValidate, AcceptsTheDefaultShape) {
  EXPECT_TRUE(valid_config().validate());
}

TEST(RunConfigValidate, RejectsZeroRanks) {
  auto cfg = valid_config();
  cfg.num_ranks = 0;
  expect_rejected(cfg, "num_ranks");
}

TEST(RunConfigValidate, RejectsZeroProcsPerNode) {
  auto cfg = valid_config();
  cfg.procs_per_node = 0;
  expect_rejected(cfg, "procs_per_node");
}

TEST(RunConfigValidate, RejectsOnePerNodeWithPackedProcs) {
  auto cfg = valid_config();
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 8;
  expect_rejected(cfg, "1/N");
}

TEST(RunConfigValidate, RejectsRanksNotDivisibleByProcsPerNode) {
  auto cfg = valid_config();
  cfg.placement = topo::Placement::kRoundRobin;
  cfg.procs_per_node = 8;
  cfg.num_ranks = 12;
  expect_rejected(cfg, "multiple");
}

TEST(RunConfigValidate, RejectsJobsLargerThanTheMachine) {
  auto cfg = valid_config();
  cfg.num_ranks = cfg.machine.node_count() + 1;
  expect_rejected(cfg, "nodes");
}

TEST(RunConfigValidate, RejectsOriginCubeOutsideTheMachine) {
  auto cfg = valid_config();
  cfg.origin_cube = cfg.machine.cube_count();
  expect_rejected(cfg, "origin_cube");
}

TEST(RunConfigValidate, RejectsZeroChunkSize) {
  auto cfg = valid_config();
  cfg.ws.chunk_size = 0;
  expect_rejected(cfg, "chunk_size");
}

TEST(RunConfigValidate, RejectsZeroPollInterval) {
  auto cfg = valid_config();
  cfg.ws.poll_interval = 0;
  expect_rejected(cfg, "poll_interval");
}

TEST(RunConfigValidate, RejectsZeroAliasTableThreshold) {
  auto cfg = valid_config();
  cfg.ws.alias_table_max_ranks = 0;
  expect_rejected(cfg, "alias_table_max_ranks");
}

TEST(RunConfigValidate, RejectsLifelinesWithZeroTries) {
  auto cfg = valid_config();
  cfg.ws.idle_policy = IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 0;
  expect_rejected(cfg, "lifeline_tries");
}

TEST(RunConfigValidate, RejectsZeroHierarchicalRemoteTries) {
  auto cfg = valid_config();
  cfg.ws.victim_policy = VictimPolicy::kHierarchical;
  cfg.ws.hierarchical_remote_tries = 0;
  expect_rejected(cfg, "hierarchical_remote_tries");
}

TEST(RunConfigValidate, RejectsOutOfRangeAdaptDecay) {
  for (const double bad : {0.0, -0.5, 1.5}) {
    auto cfg = valid_config();
    cfg.ws.victim_policy = VictimPolicy::kAdaptive;
    cfg.ws.adapt_decay = bad;
    expect_rejected(cfg, "adapt_decay");
  }
  // The knob is dead without adaptation, so the same value passes.
  auto inert = valid_config();
  inert.ws.adapt_decay = 0.0;
  EXPECT_TRUE(inert.validate());
}

TEST(RunConfigValidate, RejectsZeroEpsilonUnderAdaptiveSelection) {
  auto cfg = valid_config();
  cfg.ws.victim_policy = VictimPolicy::kAdaptive;
  cfg.ws.adapt_epsilon = 0.0;
  expect_rejected(cfg, "adapt_epsilon");
}

TEST(RunConfigValidate, RejectsZeroAdaptRefreshInterval) {
  auto cfg = valid_config();
  cfg.ws.victim_policy = VictimPolicy::kAdaptive;
  cfg.ws.adapt_refresh_interval = 0;
  expect_rejected(cfg, "adapt_refresh_interval");
  // Amount switching alone never rebuilds an alias table, so the cadence
  // knob is inert there and the same value passes.
  auto amount_only = valid_config();
  amount_only.ws.adaptive_steal_amount = true;
  amount_only.ws.adapt_refresh_interval = 0;
  EXPECT_TRUE(amount_only.validate());
}

TEST(RunConfigValidate, RejectsSupercriticalBinomialTrees) {
  auto cfg = valid_config();
  cfg.tree.m = 2;
  cfg.tree.q = 0.51;  // m*q > 1: infinite expected size
  expect_rejected(cfg, "infinite");
}

TEST(RunConfigCongestion, CongestionOrderDoesNotMatter) {
  // enable_congestion anchors capacity to the ranks at call time; a later
  // rank change (a sweep axis) leaves that field stale, and run_congestion()
  // re-anchors it, so both orders run the same congestion model.
  auto before = valid_config();
  before.enable_congestion(2.0);
  before.num_ranks = 64;
  auto after = valid_config();
  after.num_ranks = 64;
  after.enable_congestion(2.0);
  ASSERT_TRUE(before.validate());
  ASSERT_TRUE(after.validate());
  EXPECT_NE(before.congestion.capacity_hops, after.congestion.capacity_hops);
  EXPECT_DOUBLE_EQ(before.congestion_scale, after.congestion_scale);
  EXPECT_DOUBLE_EQ(before.run_congestion().capacity_hops,
                   after.run_congestion().capacity_hops);
}

TEST(RunConfigCongestion, RunCongestionKeepsAnExplicitModel) {
  // Without enable_congestion there is no scale to re-anchor: the model runs
  // exactly as stored, off by default and at its own capacity when set.
  auto cfg = valid_config();
  EXPECT_FALSE(cfg.run_congestion().enabled);
  cfg.congestion.enabled = true;
  cfg.congestion.capacity_hops = 123.0;
  cfg.num_ranks = 64;
  ASSERT_TRUE(cfg.validate());
  EXPECT_TRUE(cfg.run_congestion().enabled);
  EXPECT_DOUBLE_EQ(cfg.run_congestion().capacity_hops, 123.0);
}

TEST(RunConfigCompat, FieldAssignmentsBuildAValidatedConfig) {
  // How CLIs and the README build a run: a catalogue lookup, plain field
  // assignments, enable_congestion, then validate().
  const uts::TreeParams* tree = uts::find_tree("TEST_BIN_SMALL");
  ASSERT_NE(tree, nullptr);
  RunConfig cfg;
  cfg.tree = *tree;
  cfg.num_ranks = 64;
  cfg.ws.victim_policy = VictimPolicy::kTofuSkewed;
  cfg.ws.steal_amount = StealAmount::kHalf;
  cfg.ws.chunk_size = 4;
  cfg.ws.seed = 7;
  cfg.enable_congestion(1.0);
  ASSERT_TRUE(cfg.validate()) << cfg.validate().message();
  EXPECT_EQ(cfg.tree.name, "TEST_BIN_SMALL");
  EXPECT_TRUE(cfg.run_congestion().enabled);
  EXPECT_DOUBLE_EQ(cfg.congestion_scale, 1.0);
  EXPECT_DOUBLE_EQ(cfg.run_congestion().capacity_hops,
                   cfg.congestion.capacity_hops);
}

TEST(RunConfigCompat, AggregateInitializationStillWorks) {
  // Call sites brace-init RunConfig and poke fields directly.
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = 2;
  cfg.ws.chunk_size = 3;
  EXPECT_TRUE(cfg.validate());
}

TEST(RunResultCompat, EfficiencyUsesTheStoredRankCount) {
  RunResult r;
  r.num_ranks = 4;
  r.nodes = 100;
  // speedup() = sequential_time / runtime; fabricate a 2x speedup.
  r.runtime = 50 * support::kMicrosecond;
  r.per_node_cost = support::kMicrosecond;
  EXPECT_DOUBLE_EQ(r.efficiency(), r.speedup() / 4.0);
}

}  // namespace
}  // namespace dws::ws
