#include "exp/sweep.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "support/sim_time.hpp"
#include "svc/params.hpp"
#include "topo/allocation.hpp"
#include "uts/params.hpp"
#include "ws/config.hpp"

namespace dws::exp {
namespace {

ws::RunConfig base_config() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 4;
  return cfg;
}

TEST(SweepSpec, AxislessSpecIsOnePoint) {
  SweepSpec spec(base_config());
  EXPECT_EQ(spec.num_points(), 1u);
  const auto points = spec.expand();
  ASSERT_TRUE(points);
  ASSERT_EQ(points.value().size(), 1u);
  EXPECT_EQ(points.value()[0].index, 0u);
  EXPECT_TRUE(points.value()[0].coords.empty());
  EXPECT_EQ(points.value()[0].config.num_ranks, 4u);
}

TEST(SweepSpec, CartesianCountIsTheProduct) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4, 8}))
      .axis(policy_axis(
          {ws::VictimPolicy::kRoundRobin, ws::VictimPolicy::kRandom}))
      .axis(seed_axis(1, 5));
  EXPECT_EQ(spec.num_points(), 3u * 2u * 5u);
  const auto points = spec.expand();
  ASSERT_TRUE(points);
  EXPECT_EQ(points.value().size(), 30u);
}

TEST(SweepSpec, CartesianLastAxisVariesFastest) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4})).axis(seed_axis(1, 3));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  const auto& points = expanded.value();
  ASSERT_EQ(points.size(), 6u);
  // Odometer order: (2,s1) (2,s2) (2,s3) (4,s1) (4,s2) (4,s3).
  const std::vector<std::pair<std::uint32_t, std::uint64_t>> want{
      {2, 1}, {2, 2}, {2, 3}, {4, 1}, {4, 2}, {4, 3}};
  for (std::size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(points[i].index, i);
    EXPECT_EQ(points[i].config.num_ranks, want[i].first) << "point " << i;
    EXPECT_EQ(points[i].config.ws.seed, want[i].second) << "point " << i;
  }
}

TEST(SweepSpec, CoordsFollowAxisDeclarationOrder) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4})).axis(seed_axis(7, 1));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  const auto& p = expanded.value()[1];
  ASSERT_EQ(p.coords.size(), 2u);
  EXPECT_EQ(p.coords[0].first, "ranks");
  EXPECT_EQ(p.coords[0].second, "4");
  EXPECT_EQ(p.coords[1].first, "seed");
  EXPECT_EQ(p.coords[1].second, "7");
  EXPECT_EQ(p.label(), "ranks=4 seed=7");
  ASSERT_NE(p.coord("ranks"), nullptr);
  EXPECT_EQ(*p.coord("ranks"), "4");
  EXPECT_EQ(p.coord("no-such-axis"), nullptr);
}

TEST(SweepSpec, ZipAdvancesAxesTogether) {
  SweepSpec spec(base_config(), SweepMode::kZip);
  spec.axis(ranks_axis({2, 4, 8})).axis(chunk_size_axis({1, 2, 3}));
  EXPECT_EQ(spec.num_points(), 3u);
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  const auto& points = expanded.value();
  ASSERT_EQ(points.size(), 3u);
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(points[i].config.num_ranks, 2u << i);
    EXPECT_EQ(points[i].config.ws.chunk_size, i + 1);
  }
}

TEST(SweepSpec, ZipRejectsUnequalLengths) {
  SweepSpec spec(base_config(), SweepMode::kZip);
  spec.axis(ranks_axis({2, 4, 8})).axis(chunk_size_axis({1, 2}));
  EXPECT_EQ(spec.num_points(), 0u);
  const auto expanded = spec.expand();
  ASSERT_FALSE(expanded);
  EXPECT_NE(expanded.error().find("length"), std::string::npos)
      << expanded.error();
}

TEST(SweepSpec, EmptyAxisIsAnError) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({}));
  const auto expanded = spec.expand();
  ASSERT_FALSE(expanded);
  EXPECT_NE(expanded.error().find("no points"), std::string::npos)
      << expanded.error();
}

TEST(SweepSpec, LaterAxesOverrideEarlierOnes) {
  SweepSpec spec(base_config());
  spec.axis(chunk_size_axis({5}))
      .axis(custom_axis("override", {{"c9", [](ws::RunConfig& cfg) {
                                        cfg.ws.chunk_size = 9;
                                      }}}));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  EXPECT_EQ(expanded.value()[0].config.ws.chunk_size, 9u);
}

TEST(SweepAxes, FactoriesLabelByValue) {
  const Axis ranks = ranks_axis({128, 1024});
  EXPECT_EQ(ranks.name, "ranks");
  ASSERT_EQ(ranks.points.size(), 2u);
  EXPECT_EQ(ranks.points[1].label, "1024");

  const Axis seeds = seed_axis(3, 2);
  ASSERT_EQ(seeds.points.size(), 2u);
  EXPECT_EQ(seeds.points[0].label, "3");
  EXPECT_EQ(seeds.points[1].label, "4");

  const Axis congestion = congestion_axis({0.0, 1.5});
  EXPECT_EQ(congestion.points[0].label, "off");
  ws::RunConfig cfg = base_config();
  cfg.enable_congestion(1.0);
  congestion.points[0].apply(cfg);
  EXPECT_FALSE(cfg.congestion.enabled);
  congestion.points[1].apply(cfg);
  EXPECT_TRUE(cfg.congestion.enabled);
  EXPECT_DOUBLE_EQ(cfg.congestion_scale, 1.5);
}

TEST(SweepAxes, TreeAxisLooksUpTheCatalogue) {
  const auto trees = tree_axis({"TEST_BIN_TINY", "TEST_BIN_SMALL"});
  ASSERT_TRUE(trees.has_value());
  ws::RunConfig cfg = base_config();
  trees.value().points[1].apply(cfg);
  EXPECT_EQ(cfg.tree.name, "TEST_BIN_SMALL");
  trees.value().points[0].apply(cfg);
  EXPECT_EQ(cfg.tree.name, "TEST_BIN_TINY");
}

TEST(SweepAxes, TreeAxisNamesAnUnknownTree) {
  const auto trees = tree_axis({"TEST_BIN_TINY", "NO_SUCH_TREE"});
  ASSERT_FALSE(trees.has_value());
  EXPECT_NE(trees.error().find("'NO_SUCH_TREE'"), std::string::npos)
      << trees.error();
}

TEST(SweepAxes, StealAxisLabelsByAmountName) {
  const Axis steal =
      steal_axis({ws::StealAmount::kOneChunk, ws::StealAmount::kHalf});
  EXPECT_EQ(steal.name, "steal");
  ASSERT_EQ(steal.points.size(), 2u);
  EXPECT_EQ(steal.points[0].label, "OneChunk");
  EXPECT_EQ(steal.points[1].label, "Half");
  ws::RunConfig cfg = base_config();
  steal.points[1].apply(cfg);
  EXPECT_EQ(cfg.ws.steal_amount, ws::StealAmount::kHalf);
  steal.points[0].apply(cfg);
  EXPECT_EQ(cfg.ws.steal_amount, ws::StealAmount::kOneChunk);
}

TEST(SweepAxes, ShaRoundsAxisSetsTheRoundCount) {
  const Axis rounds = sha_rounds_axis({1, 4});
  EXPECT_EQ(rounds.name, "sha_rounds");
  ASSERT_EQ(rounds.points.size(), 2u);
  EXPECT_EQ(rounds.points[1].label, "4");
  ws::RunConfig cfg = base_config();
  rounds.points[1].apply(cfg);
  EXPECT_EQ(cfg.ws.sha_rounds, 4u);
}

TEST(SweepAxes, LocalTriesAxisSetsTheHierarchicalLocalPicks) {
  const Axis tries = local_tries_axis({1, 8});
  EXPECT_EQ(tries.name, "local_tries");
  ASSERT_EQ(tries.points.size(), 2u);
  EXPECT_EQ(tries.points[0].label, "1");
  ws::RunConfig cfg = base_config();
  tries.points[1].apply(cfg);
  EXPECT_EQ(cfg.ws.hierarchical_local_tries, 8u);
}

TEST(SweepAxes, SimShardsAxisSetsTheShardCount) {
  const Axis shards = sim_shards_axis({1, 4});
  EXPECT_EQ(shards.name, "sim_shards");
  ASSERT_EQ(shards.points.size(), 2u);
  EXPECT_EQ(shards.points[1].label, "4");
  ws::RunConfig cfg = base_config();
  shards.points[1].apply(cfg);
  EXPECT_EQ(cfg.sim_shards, 4u);
}

TEST(SweepAxes, PlacementAxisLabelsPlacementTimesProcs) {
  const Axis alloc = placement_axis({{topo::Placement::kOnePerNode, 1},
                                     {topo::Placement::kRoundRobin, 8},
                                     {topo::Placement::kGrouped, 8}});
  EXPECT_EQ(alloc.name, "placement");
  ASSERT_EQ(alloc.points.size(), 3u);
  EXPECT_EQ(alloc.points[0].label, "1/Nx1");
  EXPECT_EQ(alloc.points[1].label, "RRx8");
  EXPECT_EQ(alloc.points[2].label, "Gx8");
  ws::RunConfig cfg = base_config();
  alloc.points[2].apply(cfg);
  EXPECT_EQ(cfg.placement, topo::Placement::kGrouped);
  EXPECT_EQ(cfg.procs_per_node, 8u);
  alloc.points[0].apply(cfg);
  EXPECT_EQ(cfg.placement, topo::Placement::kOnePerNode);
  EXPECT_EQ(cfg.procs_per_node, 1u);
}

TEST(SweepAxes, SvcArrivalAxisLabelsTheGapInMillis) {
  const Axis arrival = svc_arrival_axis(
      {support::kMillisecond / 2, 3 * support::kMillisecond});
  EXPECT_EQ(arrival.name, "arrival");
  ASSERT_EQ(arrival.points.size(), 2u);
  EXPECT_EQ(arrival.points[0].label, "0.5ms");
  EXPECT_EQ(arrival.points[1].label, "3ms");
  ws::RunConfig cfg = base_config();
  cfg.svc.arrival = svc::ArrivalKind::kTrace;
  arrival.points[1].apply(cfg);
  EXPECT_EQ(cfg.svc.arrival, svc::ArrivalKind::kPoisson);
  EXPECT_EQ(cfg.svc.mean_interarrival, 3 * support::kMillisecond);
}

TEST(SweepAxes, SvcAllocAxisKeepsBlockSizeOnlyForSpaceSharing) {
  const Axis alloc = svc_alloc_axis({{svc::AllocPolicy::kSpaceShare, 16},
                                     {svc::AllocPolicy::kTimeShare, 16}});
  EXPECT_EQ(alloc.name, "alloc");
  ASSERT_EQ(alloc.points.size(), 2u);
  EXPECT_EQ(alloc.points[0].label, "space16");
  EXPECT_EQ(alloc.points[1].label, "time");
  ws::RunConfig cfg = base_config();
  alloc.points[0].apply(cfg);
  EXPECT_EQ(cfg.svc.alloc, svc::AllocPolicy::kSpaceShare);
  EXPECT_EQ(cfg.svc.ranks_per_job, 16u);
  alloc.points[1].apply(cfg);
  EXPECT_EQ(cfg.svc.alloc, svc::AllocPolicy::kTimeShare);
  EXPECT_EQ(cfg.svc.ranks_per_job, 0u);
}

TEST(SweepAxes, SvcMixAxisCarriesEachMix) {
  const Axis mix = svc_mix_axis(
      {{"base", {}},
       {"mixed", {{"TEST_BIN_TINY", 3.0}, {"TEST_BIN_SMALL", 1.0}}}});
  EXPECT_EQ(mix.name, "mix");
  ASSERT_EQ(mix.points.size(), 2u);
  EXPECT_EQ(mix.points[1].label, "mixed");
  ws::RunConfig cfg = base_config();
  mix.points[1].apply(cfg);
  ASSERT_EQ(cfg.svc.mix.size(), 2u);
  EXPECT_EQ(cfg.svc.mix[0].tree, "TEST_BIN_TINY");
  EXPECT_DOUBLE_EQ(cfg.svc.mix[0].weight, 3.0);
  mix.points[0].apply(cfg);
  EXPECT_TRUE(cfg.svc.mix.empty());
}

TEST(SweepAxes, FaultDropAxisLabelsZeroOffAndTheRestInPercent) {
  const Axis drop = fault_drop_axis({0.0, 0.01, 0.25});
  EXPECT_EQ(drop.name, "drop");
  ASSERT_EQ(drop.points.size(), 3u);
  EXPECT_EQ(drop.points[0].label, "off");
  EXPECT_EQ(drop.points[1].label, "1%");
  EXPECT_EQ(drop.points[2].label, "25%");
  ws::RunConfig cfg = base_config();
  drop.points[2].apply(cfg);
  EXPECT_DOUBLE_EQ(cfg.fault.drop_prob, 0.25);
  drop.points[0].apply(cfg);
  EXPECT_DOUBLE_EQ(cfg.fault.drop_prob, 0.0);
}

TEST(SweepAxes, FaultJitterAxisLabelsZeroOffAndTheRestInPercent) {
  const Axis jitter = fault_jitter_axis({0.0, 0.5});
  EXPECT_EQ(jitter.name, "jitter");
  ASSERT_EQ(jitter.points.size(), 2u);
  EXPECT_EQ(jitter.points[0].label, "off");
  EXPECT_EQ(jitter.points[1].label, "50%");
  ws::RunConfig cfg = base_config();
  jitter.points[1].apply(cfg);
  EXPECT_DOUBLE_EQ(cfg.fault.jitter_frac, 0.5);
  EXPECT_DOUBLE_EQ(cfg.fault.drop_prob, 0.0);
}

TEST(SweepAxes, PolicyAxisLabelsByPolicyName) {
  const Axis policy = policy_axis(
      {ws::VictimPolicy::kRoundRobin, ws::VictimPolicy::kTofuSkewed});
  EXPECT_EQ(policy.name, "policy");
  ASSERT_EQ(policy.points.size(), 2u);
  EXPECT_EQ(policy.points[1].label,
            std::string(ws::to_string(ws::VictimPolicy::kTofuSkewed)));
  ws::RunConfig cfg = base_config();
  policy.points[1].apply(cfg);
  EXPECT_EQ(cfg.ws.victim_policy, ws::VictimPolicy::kTofuSkewed);
}

}  // namespace
}  // namespace dws::exp
