#include <gtest/gtest.h>

#include <tuple>

#include "topo/latency.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"
#include "proto/victim.hpp"

namespace dws::ws {
namespace {

/// Tests for the extension features beyond the paper's core experiments:
/// hierarchical victim selection (§VI related work), one-sided steals
/// (§VII future work) and lifeline-based idling (Saraswat et al.).

// --- Hierarchical selector ---

TEST(Hierarchical, LocalPeersAreCoLocatedRanks) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(0, latency, 1);
  EXPECT_EQ(s.local_peers(), 7u);  // the other 7 ranks on node 0
}

TEST(Hierarchical, FallsBackToCubePeersForOnePerNode) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(0, latency, 1);
  EXPECT_EQ(s.local_peers(), 11u);  // the other 11 nodes of the cube
}

TEST(Hierarchical, NeverSelf) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(5, latency, 3);
  for (int i = 0; i < 5000; ++i) ASSERT_NE(s.next(), 5u);
}

TEST(Hierarchical, PrefersLocalOnSchedule) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(0, latency, 7, /*local_tries=*/2);
  int local = 0;
  const int draws = 9000;
  for (int i = 0; i < draws; ++i) {
    if (layout.same_node(0, s.next())) ++local;
  }
  // 2 of every 3 picks are forced local; the remote third sometimes also
  // lands locally (7/63 of the time).
  EXPECT_GT(local, draws * 60 / 100);
  EXPECT_LT(local, draws * 75 / 100);
}

TEST(Hierarchical, RemoteSetStrictlyExcludesLocalPeers) {
  // Regression: the remote fallback used to draw from all N-1 ranks, which
  // double-counted the local set and silently inflated the local fraction.
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(5, latency, 1);
  for (const topo::Rank r : s.remote_set()) {
    EXPECT_NE(r, 5u);
    EXPECT_FALSE(layout.same_node(5, r)) << r;
  }
  for (const topo::Rank r : s.local_set()) EXPECT_NE(r, 5u);
  // local + remote + self partition the job.
  EXPECT_EQ(s.local_set().size() + s.remote_set().size() + 1, 64u);
}

TEST(Hierarchical, MakeSelectorHonorsLocalTries) {
  // Regression: make_selector used to drop WsConfig::hierarchical_local_tries
  // and always build with the default. The schedule is deterministic (N local
  // picks, one remote pick, repeat) and remote picks exclude the local set,
  // so the local fraction is exactly tries/(tries+1).
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kHierarchical;
  const auto local_fraction = [&](std::uint32_t tries) {
    cfg.hierarchical_local_tries = tries;
    auto s = proto::make_selector(cfg, 0, latency);
    int local = 0;
    const int draws = 10000;
    for (int i = 0; i < draws; ++i) {
      if (layout.same_node(0, s->next())) ++local;
    }
    return static_cast<double>(local) / draws;
  };
  EXPECT_DOUBLE_EQ(local_fraction(0), 0.0);
  EXPECT_DOUBLE_EQ(local_fraction(4), 0.8);
  EXPECT_DOUBLE_EQ(local_fraction(1), 0.5);
}

TEST(Hierarchical, MakeSelectorHonorsRemoteTries) {
  // The bounded-remote-tries knob widens the remote slot of the schedule:
  // local_tries local picks then remote_tries remote picks, so the local
  // fraction is exactly local/(local+remote).
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kHierarchical;
  cfg.hierarchical_local_tries = 2;
  const auto local_fraction = [&](std::uint32_t remote) {
    cfg.hierarchical_remote_tries = remote;
    auto s = proto::make_selector(cfg, 0, latency);
    int local = 0;
    const int draws = 12000;
    for (int i = 0; i < draws; ++i) {
      if (layout.same_node(0, s->next())) ++local;
    }
    return static_cast<double>(local) / draws;
  };
  EXPECT_DOUBLE_EQ(local_fraction(1), 2.0 / 3.0);  // the historical schedule
  EXPECT_DOUBLE_EQ(local_fraction(2), 0.5);
  EXPECT_DOUBLE_EQ(local_fraction(6), 0.25);
}

TEST(Hierarchical, RemotePhaseCoversAllRanks) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 32, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::HierarchicalSelector s(0, latency, 11);
  std::vector<bool> seen(32, false);
  for (int i = 0; i < 20000; ++i) seen[s.next()] = true;
  for (topo::Rank r = 1; r < 32; ++r) EXPECT_TRUE(seen[r]) << r;
}

// --- Full-run conservation across every extension config ---

using ExtParam = std::tuple<VictimPolicy, StealAmount, IdlePolicy, bool>;

class ExtensionOracle : public ::testing::TestWithParam<ExtParam> {};

TEST_P(ExtensionOracle, ConservesNodeCount) {
  const auto& [policy, amount, idle, one_sided] = GetParam();
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 16;
  cfg.ws.victim_policy = policy;
  cfg.ws.steal_amount = amount;
  cfg.ws.idle_policy = idle;
  cfg.ws.one_sided_steals = one_sided;
  cfg.ws.lifeline_tries = 3;
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ExtensionOracle,
    ::testing::Combine(
        ::testing::Values(VictimPolicy::kRandom, VictimPolicy::kTofuSkewed,
                          VictimPolicy::kHierarchical,
                          VictimPolicy::kAdaptive),
        ::testing::Values(StealAmount::kOneChunk, StealAmount::kHalf),
        ::testing::Values(IdlePolicy::kPersistentSteal, IdlePolicy::kLifeline),
        ::testing::Bool()));

// --- Lifeline behaviour ---

TEST(Lifeline, RegistrationsAndPushesHappen) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 64;
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.idle_policy = IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 2;
  const auto result = run_simulation(cfg);
  std::uint64_t registrations = 0;
  std::uint64_t pushes = 0;
  for (const auto& r : result.per_rank) {
    registrations += r.lifeline_registrations;
    pushes += r.lifeline_pushes;
  }
  EXPECT_GT(registrations, 0u);
  EXPECT_GT(pushes, 0u);
}

TEST(Lifeline, CutsSteadyStateStealTraffic) {
  // Dormant ranks stop hammering victims: failed steals drop vs persistent
  // stealing on the same configuration.
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 128;
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.chunk_size = 4;
  cfg.ws.idle_policy = IdlePolicy::kPersistentSteal;
  const auto persistent = run_simulation(cfg);
  cfg.ws.idle_policy = IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 4;
  const auto lifeline = run_simulation(cfg);
  EXPECT_LT(lifeline.stats.failed_steals, persistent.stats.failed_steals / 2);
  EXPECT_EQ(lifeline.nodes, persistent.nodes);
}

TEST(Lifeline, NoLifelinesDegeneratesToTwoRanks) {
  // N = 2: the single lifeline buddy is the only victim anyway; the run must
  // still terminate and conserve.
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = 2;
  cfg.ws.idle_policy = IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 1;
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
}

TEST(Lifeline, SurvivesStarvedEnding) {
  // Star tree: after the initial burst there is never surplus again, so
  // dormant ranks must be released purely by termination.
  RunConfig cfg;
  cfg.tree.name = "star";
  cfg.tree.root_seed = 4;
  cfg.tree.root_branching = 40;
  cfg.tree.q = 0.0;
  cfg.num_ranks = 24;
  cfg.ws.idle_policy = IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 1;
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, 41u);
}

// --- Steal-distance metric ---

TEST(StealDistance, TofuStealsNearerThanRand) {
  // The mechanism behind the paper's fix, measured directly: under the
  // skewed selection, successful steals travel a shorter physical distance.
  auto mean_distance = [](VictimPolicy policy) {
    RunConfig cfg;
    cfg.tree = uts::tree_by_name("SIM200K");
    cfg.num_ranks = 128;
    cfg.ws.chunk_size = 4;
    cfg.ws.victim_policy = policy;
    cfg.ws.steal_amount = StealAmount::kHalf;
    const auto r = run_simulation(cfg);
    EXPECT_GT(r.stats.successful_steals, 0u);
    return r.stats.mean_steal_distance;
  };
  const double tofu = mean_distance(VictimPolicy::kTofuSkewed);
  const double rand = mean_distance(VictimPolicy::kRandom);
  // Successful steals concentrate around work sources under *both* policies
  // (work lives somewhere specific), so at this small scale the contrast is
  // modest but strictly ordered; it widens with the allocation's diameter
  // (see bench/extension_strategies). Both runs are deterministic.
  EXPECT_LT(tofu, rand);
}

TEST(StealDistance, ZeroWithoutSteals) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = 1;
  const auto r = run_simulation(cfg);
  EXPECT_DOUBLE_EQ(r.stats.mean_steal_distance, 0.0);
}

// --- One-sided steals ---

TEST(OneSided, ConservesAndTerminates) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 12;
  cfg.ws.one_sided_steals = true;
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
}

TEST(OneSided, ShortensSearchTime) {
  // Requests no longer wait for the victim's poll boundary: the average
  // steal round trip (and with it the search time) shrinks.
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 64;
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.chunk_size = 4;
  cfg.ws.one_sided_steals = false;
  const auto two_sided = run_simulation(cfg);
  cfg.ws.one_sided_steals = true;
  const auto one_sided = run_simulation(cfg);
  EXPECT_LT(one_sided.stats.mean_search_time_s, two_sided.stats.mean_search_time_s);
  EXPECT_EQ(one_sided.nodes, two_sided.nodes);
}

TEST(OneSided, HelpsRuntimeAtScale) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 128;
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.chunk_size = 4;
  const auto two_sided = run_simulation(cfg);
  cfg.ws.one_sided_steals = true;
  const auto one_sided = run_simulation(cfg);
  EXPECT_LE(one_sided.runtime, two_sided.runtime);
}

}  // namespace
}  // namespace dws::ws
