#include "ws/scheduler.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "uts/sequential.hpp"

// Parameter printers: ctest names carry the printed value.
namespace dws::proto {
void PrintTo(VictimPolicy p, std::ostream* os) { *os << to_string(p); }
void PrintTo(StealAmount a, std::ostream* os) { *os << to_string(a); }
}  // namespace dws::proto

namespace dws::topo {
void PrintTo(Placement p, std::ostream* os) { *os << to_string(p); }
}  // namespace dws::topo

namespace dws::ws {
namespace {

RunConfig base_config(const std::string& tree, topo::Rank ranks) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name(tree);
  cfg.num_ranks = ranks;
  return cfg;
}

TEST(Scheduler, SingleRankEnumeratesWholeTree) {
  auto cfg = base_config("TEST_BIN_SMALL", 1);
  const auto result = run_simulation(cfg);
  const auto seq = uts::enumerate_sequential(cfg.tree);
  EXPECT_EQ(result.nodes, seq.nodes);
  EXPECT_EQ(result.leaves, seq.leaves);
  // Alone, runtime is exactly nodes * node cost: speedup 1.
  EXPECT_EQ(result.runtime, result.sequential_time());
  EXPECT_DOUBLE_EQ(result.speedup(), 1.0);
  EXPECT_EQ(result.stats.failed_steals, 0u);
  EXPECT_EQ(result.stats.chunks_sent, 0u);
}

TEST(Scheduler, TwoRanksConserveNodeCount) {
  auto cfg = base_config("TEST_BIN_SMALL", 2);
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
  EXPECT_GT(result.per_rank[1].nodes_processed, 0u);  // work actually moved
  EXPECT_GT(result.stats.chunks_sent, 0u);
}

TEST(Scheduler, RunIsDeterministic) {
  auto cfg = base_config("TEST_BIN_SMALL", 8);
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  const auto a = run_simulation(cfg);
  const auto b = run_simulation(cfg);
  EXPECT_EQ(a.runtime, b.runtime);
  EXPECT_EQ(a.nodes, b.nodes);
  EXPECT_EQ(a.stats.failed_steals, b.stats.failed_steals);
  EXPECT_EQ(a.engine_events, b.engine_events);
  for (std::size_t r = 0; r < a.per_rank.size(); ++r) {
    ASSERT_EQ(a.per_rank[r].nodes_processed, b.per_rank[r].nodes_processed);
  }
}

TEST(Scheduler, SeedChangesRandomScheduleButNotTotals) {
  auto cfg = base_config("TEST_BIN_SMALL", 8);
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.seed = 1;
  const auto a = run_simulation(cfg);
  cfg.ws.seed = 2;
  const auto b = run_simulation(cfg);
  EXPECT_EQ(a.nodes, b.nodes);  // same tree regardless of schedule
  EXPECT_NE(a.runtime, b.runtime);  // but a different interleaving
}

TEST(Scheduler, SpeedupGrowsWithRanks) {
  auto cfg = base_config("TEST_BIN_SMALL", 2);
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  const auto two = run_simulation(cfg);
  cfg.num_ranks = 8;
  const auto eight = run_simulation(cfg);
  EXPECT_GT(two.speedup(), 1.2);
  EXPECT_GT(eight.speedup(), two.speedup());
}

TEST(Scheduler, TraceRecordsActivity) {
  auto cfg = base_config("TEST_BIN_TINY", 4);
  const auto result = run_simulation(cfg);
  ASSERT_EQ(result.trace.num_ranks(), 4u);
  EXPECT_EQ(result.trace.total_time, result.runtime);
  // Rank 0 began active at t = 0.
  EXPECT_EQ(result.trace.ranks[0].events()[0].phase, metrics::Phase::kIdle);
  ASSERT_GE(result.trace.ranks[0].events().size(), 2u);
  EXPECT_EQ(result.trace.ranks[0].events()[1].phase, metrics::Phase::kActive);
  EXPECT_EQ(result.trace.ranks[0].events()[1].time, 0);
  // Everyone idle at the end.
  for (const auto& t : result.trace.ranks) {
    EXPECT_EQ(t.phase_at_end(), metrics::Phase::kIdle);
  }
}

TEST(Scheduler, TraceDisabledLeavesTraceEmpty) {
  auto cfg = base_config("TEST_BIN_TINY", 4);
  cfg.ws.record_trace = false;
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.trace.num_ranks(), 0u);
}

TEST(Scheduler, SearchAndSessionStatsPopulated) {
  auto cfg = base_config("TEST_BIN_SMALL", 8);
  const auto result = run_simulation(cfg);
  EXPECT_GT(result.stats.sessions, 0u);
  EXPECT_GT(result.stats.mean_session_ms, 0.0);
  EXPECT_GT(result.stats.mean_search_time_s, 0.0);
  EXPECT_GE(result.stats.max_search_time_s, result.stats.mean_search_time_s);
  // Every rank has at least its initial session.
  for (topo::Rank r = 1; r < 8; ++r) {
    EXPECT_GE(result.per_rank[r].sessions, 1u) << r;
  }
}

TEST(Scheduler, GranularityScalesRuntime) {
  auto cfg = base_config("TEST_BIN_SMALL", 4);
  cfg.ws.sha_rounds = 1;
  const auto fine = run_simulation(cfg);
  cfg.ws.sha_rounds = 8;
  const auto coarse = run_simulation(cfg);
  // Same tree, ~8x the per-node compute.
  EXPECT_EQ(fine.nodes, coarse.nodes);
  EXPECT_GT(coarse.runtime, 4 * fine.runtime);
}

TEST(Scheduler, StealHalfMovesMoreChunksPerSteal) {
  auto cfg = base_config("TEST_BIN_SMALL", 8);
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.steal_amount = StealAmount::kOneChunk;
  const auto one = run_simulation(cfg);
  cfg.ws.steal_amount = StealAmount::kHalf;
  const auto half = run_simulation(cfg);
  const double one_ratio = static_cast<double>(one.stats.chunks_sent) /
                           static_cast<double>(one.stats.successful_steals);
  const double half_ratio = static_cast<double>(half.stats.chunks_sent) /
                            static_cast<double>(half.stats.successful_steals);
  EXPECT_DOUBLE_EQ(one_ratio, 1.0);
  EXPECT_GT(half_ratio, 1.0);
}

TEST(Scheduler, NetworkTrafficAccounted) {
  auto cfg = base_config("TEST_BIN_SMALL", 8);
  const auto result = run_simulation(cfg);
  EXPECT_GT(result.network.messages, 0u);
  EXPECT_GT(result.network.bytes, 0u);
  // At least: every steal attempt = request + response.
  EXPECT_GE(result.network.messages, 2 * result.stats.steal_attempts);
}

TEST(Scheduler, EightPerNodePlacementsRun) {
  for (auto placement : {topo::Placement::kRoundRobin, topo::Placement::kGrouped}) {
    auto cfg = base_config("TEST_BIN_SMALL", 16);
    cfg.placement = placement;
    cfg.procs_per_node = 8;
    const auto result = run_simulation(cfg);
    EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes)
        << to_string(placement);
  }
}

/// The master correctness oracle (DESIGN.md §6 invariant 1-2): every
/// (tree, ranks, policy, amount, placement) combination processes exactly
/// the sequential node count — termination never drops in-flight work and
/// chunks never duplicate.
using OracleParam =
    std::tuple<std::string, topo::Rank, VictimPolicy, StealAmount,
               topo::Placement, std::uint32_t /*procs_per_node*/>;

class SchedulerOracle : public ::testing::TestWithParam<OracleParam> {};

TEST_P(SchedulerOracle, NodeCountMatchesSequential) {
  const auto& [tree, ranks, policy, amount, placement, ppn] = GetParam();
  RunConfig cfg;
  cfg.tree = uts::tree_by_name(tree);
  cfg.num_ranks = ranks;
  cfg.ws.victim_policy = policy;
  cfg.ws.steal_amount = amount;
  cfg.placement = placement;
  cfg.procs_per_node = ppn;
  const auto result = run_simulation(cfg);
  const auto seq = uts::enumerate_sequential(cfg.tree);
  EXPECT_EQ(result.nodes, seq.nodes);
  EXPECT_EQ(result.leaves, seq.leaves);
}

/// Stable test names: the tree, ranks, policy, amount, placement and ppn.
std::string oracle_name(const ::testing::TestParamInfo<OracleParam>& p) {
  const auto& [tree, ranks, policy, amount, placement, ppn] = p.param;
  std::string name = tree + "_" + std::to_string(ranks) + "_" +
                     to_string(policy) + "_" + to_string(amount) + "_" +
                     to_string(placement) + "_ppn" + std::to_string(ppn);
  // Test names allow only letters, digits and '_' ("1/N" becomes "1N").
  std::erase_if(name, [](char ch) {
    return std::isalnum(static_cast<unsigned char>(ch)) == 0 && ch != '_';
  });
  return name;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SchedulerOracle,
    ::testing::Values(
        OracleParam{"TEST_BIN_TINY", 2, VictimPolicy::kRoundRobin,
                    StealAmount::kOneChunk, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_TINY", 13, VictimPolicy::kRandom,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_SMALL", 4, VictimPolicy::kRoundRobin,
                    StealAmount::kOneChunk, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_SMALL", 4, VictimPolicy::kRoundRobin,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_SMALL", 7, VictimPolicy::kRandom,
                    StealAmount::kOneChunk, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_SMALL", 16, VictimPolicy::kRandom,
                    StealAmount::kHalf, topo::Placement::kGrouped, 8},
        OracleParam{"TEST_BIN_SMALL", 16, VictimPolicy::kTofuSkewed,
                    StealAmount::kOneChunk, topo::Placement::kRoundRobin, 8},
        OracleParam{"TEST_BIN_SMALL", 32, VictimPolicy::kTofuSkewed,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_BIN_WIDE", 8, VictimPolicy::kTofuSkewed,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_GEO_EXP", 8, VictimPolicy::kRandom,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_GEO_CYC", 6, VictimPolicy::kRoundRobin,
                    StealAmount::kOneChunk, topo::Placement::kOnePerNode, 1},
        OracleParam{"TEST_HYBRID", 12, VictimPolicy::kTofuSkewed,
                    StealAmount::kHalf, topo::Placement::kOnePerNode, 1}),
    oracle_name);

/// Same oracle across many seeds: shakes out rare interleavings in the
/// termination protocol (in-flight work when the token passes, etc).
class SchedulerSeedSweep : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SchedulerSeedSweep, ConservationHoldsForAnySeed) {
  RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 12;
  cfg.ws.victim_policy = VictimPolicy::kRandom;
  cfg.ws.steal_amount = StealAmount::kHalf;
  cfg.ws.seed = GetParam();
  const auto result = run_simulation(cfg);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SchedulerSeedSweep,
                         ::testing::Range<std::uint64_t>(1, 33));

/// Work and span laws: no schedule of a tree on p ranks finishes before its
/// busiest rank has expanded its nodes one per node cost (so never before
/// T1/p), nor before the deepest root-to-leaf chain has been expanded node
/// after node — a child exists only once its parent's expansion is done.
/// Root height is 0, so a chain to height D holds D + 1 nodes.
class SchedulingLaws : public ::testing::TestWithParam<const char*> {};

TEST_P(SchedulingLaws, MakespanRespectsWorkAndSpan) {
  const auto seq = uts::enumerate_sequential(uts::tree_by_name(GetParam()));
  for (const topo::Rank ranks : {4u, 32u}) {
    for (const auto policy :
         {VictimPolicy::kRoundRobin, VictimPolicy::kTofuSkewed}) {
      for (const auto amount : {StealAmount::kOneChunk, StealAmount::kHalf}) {
        auto cfg = base_config(GetParam(), ranks);
        cfg.ws.victim_policy = policy;
        cfg.ws.steal_amount = amount;
        const auto r = run_simulation(cfg);
        const support::SimTime c = r.per_node_cost;
        ASSERT_GT(c, 0);
        ASSERT_EQ(r.nodes, seq.nodes);

        std::uint64_t busiest = 0;
        for (const auto& rs : r.per_rank) {
          busiest = std::max(busiest, rs.nodes_processed);
        }
        const auto at = [&] {
          return std::to_string(ranks) + "/" + to_string(policy) + "/" +
                 to_string(amount);
        };
        EXPECT_GE(r.runtime, static_cast<support::SimTime>(busiest) * c)
            << at();
        EXPECT_GE(r.runtime * static_cast<support::SimTime>(ranks),
                  r.sequential_time())
            << at();
        EXPECT_GE(r.runtime,
                  static_cast<support::SimTime>(seq.max_depth + 1) * c)
            << at();
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Trees, SchedulingLaws,
                         ::testing::Values("TEST_BIN_TINY", "TEST_BIN_SMALL",
                                           "TEST_BIN_WIDE", "TEST_GEO_LIN",
                                           "TEST_GEO_FIX", "TEST_GEO_EXP",
                                           "TEST_GEO_CYC", "TEST_HYBRID",
                                           "SIM200K"));

}  // namespace
}  // namespace dws::ws
