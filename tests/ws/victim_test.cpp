#include "proto/victim.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <latch>
#include <map>
#include <set>
#include <thread>
#include <type_traits>
#include <vector>

#include "uts/params.hpp"
#include "ws/scheduler.hpp"

namespace dws::ws {
namespace {

class VictimTest : public ::testing::Test {
 protected:
  topo::TofuMachine machine_;
};

TEST_F(VictimTest, RoundRobinStartsAtNeighbour) {
  proto::RoundRobinSelector s(3, 8);
  EXPECT_EQ(s.next(), 4u);
  EXPECT_EQ(s.next(), 5u);
  EXPECT_EQ(s.next(), 6u);
  EXPECT_EQ(s.next(), 7u);
  EXPECT_EQ(s.next(), 0u);
  EXPECT_EQ(s.next(), 1u);
  EXPECT_EQ(s.next(), 2u);
  // Skips self and wraps.
  EXPECT_EQ(s.next(), 4u);
}

TEST_F(VictimTest, RoundRobinLastRankWrapsToZero) {
  proto::RoundRobinSelector s(7, 8);
  EXPECT_EQ(s.next(), 0u);
  EXPECT_EQ(s.next(), 1u);
}

TEST_F(VictimTest, RoundRobinNeverReturnsSelf) {
  proto::RoundRobinSelector s(2, 4);
  for (int i = 0; i < 100; ++i) EXPECT_NE(s.next(), 2u);
}

TEST_F(VictimTest, RoundRobinTwoRanks) {
  proto::RoundRobinSelector s(0, 2);
  EXPECT_EQ(s.next(), 1u);
  EXPECT_EQ(s.next(), 1u);
}

TEST_F(VictimTest, UniformNeverReturnsSelfAndCoversAll) {
  proto::UniformRandomSelector s(5, 16, 42);
  std::set<topo::Rank> seen;
  for (int i = 0; i < 2000; ++i) {
    const auto v = s.next();
    ASSERT_NE(v, 5u);
    ASSERT_LT(v, 16u);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 15u);
}

TEST_F(VictimTest, UniformIsRoughlyUniform) {
  proto::UniformRandomSelector s(0, 8, 1);
  std::map<topo::Rank, int> counts;
  const int draws = 70000;
  for (int i = 0; i < draws; ++i) ++counts[s.next()];
  for (const auto& [rank, count] : counts) {
    EXPECT_NEAR(count, draws / 7.0, draws / 7.0 * 0.06) << rank;
  }
}

TEST_F(VictimTest, UniformDifferentRanksGetDifferentStreams) {
  proto::UniformRandomSelector a(0, 1024, 7);
  proto::UniformRandomSelector b(1, 1024, 7);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST_F(VictimTest, TofuSelectorUsesAliasTableBelowThreshold) {
  topo::JobLayout layout(machine_, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(0, latency, 1, 2048);
  EXPECT_TRUE(s.uses_alias_table());
}

TEST_F(VictimTest, TofuSelectorUsesRejectionAboveThreshold) {
  topo::JobLayout layout(machine_, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(0, latency, 1, 32);
  EXPECT_FALSE(s.uses_alias_table());
}

TEST_F(VictimTest, TofuNeverReturnsSelf) {
  topo::JobLayout layout(machine_, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  for (std::uint32_t threshold : {2048u, 8u}) {
    proto::TofuSkewedSelector s(7, latency, 3, threshold);
    for (int i = 0; i < 5000; ++i) ASSERT_NE(s.next(), 7u);
  }
}

TEST_F(VictimTest, TofuProbabilitiesSumToOne) {
  topo::JobLayout layout(machine_, 96, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(0, latency, 1, 2048);
  double sum = 0.0;
  for (topo::Rank j = 0; j < 96; ++j) sum += s.probability(j);
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.probability(0), 0.0);
}

TEST_F(VictimTest, TofuPrefersCloseVictims) {
  topo::JobLayout layout(machine_, 1024, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(0, latency, 1, 2048);
  // Rank 1 shares the cube with rank 0; rank 1023 is across the allocation.
  EXPECT_GT(s.probability(1), s.probability(1023));
  // Empirically: nearby ranks drawn far more often.
  std::uint64_t near = 0;
  std::uint64_t far = 0;
  for (int i = 0; i < 20000; ++i) {
    const auto v = s.next();
    if (latency.euclidean(0, v) <= 2.0) ++near;
    if (latency.euclidean(0, v) >= 6.0) ++far;
  }
  EXPECT_GT(near, far);
}

TEST_F(VictimTest, TofuSampleFrequenciesMatchProbabilities) {
  topo::JobLayout layout(machine_, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(3, latency, 9, 2048);
  std::vector<int> counts(48, 0);
  const int draws = 480000;
  for (int i = 0; i < draws; ++i) ++counts[s.next()];
  for (topo::Rank j = 0; j < 48; ++j) {
    const double expected = s.probability(j) * draws;
    EXPECT_NEAR(counts[j], expected, 5.0 * std::sqrt(expected + 1.0)) << j;
  }
}

/// The load-bearing equivalence for DESIGN.md's substitution: the alias and
/// rejection backends draw from the same distribution.
TEST_F(VictimTest, AliasAndRejectionBackendsAgree) {
  topo::JobLayout layout(machine_, 96, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector alias(0, latency, 11, 2048);
  proto::TofuSkewedSelector rejection(0, latency, 12, 8);
  ASSERT_TRUE(alias.uses_alias_table());
  ASSERT_FALSE(rejection.uses_alias_table());
  std::vector<int> ca(96, 0);
  std::vector<int> cr(96, 0);
  const int draws = 480000;
  for (int i = 0; i < draws; ++i) {
    ++ca[alias.next()];
    ++cr[rejection.next()];
  }
  for (topo::Rank j = 1; j < 96; ++j) {
    const double e = alias.probability(j) * draws;
    EXPECT_NEAR(ca[j], e, 5.0 * std::sqrt(e + 1.0)) << j;
    EXPECT_NEAR(cr[j], e, 5.0 * std::sqrt(e + 1.0)) << j;
  }
}

TEST_F(VictimTest, TofuSameNodeRanksGetWeightOne) {
  // With 8 ranks per node grouped, ranks 1..7 are co-located with rank 0:
  // e = 0 -> w = 1, the paper's special case.
  topo::JobLayout layout(machine_, 64, topo::Placement::kGrouped, 8);
  topo::LatencyModel latency(layout);
  proto::TofuSkewedSelector s(0, latency, 5, 2048);
  // All co-located ranks share the maximal probability.
  const double p1 = s.probability(1);
  for (topo::Rank j = 2; j < 8; ++j) EXPECT_DOUBLE_EQ(s.probability(j), p1);
  for (topo::Rank j = 8; j < 64; ++j) EXPECT_LE(s.probability(j), p1);
}

TEST_F(VictimTest, FactoryBuildsConfiguredPolicy) {
  topo::JobLayout layout(machine_, 16, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kRoundRobin;
  auto rr = proto::make_selector(cfg, 2, latency);
  EXPECT_EQ(rr->next(), 3u);
  cfg.victim_policy = VictimPolicy::kRandom;
  auto rnd = proto::make_selector(cfg, 2, latency);
  for (int i = 0; i < 50; ++i) EXPECT_NE(rnd->next(), 2u);
  cfg.victim_policy = VictimPolicy::kTofuSkewed;
  auto tofu = proto::make_selector(cfg, 2, latency);
  for (int i = 0; i < 50; ++i) EXPECT_NE(tofu->next(), 2u);
}

/// Regression for the alias/rejection substitution at run level: two
/// thresholds that resolve to the SAME backend must replay the exact same
/// schedule — the threshold itself is not allowed to perturb anything.
TEST_F(VictimTest, SameTofuBackendIsRunLevelDeterministic) {
  ws::RunConfig base;
  base.tree = uts::tree_by_name("TEST_BIN_SMALL");
  base.num_ranks = 8;
  base.ws.chunk_size = 4;
  base.ws.victim_policy = VictimPolicy::kTofuSkewed;
  base.placement = topo::Placement::kOnePerNode;
  base.procs_per_node = 1;

  ws::RunConfig a = base;
  a.ws.alias_table_max_ranks = 16;
  ws::RunConfig b = base;
  b.ws.alias_table_max_ranks = 1024;
  ASSERT_TRUE(proto::tofu_uses_alias(a.ws, a.num_ranks));
  ASSERT_TRUE(proto::tofu_uses_alias(b.ws, b.num_ranks));

  const RunResult ra = run_simulation(a);
  const RunResult rb = run_simulation(b);
  EXPECT_EQ(ra.runtime, rb.runtime);
  EXPECT_EQ(ra.nodes, rb.nodes);
  EXPECT_EQ(ra.stats.successful_steals, rb.stats.successful_steals);
  EXPECT_EQ(ra.stats.failed_steals, rb.stats.failed_steals);

  // The rejection backend samples the same distribution but with a different
  // draw stream; the run must still conserve the tree exactly.
  ws::RunConfig c = base;
  c.ws.alias_table_max_ranks = 4;
  ASSERT_FALSE(proto::tofu_uses_alias(c.ws, c.num_ranks));
  EXPECT_EQ(run_simulation(c).nodes, ra.nodes);
}

TEST_F(VictimTest, PolicyNamesMatchPaper) {
  EXPECT_STREQ(to_string(VictimPolicy::kRoundRobin), "Reference");
  EXPECT_STREQ(to_string(VictimPolicy::kRandom), "Rand");
  EXPECT_STREQ(to_string(VictimPolicy::kTofuSkewed), "Tofu");
  EXPECT_STREQ(to_string(VictimPolicy::kAdaptive), "Adaptive");
  EXPECT_STREQ(to_string(StealAmount::kHalf), "Half");
}

// ---------------------------------------------------------------------------
// Adaptive feedback selector (DESIGN.md §14)
// ---------------------------------------------------------------------------

// The rejection backend's weight function points back at the selector.
static_assert(!std::is_copy_constructible_v<proto::AdaptiveSkewedSelector> &&
              !std::is_move_constructible_v<proto::AdaptiveSkewedSelector>);

TEST_F(VictimTest, AdaptiveNeverReturnsSelfOnEitherBackend) {
  topo::JobLayout layout(machine_, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  for (std::uint32_t threshold : {2048u, 1u}) {
    cfg.alias_table_max_ranks = threshold;
    proto::AdaptiveSkewedSelector s(7, latency, 3, cfg);
    EXPECT_EQ(s.uses_alias_table(), threshold == 2048u);
    for (int i = 0; i < 5000; ++i) ASSERT_NE(s.next(), 7u);
  }
}

TEST_F(VictimTest, AdaptiveDownWeightsVictimsThatStopResponding) {
  topo::JobLayout layout(machine_, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  cfg.adapt_refresh_interval = 1;  // alias table tracks every feedback step
  proto::AdaptiveSkewedSelector s(0, latency, 1, cfg);

  const double p_before = s.probability(1);
  // Victim 1 times out repeatedly at 50 µs while victim 2 (same distance
  // class) keeps answering at the fabric round trip.
  for (int i = 0; i < 12; ++i) {
    s.on_steal_result(1, false, 50'000);
    s.on_steal_result(2, true, 1'000);
  }
  EXPECT_LT(s.probability(1), p_before);
  EXPECT_GT(s.probability(2), s.probability(1));

  double success_ewma = 0.0;
  double rtt_ewma = 0.0;
  ASSERT_TRUE(s.ewma_snapshot(1, &success_ewma, &rtt_ewma));
  EXPECT_LT(success_ewma, 0.05);  // 0.75^12
  EXPECT_GT(rtt_ewma, 40'000.0);
  // Feedback-free ranks and self stay out of the snapshot surface.
  EXPECT_FALSE(s.ewma_snapshot(0, &success_ewma, &rtt_ewma));
  EXPECT_TRUE(s.ewma_snapshot(63, &success_ewma, &rtt_ewma));
  EXPECT_DOUBLE_EQ(success_ewma, 1.0);  // optimistic init, never tried
}

TEST_F(VictimTest, AdaptiveFeedbackStateIsBackendIndependent) {
  // The EWMA state is a pure function of the feedback sequence: the alias
  // and rejection backends — different draw streams — must hold identical
  // snapshots and identical live probabilities after the same history.
  topo::JobLayout layout(machine_, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  cfg.alias_table_max_ranks = 2048;
  proto::AdaptiveSkewedSelector alias(3, latency, 7, cfg);
  cfg.alias_table_max_ranks = 1;
  proto::AdaptiveSkewedSelector rejection(3, latency, 7, cfg);
  ASSERT_TRUE(alias.uses_alias_table());
  ASSERT_FALSE(rejection.uses_alias_table());

  for (int i = 0; i < 200; ++i) {
    const topo::Rank victim = (i * 13 + 1) % 64 == 3 ? 5 : (i * 13 + 1) % 64;
    const bool success = i % 3 != 0;
    const support::SimTime rtt = 500 + 37 * (i % 11);
    alias.on_steal_result(victim, success, rtt);
    rejection.on_steal_result(victim, success, rtt);
  }
  for (topo::Rank j = 0; j < 64; ++j) {
    EXPECT_DOUBLE_EQ(alias.probability(j), rejection.probability(j)) << j;
    double sa = 0.0, ra = 0.0, sr = 0.0, rr = 0.0;
    const bool ha = alias.ewma_snapshot(j, &sa, &ra);
    const bool hr = rejection.ewma_snapshot(j, &sr, &rr);
    ASSERT_EQ(ha, hr) << j;
    if (ha) {
      EXPECT_DOUBLE_EQ(sa, sr) << j;
      EXPECT_DOUBLE_EQ(ra, rr) << j;
    }
  }
}

TEST_F(VictimTest, AdaptiveSampleFrequenciesTrackTheLiveWeights) {
  // With refresh_interval = 1 the alias table is rebuilt on every feedback,
  // so both backends must sample the live probability() distribution even
  // after the weights have been skewed away from the Tofu base.
  topo::JobLayout layout(machine_, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  cfg.adapt_refresh_interval = 1;
  for (std::uint32_t threshold : {2048u, 1u}) {
    cfg.alias_table_max_ranks = threshold;
    proto::AdaptiveSkewedSelector s(3, latency, 9, cfg);
    for (int i = 0; i < 8; ++i) {
      s.on_steal_result(1, false, 50'000);
      s.on_steal_result(10, true, 800);
    }
    std::vector<int> counts(48, 0);
    const int draws = 480000;
    for (int i = 0; i < draws; ++i) ++counts[s.next()];
    for (topo::Rank j = 0; j < 48; ++j) {
      const double expected = s.probability(j) * draws;
      EXPECT_NEAR(counts[j], expected, 5.0 * std::sqrt(expected + 1.0))
          << "threshold=" << threshold << " victim=" << j;
    }
  }
}

TEST_F(VictimTest, AdaptiveRejectionBackendFoldsFeedbackIntoTheNextDraw) {
  // The rejection backend's weight function reads the live feedback state,
  // so no rebuild stands between feedback and the draws; the alias backend
  // samples its last table until adapt_refresh_interval feedback events.
  topo::JobLayout layout(machine_, 48, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  cfg.adapt_refresh_interval = 1000;
  for (std::uint32_t threshold : {2048u, 1u}) {
    cfg.alias_table_max_ranks = threshold;
    proto::AdaptiveSkewedSelector s(3, latency, 9, cfg);
    std::vector<double> before(48);
    for (topo::Rank j = 0; j < 48; ++j) before[j] = s.probability(j);
    for (int i = 0; i < 8; ++i) {
      s.on_steal_result(1, false, 50'000);
      s.on_steal_result(10, true, 800);
    }
    ASSERT_LT(s.probability(1), before[1] / 2.0);
    std::vector<int> counts(48, 0);
    const int draws = 240000;
    for (int i = 0; i < draws; ++i) ++counts[s.next()];
    for (topo::Rank j = 0; j < 48; ++j) {
      const double p = threshold == 1u ? s.probability(j) : before[j];
      const double expected = p * draws;
      EXPECT_NEAR(counts[j], expected, 5.0 * std::sqrt(expected + 1.0))
          << "threshold=" << threshold << " victim=" << j;
    }
  }
}

/// Pins the first draws of both skewed selectors on both sampling backends,
/// on 1/N and 8G layouts and several thief ranks. No golden record holds a
/// Tofu run, so this is what holds the draw streams fixed across refactors
/// of the sampling layer: the hashes were captured before the rejection
/// loops were shared and the alias table lost its normalised copy. The three
/// 8G Tofu alias rows were taken again when that backend became a two-stage
/// draw (node, then rank within it); at 1/N every node holds one rank, so
/// the two-stage draw is the old stream there and its rows held. Adaptive
/// gets scripted feedback after every draw and refreshes its alias table
/// every three feedback events.
TEST_F(VictimTest, SkewedDrawStreamsArePinned) {
  struct Case {
    topo::Placement placement;
    topo::Rank self;
    VictimPolicy policy;
    bool alias;
    std::uint64_t hash;
  };
  constexpr auto k1N = topo::Placement::kOnePerNode;
  constexpr auto k8G = topo::Placement::kGrouped;
  constexpr auto kTofu = VictimPolicy::kTofuSkewed;
  constexpr auto kAdaptive = VictimPolicy::kAdaptive;
  const Case cases[] = {
      {k1N, 0, kTofu, true, 0xe048c30df1c681efull},
      {k1N, 0, kTofu, false, 0xf801c5faa5ac2c2aull},
      {k1N, 0, kAdaptive, true, 0xac19e3d8102596d4ull},
      {k1N, 0, kAdaptive, false, 0xab1dd428678be8a1ull},
      {k1N, 77, kTofu, true, 0x22b6968589fa61f9ull},
      {k1N, 77, kTofu, false, 0x8cd00aacaeed97cdull},
      {k1N, 77, kAdaptive, true, 0xbb9be0ac7e4bcb4bull},
      {k1N, 77, kAdaptive, false, 0xbd58400a5125ed5dull},
      {k1N, 255, kTofu, true, 0x93a3f03cd2b22331ull},
      {k1N, 255, kTofu, false, 0x991f779d1a504af2ull},
      {k1N, 255, kAdaptive, true, 0xa6b1c52bf0ee152dull},
      {k1N, 255, kAdaptive, false, 0x7a77029cc3442376ull},
      {k8G, 0, kTofu, true, 0xa095f389d4ca937dull},
      {k8G, 0, kTofu, false, 0xb7b5cd6a189a9f45ull},
      {k8G, 0, kAdaptive, true, 0xacd201c55edabda8ull},
      {k8G, 0, kAdaptive, false, 0x311eaddcc724d6c6ull},
      {k8G, 77, kTofu, true, 0x367f92aa37d3386full},
      {k8G, 77, kTofu, false, 0x2851bce0656fddcfull},
      {k8G, 77, kAdaptive, true, 0xf2fed7761299339dull},
      {k8G, 77, kAdaptive, false, 0x1144ab43cf0872b6ull},
      {k8G, 255, kTofu, true, 0x1ca2631ce20f71ebull},
      {k8G, 255, kTofu, false, 0x946d98b4b66c71d6ull},
      {k8G, 255, kAdaptive, true, 0x7790c98d0fc1f523ull},
      {k8G, 255, kAdaptive, false, 0xa422f46e0e1f8800ull},
  };

  constexpr topo::Rank kRanks = 256;
  constexpr int kDraws = 3000;
  for (const Case& c : cases) {
    topo::JobLayout layout(machine_, kRanks, c.placement,
                           c.placement == k1N ? 1u : 8u);
    topo::LatencyModel latency(layout);
    WsConfig cfg;
    cfg.victim_policy = c.policy;
    cfg.seed = 17;
    cfg.alias_table_max_ranks = c.alias ? kRanks : 1;
    cfg.adapt_refresh_interval = 3;
    auto s = proto::make_selector(cfg, c.self, latency);
    std::uint64_t hash = 0xcbf29ce484222325ull;  // FNV-1a over the victims
    for (int i = 0; i < kDraws; ++i) {
      const topo::Rank v = s->next();
      hash = (hash ^ v) * 0x100000001b3ull;
      const support::SimTime rtt = i % 17 == 0 ? 0 : 400 + 53 * (i % 13);
      s->on_steal_result(v, i % 4 != 0, rtt);
    }
    EXPECT_EQ(hash, c.hash)
        << to_string(c.policy) << (c.alias ? " alias " : " rejection ")
        << (c.placement == k1N ? "1/N" : "8G") << " self " << c.self
        << ": 0x" << std::hex << hash;
  }
}

/// svc's shard threads and rt's rank threads build selectors concurrently on
/// one LatencyModel, whose node tables are built on first use. Four threads
/// building every rank's selector at once, each starting at a different
/// node, must draw exactly what a serial build on its own model draws.
TEST_F(VictimTest, ConcurrentTofuBuildsMatchSerialBuilds) {
  constexpr topo::Rank kRanks = 256;
  constexpr std::uint32_t kThreads = 4;
  constexpr int kDraws = 200;
  const topo::JobLayout layout(machine_, kRanks, topo::Placement::kGrouped, 8);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kTofuSkewed;
  cfg.seed = 23;
  const auto stream = [&](const topo::LatencyModel& latency, topo::Rank r) {
    auto s = proto::make_selector(cfg, r, latency);
    std::uint64_t hash = 0xcbf29ce484222325ull;
    for (int i = 0; i < kDraws; ++i) {
      hash = (hash ^ s->next()) * 0x100000001b3ull;
    }
    return hash;
  };

  const topo::LatencyModel serial_model(layout);
  std::vector<std::uint64_t> serial(kRanks);
  for (topo::Rank r = 0; r < kRanks; ++r) serial[r] = stream(serial_model, r);

  const topo::LatencyModel shared_model(layout);
  std::vector<std::vector<std::uint64_t>> got(
      kThreads, std::vector<std::uint64_t>(kRanks));
  std::latch start(kThreads);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      start.arrive_and_wait();
      for (topo::Rank i = 0; i < kRanks; ++i) {
        const topo::Rank r = (i + t * kRanks / kThreads) % kRanks;
        got[t][r] = stream(shared_model, r);
      }
    });
  }
  for (auto& th : threads) th.join();
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got[t], serial) << "thread " << t;
  }
}

TEST_F(VictimTest, FactoryBuildsAdaptiveSelector) {
  topo::JobLayout layout(machine_, 16, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);
  WsConfig cfg;
  cfg.victim_policy = VictimPolicy::kAdaptive;
  auto s = proto::make_selector(cfg, 2, latency);
  for (int i = 0; i < 50; ++i) EXPECT_NE(s->next(), 2u);
  // The factory product carries the feedback seam, not just the base class.
  s->on_steal_result(1, false, 10'000);
  double success_ewma = 0.0;
  double rtt_ewma = 0.0;
  EXPECT_TRUE(s->ewma_snapshot(1, &success_ewma, &rtt_ewma));
  EXPECT_DOUBLE_EQ(success_ewma, 1.0 - cfg.adapt_decay);
  EXPECT_DOUBLE_EQ(rtt_ewma, 10'000.0);
}

}  // namespace
}  // namespace dws::ws
