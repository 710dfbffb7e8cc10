#include "metrics/rank_stats.hpp"

#include <gtest/gtest.h>

namespace dws::metrics {
namespace {

TEST(Accumulate, SumsCountersAndKeepsTheLaterFinish) {
  RankStats a;
  a.nodes_processed = 3;
  a.amount_switches = 2;
  a.steal_distance_sum = 1.5;
  a.total_search_time = 10;
  a.finish_time = 40;
  RankStats b;
  b.nodes_processed = 4;
  b.amount_switches = 5;
  b.steal_distance_sum = 0.5;
  b.total_search_time = 7;
  b.finish_time = 30;
  accumulate(a, b);
  EXPECT_EQ(a.nodes_processed, 7u);
  EXPECT_EQ(a.amount_switches, 7u);
  EXPECT_DOUBLE_EQ(a.steal_distance_sum, 2.0);
  EXPECT_EQ(a.total_search_time, 17);
  EXPECT_EQ(a.finish_time, 40);
}

TEST(Aggregate, SumsCounters) {
  std::vector<RankStats> ranks(3);
  ranks[0].nodes_processed = 100;
  ranks[1].nodes_processed = 200;
  ranks[2].nodes_processed = 300;
  ranks[0].failed_steals = 5;
  ranks[2].failed_steals = 7;
  ranks[1].steal_attempts = 11;
  ranks[0].chunks_sent = 2;
  const auto job = aggregate(ranks);
  EXPECT_EQ(job.nodes_processed, 600u);
  EXPECT_EQ(job.failed_steals, 12u);
  EXPECT_EQ(job.steal_attempts, 11u);
  EXPECT_EQ(job.chunks_sent, 2u);
}

TEST(Aggregate, MeanSessionDuration) {
  std::vector<RankStats> ranks(2);
  ranks[0].sessions = 2;
  ranks[0].total_session_time = 4 * support::kMillisecond;
  ranks[1].sessions = 2;
  ranks[1].total_session_time = 8 * support::kMillisecond;
  const auto job = aggregate(ranks);
  EXPECT_EQ(job.sessions, 4u);
  EXPECT_DOUBLE_EQ(job.mean_session_ms, 3.0);
}

TEST(Aggregate, NoSessionsMeansZeroMean) {
  std::vector<RankStats> ranks(2);
  const auto job = aggregate(ranks);
  EXPECT_DOUBLE_EQ(job.mean_session_ms, 0.0);
}

TEST(Aggregate, SearchTimeMeanAndMax) {
  std::vector<RankStats> ranks(4);
  ranks[0].total_search_time = 1 * support::kSecond;
  ranks[1].total_search_time = 2 * support::kSecond;
  ranks[2].total_search_time = 3 * support::kSecond;
  ranks[3].total_search_time = 2 * support::kSecond;
  const auto job = aggregate(ranks);
  EXPECT_DOUBLE_EQ(job.mean_search_time_s, 2.0);
  EXPECT_DOUBLE_EQ(job.max_search_time_s, 3.0);
}

}  // namespace
}  // namespace dws::metrics
