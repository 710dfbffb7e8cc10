/// End-to-end tests of svc::run_service (DESIGN.md §13): the single-job
/// degenerate case against the sequential oracle, space-share FIFO queueing,
/// elastic time-share lease hand-offs, the validate() screen for ill-formed
/// service configs, and the fingerprint contract (svc knobs key the
/// canonical config only when the service layer is on).
#include <algorithm>
#include <cstdint>
#include <string>

#include <gtest/gtest.h>

#include "exp/record.hpp"
#include "svc/service.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

namespace dws::svc {
namespace {

ws::RunConfig service_base(topo::Rank ranks) {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = ranks;
  cfg.ws.chunk_size = 2;
  cfg.svc.enabled = true;
  cfg.svc.seed = 9;
  return cfg;
}

TEST(Service, SingleJobDegenerateCaseMatchesSequentialOracle) {
  // One job, arriving at t=0, granted the whole pool: the service layer must
  // collapse to an ordinary single-tree run whose totals equal the tree's
  // sequential enumeration.
  ws::RunConfig cfg = service_base(8);
  cfg.svc.arrival = ArrivalKind::kTrace;
  cfg.svc.trace = {0};
  cfg.svc.alloc = AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 8;

  const ws::RunResult r = checked_service_run(cfg);
  ASSERT_EQ(r.jobs.size(), 1u);
  const metrics::JobOutcome& job = r.jobs[0];
  EXPECT_EQ(job.job_id, 0u);
  EXPECT_EQ(job.base, 0u);
  EXPECT_EQ(job.width, 8u);
  EXPECT_EQ(job.arrival, 0);
  EXPECT_GE(job.first_compute, job.admit);
  EXPECT_EQ(job.finish, r.runtime);

  // The run-level aggregates are exactly this one job's work.
  EXPECT_EQ(r.nodes, job.nodes);
  EXPECT_EQ(r.leaves, job.leaves);

  uts::TreeParams tree = cfg.tree;
  tree.root_seed = static_cast<std::uint32_t>(job.root_seed);
  const uts::TreeStats seq =
      uts::enumerate_sequential(tree, job.nodes + 1);
  EXPECT_FALSE(seq.truncated);
  EXPECT_EQ(seq.nodes, job.nodes);
  EXPECT_EQ(seq.leaves, job.leaves);
}

TEST(Service, SpaceShareQueuesFifoWhenNoBlockIsFree) {
  // 8 ranks / 4 per job = 2 blocks; 4 simultaneous arrivals. Jobs 0 and 1
  // take the blocks, jobs 2 and 3 wait for a completion (FIFO), and every
  // block is one of the two fixed partitions.
  ws::RunConfig cfg = service_base(8);
  cfg.svc.arrival = ArrivalKind::kTrace;
  cfg.svc.trace = {0, 0, 0, 0};
  cfg.svc.alloc = AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 4;

  const ws::RunResult r = checked_service_run(cfg);
  ASSERT_EQ(r.jobs.size(), 4u);
  support::SimTime earliest_finish = r.jobs[0].finish;
  for (const auto& job : r.jobs) {
    EXPECT_EQ(job.width, 4u);
    EXPECT_TRUE(job.base == 0 || job.base == 4) << job.base;
    EXPECT_GE(job.queue_wait(), 0);
    earliest_finish = std::min(earliest_finish, job.finish);
  }
  // The first two arrivals are admitted immediately; the overflow jobs only
  // after a block frees up.
  EXPECT_LT(r.jobs[0].admit, earliest_finish);
  EXPECT_LT(r.jobs[1].admit, earliest_finish);
  EXPECT_GE(r.jobs[2].admit, earliest_finish);
  EXPECT_GE(r.jobs[3].admit, earliest_finish);
  EXPECT_GT(r.jobs[3].queue_wait(), 0);
}

TEST(Service, TimeShareShrinksLeasesAndRelinquishesWork) {
  // Staggered arrivals into a time-shared pool: job 0 spreads over all 8
  // ranks, then loses half its lease when job 1 arrives. Parked ranks that
  // still hold chunks must relinquish them (shipped as lifeline pushes), and
  // the checked run's per-job oracle proves none of that work was lost.
  ws::RunConfig cfg = service_base(8);
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.svc.arrival = ArrivalKind::kTrace;
  cfg.svc.trace = {0, 400'000, 800'000};
  cfg.svc.alloc = AllocPolicy::kTimeShare;

  const ws::RunResult r = checked_service_run(cfg);
  ASSERT_EQ(r.jobs.size(), 3u);
  std::uint64_t relinquishes = 0;
  for (const auto& rs : r.per_rank) relinquishes += rs.lifeline_pushes;
  EXPECT_GT(relinquishes, 0u) << "no lease shrink ever shipped work";
  for (const auto& job : r.jobs) {
    EXPECT_EQ(job.base, 0u);  // time sharing binds every job to all ranks
    EXPECT_EQ(job.width, 8u);
    EXPECT_GE(job.makespan(), 0);
  }
}

TEST(Service, AmountSwitchesReachTheRunStats) {
  // Adaptive steal amount in every job of a space-shared stream: each rank's
  // row folds its jobs' switch counters like every other RankStats field,
  // so the run-level total is their sum and not 0.
  ws::RunConfig cfg = service_base(64);
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.svc.arrival = ArrivalKind::kPoisson;
  cfg.svc.num_jobs = 8;
  cfg.svc.mean_interarrival = 300'000;
  cfg.svc.alloc = AllocPolicy::kSpaceShare;
  cfg.svc.ranks_per_job = 16;
  cfg.ws.victim_policy = ws::VictimPolicy::kAdaptive;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  cfg.ws.adaptive_steal_amount = true;

  const ws::RunResult r = checked_service_run(cfg);
  std::uint64_t per_rank = 0;
  for (const auto& rs : r.per_rank) per_rank += rs.amount_switches;
  EXPECT_GT(r.stats.amount_switches, 0u);
  EXPECT_EQ(r.stats.amount_switches, per_rank);
}

TEST(Service, ValidateScreensIllFormedServiceConfigs) {
  ws::RunConfig good = service_base(8);
  good.svc.arrival = ArrivalKind::kPoisson;
  good.svc.num_jobs = 4;
  good.svc.mean_interarrival = 500'000;
  good.svc.alloc = AllocPolicy::kSpaceShare;
  good.svc.ranks_per_job = 4;
  ASSERT_TRUE(static_cast<bool>(good.validate()));

  {
    ws::RunConfig bad = good;
    bad.backend = ws::Backend::kRt;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.ws.one_sided_steals = true;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.ws.idle_policy = ws::IdlePolicy::kLifeline;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    // Adaptive feedback composes with space sharing (disjoint rank sets keep
    // the EWMAs honest) but not with time-share leases, where parked ranks
    // refuse every steal and poison the per-victim state.
    ws::RunConfig adaptive = good;
    adaptive.ws.victim_policy = ws::VictimPolicy::kAdaptive;
    EXPECT_TRUE(static_cast<bool>(adaptive.validate()));
    adaptive.svc.alloc = AllocPolicy::kTimeShare;
    EXPECT_FALSE(static_cast<bool>(adaptive.validate()));
    ws::RunConfig amount = good;
    amount.svc.alloc = AllocPolicy::kTimeShare;
    amount.ws.adaptive_steal_amount = true;
    EXPECT_FALSE(static_cast<bool>(amount.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.num_jobs = 0;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.mean_interarrival = 0;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.arrival = ArrivalKind::kTrace;
    bad.svc.trace.clear();
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.arrival = ArrivalKind::kTrace;
    bad.svc.trace = {0, 100};
    bad.svc.num_jobs = 3;  // contradicts the trace length
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.ranks_per_job = 3;  // 8 % 3 != 0
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.mix = {{"TEST_BIN_TINY", 0.0}};
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = good;
    bad.svc.mix = {{"NO_SUCH_TREE", 1.0}};
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
}

TEST(Service, ServiceKnobsKeyTheFingerprintOnlyWhenEnabled) {
  ws::RunConfig off;
  off.tree = uts::tree_by_name("TEST_BIN_TINY");
  off.num_ranks = 8;
  // svc.* must not leak into disabled configs: their canonical form (and so
  // every pre-existing fingerprint) is unchanged by the service fields.
  ws::RunConfig off_touched = off;
  off_touched.svc.seed = 999;
  off_touched.svc.num_jobs = 7;
  EXPECT_EQ(exp::canonical_config(off), exp::canonical_config(off_touched));
  EXPECT_EQ(std::string::npos, exp::canonical_config(off).find("svc."));

  ws::RunConfig on = service_base(8);
  on.svc.arrival = ArrivalKind::kPoisson;
  on.svc.num_jobs = 4;
  on.svc.mean_interarrival = 500'000;
  on.svc.alloc = AllocPolicy::kSpaceShare;
  on.svc.ranks_per_job = 4;
  EXPECT_NE(std::string::npos, exp::canonical_config(on).find("svc.seed"));
  EXPECT_NE(exp::config_fingerprint(off), exp::config_fingerprint(on));

  ws::RunConfig reseeded = on;
  reseeded.svc.seed = 10;
  EXPECT_NE(exp::config_fingerprint(on), exp::config_fingerprint(reseeded));

  // sim_shards stays an execution strategy for service runs too.
  ws::RunConfig sharded = on;
  sharded.sim_shards = 8;
  EXPECT_EQ(exp::config_fingerprint(on), exp::config_fingerprint(sharded));
}

}  // namespace
}  // namespace dws::svc
