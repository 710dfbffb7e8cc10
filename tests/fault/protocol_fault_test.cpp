#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "audit/audit.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "fault/fault.hpp"
#include "proto/observer.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

/// End-to-end tests of the steal protocol under injected faults
/// (DESIGN.md §10): fixed-seed replay is byte-identical, every recovery
/// path (steal timeout/retry, duplicate discard, token regeneration)
/// terminates with exact work conservation, and the records round-trip the
/// fault counters.
namespace dws::fault {
namespace {

ws::RunConfig faulted_base() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 16;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.steal_amount = ws::StealAmount::kOneChunk;
  cfg.ws.steal_timeout = 200 * support::kMicrosecond;
  cfg.ws.token_timeout = 2 * support::kMillisecond;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  cfg.fault.drop_prob = 0.01;
  cfg.fault.jitter_frac = 0.10;
  cfg.fault.straggler_ranks = 1;
  cfg.fault.seed = 7;
  return cfg;
}

std::string run_jsonl(const ws::RunConfig& cfg) {
  exp::SweepSpec spec(cfg);
  spec.axis(exp::ranks_axis({cfg.num_ranks}));
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);
  exp::RunnerOptions options;
  options.threads = 1;
  options.progress = false;
  const exp::SweepReport report = exp::SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.all_ok());
  std::ostringstream out;
  exp::RecordWriter writer(
      out, exp::RecordOptions{exp::RecordFormat::kJsonl, /*wall_clock=*/false});
  writer.write_report(expanded.value(), report);
  return out.str();
}

TEST(FaultedRun, FixedSeedReplayIsByteIdentical) {
  const ws::RunConfig cfg = faulted_base();
  const std::string first = run_jsonl(cfg);
  const std::string second = run_jsonl(cfg);
  EXPECT_FALSE(first.empty());
  EXPECT_EQ(first, second);
}

TEST(FaultedRun, DifferentFaultSeedsProduceDifferentSchedules) {
  ws::RunConfig a = faulted_base();
  ws::RunConfig b = faulted_base();
  a.fault.drop_prob = b.fault.drop_prob = 0.05;  // enough activity to diverge
  b.fault.seed = 1234;
  const ws::RunResult ra = ws::run_simulation(a);
  const ws::RunResult rb = ws::run_simulation(b);
  EXPECT_EQ(ra.nodes, rb.nodes);  // work is conserved either way
  EXPECT_NE(ra.runtime, rb.runtime);
}

TEST(FaultedRun, AuditedRunConservesWorkAndMessages) {
  const audit::AuditedResult audited =
      audit::audited_run(faulted_base(), audit::AuditConfig{});
  EXPECT_TRUE(audited.report.ok()) << audited.report.summary();
  EXPECT_EQ(audited.result.nodes,
            uts::enumerate_sequential(faulted_base().tree).nodes);
}

TEST(FaultedRun, LostTokenIsRegeneratedAndTerminationStillHolds) {
  // High loss on a small ring: scan a few fault seeds until the termination
  // token itself gets dropped, then demand the regenerated probe finishes
  // the run with the ledger intact.
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = 8;
  cfg.ws.chunk_size = 2;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.steal_timeout = 100 * support::kMicrosecond;
  cfg.ws.token_timeout = 500 * support::kMicrosecond;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  cfg.fault.drop_prob = 0.30;

  bool regenerated = false;
  for (std::uint64_t seed = 1; seed <= 64 && !regenerated; ++seed) {
    cfg.fault.seed = seed;
    const audit::AuditedResult audited =
        audit::audited_run(cfg, audit::AuditConfig{});
    ASSERT_TRUE(audited.report.ok())
        << "fault seed " << seed << ": " << audited.report.summary();
    ASSERT_EQ(audited.result.nodes,
              uts::enumerate_sequential(cfg.tree).nodes);
    regenerated = audited.result.stats.token_regens > 0;
  }
  EXPECT_TRUE(regenerated)
      << "no fault seed in [1,64] dropped the termination token";
}

TEST(StealTimeout, AggressiveTimerRetriesAndTheRunStillTerminates) {
  // A 200 ns steal timeout sits well under the network round-trip, so most
  // requests are abandoned and retried; the late answers are banked. No
  // faults — this exercises the timer path in isolation. (Timers far below
  // this model a retransmission storm: the duplicate requests congest the
  // victim's channel, which raises latency, which fires more timers — runs
  // stay finite but virtual time diverges, so keep the timer near the RTT.)
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 8;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.steal_timeout = 200;
  cfg.ws.steal_retry_max = 4;
  cfg.ws.steal_backoff = 2.0;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;

  const audit::AuditedResult audited =
      audit::audited_run(cfg, audit::AuditConfig{});
  EXPECT_TRUE(audited.report.ok()) << audited.report.summary();
  EXPECT_EQ(audited.result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
  EXPECT_GT(audited.result.stats.steal_timeouts, 0u);
  EXPECT_GT(audited.result.stats.steal_retries, 0u);
  EXPECT_EQ(audited.report.steal_timeouts,
            audited.result.stats.steal_timeouts);
}

TEST(StealTimeout, GenerousTimerNeverFiresOnAHealthyNetwork) {
  ws::RunConfig cfg = faulted_base();
  cfg.fault = FaultConfig{};                      // no faults
  cfg.ws.steal_timeout = 10 * support::kMillisecond;  // far above any RTT
  const ws::RunResult result = ws::run_simulation(cfg);
  EXPECT_EQ(result.stats.steal_timeouts, 0u);
  EXPECT_EQ(result.stats.steal_retries, 0u);
  EXPECT_EQ(result.stats.token_regens, 0u);
}

TEST(Duplicates, NetworkDuplicatedResponsesAreDiscardedOnce) {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 8;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  cfg.fault.dup_prob = 0.40;

  bool saw_duplicate = false;
  for (std::uint64_t seed = 1; seed <= 16 && !saw_duplicate; ++seed) {
    cfg.fault.seed = seed;
    const audit::AuditedResult audited =
        audit::audited_run(cfg, audit::AuditConfig{});
    ASSERT_TRUE(audited.report.ok())
        << "fault seed " << seed << ": " << audited.report.summary();
    ASSERT_EQ(audited.result.nodes,
              uts::enumerate_sequential(cfg.tree).nodes);
    saw_duplicate = audited.result.stats.duplicate_responses > 0;
  }
  EXPECT_TRUE(saw_duplicate)
      << "no fault seed in [1,16] duplicated a steal response";
}

TEST(Duplicates, RetryAfterDuplicateResponseStaysConsistent) {
  // Duplication plus an aggressive timer: a thief can abandon a request,
  // retry, then see both copies of the original answer. The first copy is
  // banked as a late answer, the second discarded as a duplicate.
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 8;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.steal_timeout = 500;  // under the RTT: timeouts race the duplicates
  cfg.ws.steal_retry_max = 3;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  cfg.fault.dup_prob = 0.30;

  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    cfg.fault.seed = seed;
    const audit::AuditedResult audited =
        audit::audited_run(cfg, audit::AuditConfig{});
    ASSERT_TRUE(audited.report.ok())
        << "fault seed " << seed << ": " << audited.report.summary();
    ASSERT_EQ(audited.result.nodes,
              uts::enumerate_sequential(cfg.tree).nodes);
  }
}

/// Counts the discarded duplicates that carried work: copies of a batch
/// whose first copy some thief accepted.
class WorkDuplicateCounter final : public proto::RunObserver {
 public:
  void on_duplicate_response(topo::Rank, std::uint64_t chunks,
                             std::uint64_t) override {
    if (chunks > 0) ++work_duplicates;
  }
  std::uint64_t work_duplicates = 0;
};

/// Duplicated work-carrying responses: both copies carry one ChunkBatch
/// handle, the accepted copy takes the payload and the other reads only the
/// counts. The run driver checks that the payload store is empty at the
/// end, next to chunks_sent == chunks_received, and aborts otherwise, so a
/// returned run proves every payload was taken exactly once. At 2 shards
/// half the steals, and their duplicates, cross a shard mailbox.
void expect_duplicated_work_conserved(std::uint32_t shards) {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 16;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  cfg.sim_shards = shards;
  cfg.fault.dup_prob = 0.5;
  cfg.fault.seed = 3;

  const audit::AuditedResult audited =
      audit::audited_run(cfg, audit::AuditConfig{});
  ASSERT_TRUE(audited.report.ok()) << audited.report.summary();
  const ws::RunResult& result = audited.result;
  EXPECT_EQ(result.shards_used, shards);
  EXPECT_EQ(result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
  EXPECT_GT(result.stats.duplicate_responses, 0u);
  std::uint64_t chunks_received = 0;
  for (const metrics::RankStats& r : result.per_rank) {
    chunks_received += r.chunks_received;
  }
  EXPECT_GT(result.stats.chunks_sent, 0u);
  EXPECT_EQ(result.stats.chunks_sent, chunks_received);

  WorkDuplicateCounter counter;
  const ws::RunResult observed = ws::run_simulation(cfg, &counter);
  EXPECT_GT(counter.work_duplicates, 0u)
      << "no duplicated response carried work";
  EXPECT_EQ(observed.stats.duplicate_responses,
            result.stats.duplicate_responses);
}

TEST(DuplicatedWork, SerialRunTakesEachPayloadOnce) {
  expect_duplicated_work_conserved(1);
}

TEST(DuplicatedWork, TwoShardRunTakesEachPayloadOnce) {
  expect_duplicated_work_conserved(2);
}

TEST(RecordSchema, V3RoundTripsTheFaultCounters) {
  const ws::RunConfig cfg = faulted_base();
  const ws::RunResult result = ws::run_simulation(cfg);
  ASSERT_GT(result.faults.dropped_messages + result.faults.duplicated_messages,
            0u);

  std::istringstream in(run_jsonl(cfg));
  const auto file = exp::read_records(in);
  ASSERT_TRUE(file) << file.error();
  EXPECT_EQ(file.value().version, exp::kRecordSchemaVersion);
  ASSERT_EQ(file.value().records.size(), 1u);
  const exp::SweepRecord& rec = file.value().records.front();
  EXPECT_EQ(rec.steal_timeouts, result.stats.steal_timeouts);
  EXPECT_EQ(rec.steal_retries, result.stats.steal_retries);
  EXPECT_EQ(rec.token_regens, result.stats.token_regens);
  EXPECT_EQ(rec.net_drops, result.faults.dropped_messages);
  EXPECT_EQ(rec.net_dups, result.faults.duplicated_messages);
}

}  // namespace
}  // namespace dws::fault
