// dws::rt native-runtime tests. Real threads on a possibly single-core CI
// host, so trees are small (TEST_BIN_* ~ 200..5k nodes) and nothing asserts
// on wall-clock magnitudes — only on conservation, protocol ledgers, and the
// audit verdict. Scheduling nondeterminism is the point: every run takes a
// different interleaving through the same proto::Peer state machine, and the
// oracles below must hold on all of them.
#include "rt/runtime.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>
#include <tuple>

#include "audit/audit.hpp"
#include "exp/runner.hpp"
#include "proto/observer.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

namespace dws::proto {
// Parameter printers: ctest names carry the printed value.
void PrintTo(VictimPolicy p, std::ostream* os) { *os << to_string(p); }
void PrintTo(StealAmount a, std::ostream* os) { *os << to_string(a); }
}  // namespace dws::proto

namespace dws::rt {
namespace {

ws::RunConfig small_config(topo::Rank ranks, const char* tree = "TEST_BIN_SMALL") {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name(tree);
  cfg.num_ranks = ranks;
  cfg.backend = ws::Backend::kRt;
  return cfg;
}

void expect_conserved(const ws::RunConfig& cfg, const ws::RunResult& r) {
  const auto oracle = uts::enumerate_sequential(cfg.tree);
  EXPECT_EQ(r.nodes, oracle.nodes);
  EXPECT_EQ(r.leaves, oracle.leaves);
  EXPECT_EQ(r.num_ranks, cfg.num_ranks);

  std::uint64_t nodes = 0, chunks_sent = 0, chunks_received = 0;
  for (const auto& rs : r.per_rank) {
    nodes += rs.nodes_processed;
    chunks_sent += rs.chunks_sent;
    chunks_received += rs.chunks_received;
  }
  EXPECT_EQ(nodes, oracle.nodes);
  EXPECT_EQ(chunks_sent, chunks_received);
  EXPECT_GT(r.runtime, 0);
  // Measured, not configured: total busy time / nodes expanded.
  EXPECT_GT(r.per_node_cost, 0);
}

TEST(RtRuntime, SingleRankMatchesTheSequentialOracle) {
  const ws::RunConfig cfg = small_config(1);
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);
  EXPECT_EQ(r.per_rank.size(), 1u);
  EXPECT_EQ(r.per_rank[0].steal_attempts, 0u);
  EXPECT_EQ(r.network.messages, 0u);
}

TEST(RtRuntime, FourThreadsConserveNodesAndChunks) {
  const ws::RunConfig cfg = small_config(4);
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);
  // Termination needs at least one full token circulation.
  std::uint64_t attempts = 0;
  for (const auto& rs : r.per_rank) attempts += rs.steal_attempts;
  EXPECT_GT(attempts, 0u);
  EXPECT_GT(r.network.messages, 0u);
}

TEST(RtRuntime, RepeatedRunsConserveUnderEveryInterleaving) {
  const ws::RunConfig cfg = small_config(3, "TEST_BIN_TINY");
  for (int i = 0; i < 8; ++i) {
    expect_conserved(cfg, run_native(cfg));
  }
}

TEST(RtRuntime, StealAndTokenTimersFireSafelyOnRealThreads) {
  // Timers aggressive enough to actually fire under oversubscription; the
  // abandoned-request banking and token generation filters must keep every
  // node exactly-once regardless of how many fire.
  ws::RunConfig cfg = small_config(4);
  cfg.ws.steal_timeout = 20'000;  // 20 us — spurious timeouts guaranteed
  cfg.ws.steal_retry_max = 2;
  cfg.ws.token_timeout = 200'000;  // 200 us
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);
}

TEST(RtRuntime, LifelineIdlePolicyConservesOnRealThreads) {
  ws::RunConfig cfg = small_config(4);
  cfg.ws.idle_policy = proto::IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 2;
  expect_conserved(cfg, run_native(cfg));
}

TEST(RtRuntime, StealHalfAndRandomVictimsConserve) {
  ws::RunConfig cfg = small_config(4);
  cfg.ws.victim_policy = proto::VictimPolicy::kRandom;
  cfg.ws.steal_amount = proto::StealAmount::kHalf;
  expect_conserved(cfg, run_native(cfg));
}

TEST(RtRuntime, AdaptiveSelectionConservesOnRealThreads) {
  // The feedback seam is backend-agnostic: note_steal_result fires from the
  // same Peer code paths the simulator drives, so adaptive selection plus
  // yield-keyed amount switching must conserve under real-thread timing too.
  ws::RunConfig cfg = small_config(4);
  cfg.ws.victim_policy = proto::VictimPolicy::kAdaptive;
  cfg.ws.steal_amount = proto::StealAmount::kHalf;
  cfg.ws.adaptive_steal_amount = true;
  expect_conserved(cfg, run_native(cfg));
}

TEST(RtRuntime, AuditedAdaptiveNativeRunPassesEveryFamily) {
  // Audited variant: EWMA snapshots flow through the LockedObserver, and the
  // fresh-selector sampling distribution must satisfy the chi-square screen.
  ws::RunConfig cfg = small_config(2);
  cfg.ws.victim_policy = proto::VictimPolicy::kAdaptive;
  const audit::AuditedResult ar = audit::audited_run(cfg);
  EXPECT_TRUE(ar.report.ok()) << ar.report.summary();
  expect_conserved(cfg, ar.result);
}

TEST(RtRuntime, AuditedNativeRunPassesEveryFamily) {
  // The full work/message/clock/distribution auditor rides the LockedObserver
  // seam; its per-node fingerprint ledger is the strongest exactly-once
  // check we have, now applied to a genuinely concurrent execution.
  const ws::RunConfig cfg = small_config(2);
  const audit::AuditedResult ar = audit::audited_run(cfg);
  EXPECT_TRUE(ar.report.ok()) << ar.report.summary();
  EXPECT_GT(ar.report.nodes_expanded, 0u);
  // A refusal may still be in flight when rank 0 terminates (the thief gets
  // Terminate first and its channel drains unread), so sent >= received.
  EXPECT_GE(ar.report.responses_sent, ar.report.responses_received);
  expect_conserved(cfg, ar.result);
}

TEST(RtRuntime, RunBackendDispatchesOnTheConfig) {
  ws::RunConfig cfg = small_config(2);
  const ws::RunResult native = exp::run_backend(cfg);
  cfg.backend = ws::Backend::kSim;
  const ws::RunResult sim1 = exp::run_backend(cfg);
  const ws::RunResult sim2 = exp::run_backend(cfg);
  // Same tree either way; only the sim is bit-reproducible.
  EXPECT_EQ(native.nodes, sim1.nodes);
  EXPECT_EQ(sim1.runtime, sim2.runtime);
  EXPECT_EQ(sim1.stats.steal_attempts, sim2.stats.steal_attempts);
}

TEST(RtRuntime, ValidateRejectsWhatTheRuntimeCannotHonour) {
  ws::RunConfig cfg = small_config(2);
  cfg.fault.drop_prob = 0.1;
  cfg.ws.steal_timeout = 1'000'000;
  cfg.ws.token_timeout = 1'000'000;
  EXPECT_FALSE(cfg.validate().is_ok());  // faults are a simulator model

  ws::RunConfig one_sided = small_config(2);
  one_sided.ws.one_sided_steals = true;
  EXPECT_FALSE(one_sided.validate().is_ok());

  ws::RunConfig plain = small_config(2);
  EXPECT_TRUE(plain.validate().is_ok());
}

TEST(RtRuntime, WorkActuallyDistributes) {
  const ws::RunConfig cfg = small_config(4, "SIM200K");
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);
  int ranks_with_work = 0;
  for (const auto& rs : r.per_rank) {
    if (rs.nodes_processed > 0) ++ranks_with_work;
  }
  // On a single-core host the OS may schedule so few quanta to late threads
  // that only some of them win steals; two is the robust lower bound.
  EXPECT_GE(ranks_with_work, 2);
}

TEST(RtRuntime, StealsHappen) {
  const ws::RunConfig cfg = small_config(4, "SIM200K");
  const ws::RunResult r = run_native(cfg);
  std::uint64_t steals = 0, chunks = 0;
  for (const auto& rs : r.per_rank) {
    steals += rs.successful_steals;
    chunks += rs.chunks_received;
  }
  EXPECT_GT(steals, 0u);
  // Every successful steal carries at least one chunk.
  EXPECT_GE(chunks, steals);
}

TEST(RtRuntime, ObserverSeesEveryExpansionOnce) {
  // The LockedObserver forwards hooks from every rank thread: the counts it
  // delivers must match the run's own ledger exactly.
  struct Counter final : proto::RunObserver {
    std::uint64_t roots = 0, expanded = 0, leaves = 0, terminations = 0;
    std::uint64_t finishes = 0;
    void on_root(topo::Rank, const uts::TreeNode&) override { ++roots; }
    void on_node_expanded(topo::Rank, const uts::TreeNode&,
                          std::uint32_t children) override {
      ++expanded;
      if (children == 0) ++leaves;
    }
    void on_termination(support::SimTime) override { ++terminations; }
    void on_finish(topo::Rank, support::SimTime) override { ++finishes; }
  } counter;
  const ws::RunConfig cfg = small_config(4);
  const ws::RunResult r = run_native(cfg, &counter);
  expect_conserved(cfg, r);
  EXPECT_EQ(counter.roots, 1u);
  EXPECT_EQ(counter.expanded, r.nodes);
  EXPECT_EQ(counter.leaves, r.leaves);
  EXPECT_EQ(counter.terminations, 1u);
  EXPECT_EQ(counter.finishes, cfg.num_ranks);
}

TEST(RtRuntime, TraceIsWellFormedAndEndsIdle) {
  ws::RunConfig cfg = small_config(4);
  cfg.ws.record_trace = true;
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);
  ASSERT_EQ(r.trace.num_ranks(), cfg.num_ranks);
  EXPECT_EQ(r.trace.total_time, r.runtime);
  support::SimTime active = 0;
  for (const auto& t : r.trace.ranks) {
    const auto& events = t.events();
    ASSERT_FALSE(events.empty());
    for (std::size_t i = 1; i < events.size(); ++i) {
      EXPECT_LE(events[i - 1].time, events[i].time);
      // Consecutive duplicates are collapsed, so phases alternate.
      EXPECT_NE(events[i - 1].phase, events[i].phase);
    }
    // Every rank went idle before rank 0 could prove termination.
    EXPECT_LE(events.back().time, r.runtime);
    EXPECT_EQ(t.phase_at_end(), metrics::Phase::kIdle);
    active += t.active_time(r.runtime);
  }
  EXPECT_GT(active, 0);
}

/// Every victim policy and steal amount on real threads: the tree is the
/// same, and the per-rank steal ledger stays consistent.
class NativePolicies
    : public ::testing::TestWithParam<
          std::tuple<proto::VictimPolicy, proto::StealAmount>> {};

TEST_P(NativePolicies, ConserveAndKeepTheStealLedger) {
  ws::RunConfig cfg = small_config(4);
  cfg.ws.victim_policy = std::get<0>(GetParam());
  cfg.ws.steal_amount = std::get<1>(GetParam());
  const ws::RunResult r = run_native(cfg);
  expect_conserved(cfg, r);

  std::uint64_t attempts = 0, failed = 0, ok = 0, served = 0, received = 0;
  for (const auto& rs : r.per_rank) {
    attempts += rs.steal_attempts;
    failed += rs.failed_steals;
    ok += rs.successful_steals;
    served += rs.requests_served;
    received += rs.chunks_received;
  }
  // No timeouts: each request has at most one answer, and a refusal may
  // still be in flight when Terminate arrives.
  EXPECT_LE(failed + ok, attempts);
  EXPECT_LE(served, attempts);
  EXPECT_GE(received, ok);
  EXPECT_EQ(r.stats.steal_attempts, attempts);
  EXPECT_EQ(r.stats.successful_steals, ok);
  EXPECT_EQ(r.stats.failed_steals, failed);
}

INSTANTIATE_TEST_SUITE_P(
    PolicyAmount, NativePolicies,
    ::testing::Combine(::testing::Values(proto::VictimPolicy::kRoundRobin,
                                         proto::VictimPolicy::kRandom,
                                         proto::VictimPolicy::kTofuSkewed,
                                         proto::VictimPolicy::kHierarchical,
                                         proto::VictimPolicy::kAdaptive),
                       ::testing::Values(proto::StealAmount::kOneChunk,
                                         proto::StealAmount::kHalf)));

/// Determinism of the *result* (not the schedule): any rank count and any
/// selector seed must produce the sequential enumerator's tree totals.
class NativeSweep
    : public ::testing::TestWithParam<
          std::tuple<std::string, topo::Rank, std::uint64_t>> {};

TEST_P(NativeSweep, CountsMatchSequential) {
  const auto& [tree, ranks, seed] = GetParam();
  ws::RunConfig cfg = small_config(ranks, tree.c_str());
  cfg.ws.seed = seed;
  expect_conserved(cfg, run_native(cfg));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NativeSweep,
    ::testing::Values(std::tuple{std::string("TEST_BIN_TINY"), 2u, 1ull},
                      std::tuple{std::string("TEST_BIN_TINY"), 8u, 2ull},
                      std::tuple{std::string("TEST_BIN_SMALL"), 3u, 3ull},
                      std::tuple{std::string("TEST_BIN_SMALL"), 8u, 4ull},
                      std::tuple{std::string("TEST_BIN_WIDE"), 4u, 5ull},
                      std::tuple{std::string("TEST_GEO_EXP"), 4u, 6ull},
                      std::tuple{std::string("TEST_HYBRID"), 6u, 7ull},
                      std::tuple{std::string("SIM200K"), 8u, 8ull},
                      std::tuple{std::string("SIM200K"), 16u, 9ull}));

}  // namespace
}  // namespace dws::rt
