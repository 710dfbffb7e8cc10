#include "audit/audit.hpp"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <tuple>

#include "uts/sequential.hpp"
#include "uts/tree.hpp"
#include "proto/message.hpp"
#include "ws/scheduler.hpp"

namespace dws::audit {
namespace {

/// Each invariant family is exercised from both sides: honest runs across the
/// full extension matrix must come back clean, and a hand-fed lie on any hook
/// must surface as a violation of the right family.

bool has_violation(const AuditReport& report, Family family,
                   const std::string& needle) {
  for (const Violation& v : report.violations) {
    if (v.family == family && v.message.find(needle) != std::string::npos) {
      return true;
    }
  }
  return false;
}

ws::RunConfig small_config() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 16;
  return cfg;
}

// --- Honest runs are clean across every scheduler extension ---

using AuditParam = std::tuple<ws::VictimPolicy, ws::IdlePolicy, bool>;

class CleanRuns : public ::testing::TestWithParam<AuditParam> {};

TEST_P(CleanRuns, EveryFamilyPasses) {
  const auto& [policy, idle, one_sided] = GetParam();
  ws::RunConfig cfg = small_config();
  cfg.ws.victim_policy = policy;
  cfg.ws.idle_policy = idle;
  cfg.ws.one_sided_steals = one_sided;
  cfg.ws.lifeline_tries = 2;
  const AuditedResult audited = audited_run(cfg, AuditConfig::all());
  EXPECT_TRUE(audited.report.ok()) << audited.report.summary();
  EXPECT_EQ(audited.result.nodes, uts::enumerate_sequential(cfg.tree).nodes);
  EXPECT_GT(audited.report.nodes_expanded, 0u);
  EXPECT_GT(audited.report.requests, 0u);
  EXPECT_GT(audited.report.tokens, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CleanRuns,
    ::testing::Combine(
        ::testing::Values(ws::VictimPolicy::kRoundRobin,
                          ws::VictimPolicy::kRandom,
                          ws::VictimPolicy::kTofuSkewed,
                          ws::VictimPolicy::kHierarchical),
        ::testing::Values(ws::IdlePolicy::kPersistentSteal,
                          ws::IdlePolicy::kLifeline),
        ::testing::Bool()));

TEST(CheckedRun, ReturnsTheResultWhenClean) {
  const ws::RunConfig cfg = small_config();
  const ws::RunResult r = checked_run(cfg);
  EXPECT_EQ(r.nodes, uts::enumerate_sequential(cfg.tree).nodes);
}

TEST(EnvEnabled, ParsesCommonSpellings) {
  ::unsetenv("DWS_AUDIT");
  EXPECT_FALSE(env_enabled());
  ::setenv("DWS_AUDIT", "0", 1);
  EXPECT_FALSE(env_enabled());
  ::setenv("DWS_AUDIT", "off", 1);
  EXPECT_FALSE(env_enabled());
  ::setenv("DWS_AUDIT", "1", 1);
  EXPECT_TRUE(env_enabled());
  ::setenv("DWS_AUDIT", "true", 1);
  EXPECT_TRUE(env_enabled());
  ::unsetenv("DWS_AUDIT");
}

// --- Work conservation ---

TEST(WorkFamily, ExpansionWithoutStackIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  a.on_node_expanded(3, uts::root_node(cfg.tree), 0);
  EXPECT_TRUE(has_violation(a.report(), Family::kWork, "ledger stack"));
}

TEST(WorkFamily, DoubleExpansionIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  const uts::TreeNode root = uts::root_node(cfg.tree);
  a.on_root(0, root);
  a.on_node_expanded(0, root, 2);
  EXPECT_TRUE(a.report().ok());
  a.on_node_expanded(0, root, 0);  // same fingerprint again
  EXPECT_TRUE(has_violation(a.report(), Family::kWork, "expanded twice"));
}

TEST(WorkFamily, ShippingMoreThanTheStackHoldsIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  const uts::TreeNode root = uts::root_node(cfg.tree);
  a.on_root(0, root);
  a.on_node_expanded(0, root, 2);  // rank 0's ledger stack now holds 2
  a.on_steal_request_sent(1, 0, 8);
  a.on_steal_response_sent(0, 1, 1, 10, 64);
  EXPECT_TRUE(has_violation(a.report(), Family::kWork, "shipped"));
}

TEST(WorkFamily, TerminationWithWorkInFlightIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  const uts::TreeNode root = uts::root_node(cfg.tree);
  a.on_root(0, root);
  a.on_node_expanded(0, root, 6);
  a.on_steal_request_sent(1, 0, 8);
  a.on_steal_response_sent(0, 1, 1, 4, 64);  // 4 nodes leave, never land
  a.on_token_sent(15, 0, proto::Token{});
  a.on_termination(100);
  EXPECT_TRUE(has_violation(a.report(), Family::kWork, "in flight"));
}

TEST(WorkFamily, ResultNodeCountMismatchIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  ws::RunResult r = ws::run_simulation(cfg, &a);
  r.nodes += 1;  // the scheduler lies about its total
  a.finalize(r);
  EXPECT_TRUE(has_violation(a.report(), Family::kWork, "result claims"));
}

// --- Message conservation ---

TEST(MessageFamily, ResponseWithoutRequestIsCaught) {
  Auditor a(small_config());
  a.on_steal_response_sent(0, 1, 0, 0, 64);
  EXPECT_TRUE(has_violation(a.report(), Family::kMessages, "never sent"));
}

TEST(MessageFamily, SecondOutstandingRequestIsCaught) {
  Auditor a(small_config());
  a.on_steal_request_sent(2, 0, 8);
  a.on_steal_request_sent(2, 1, 8);
  EXPECT_TRUE(
      has_violation(a.report(), Family::kMessages, "second steal request"));
}

TEST(MessageFamily, RequestToSelfIsCaught) {
  Auditor a(small_config());
  a.on_steal_request_sent(2, 2, 8);
  EXPECT_TRUE(has_violation(a.report(), Family::kMessages, "itself"));
}

TEST(MessageFamily, UnsolicitedReceiptIsCaught) {
  Auditor a(small_config());
  a.on_steal_response_received(1, 0, 0, 0);
  EXPECT_TRUE(has_violation(a.report(), Family::kMessages, "none in flight"));
}

TEST(MessageFamily, NetworkStatsMismatchIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  ws::RunResult r = ws::run_simulation(cfg, &a);
  r.network.messages += 1;  // one message the ledger never saw
  a.finalize(r);
  EXPECT_TRUE(
      has_violation(a.report(), Family::kMessages, "network stats claim"));
}

// --- Clock / trace sanity ---

TEST(ClockFamily, PhaseTimeRegressionIsCaught) {
  Auditor a(small_config());
  a.on_phase(0, 100, metrics::Phase::kActive);
  a.on_phase(0, 50, metrics::Phase::kIdle);
  EXPECT_TRUE(has_violation(a.report(), Family::kClock, "went backwards"));
}

TEST(ClockFamily, ActiveAfterTerminationIsCaught) {
  ws::RunConfig cfg = small_config();
  cfg.num_ranks = 1;  // single rank: termination needs no token
  Auditor a(cfg);
  a.on_termination(10);
  a.on_phase(0, 20, metrics::Phase::kActive);
  EXPECT_TRUE(
      has_violation(a.report(), Family::kClock, "after global termination"));
}

TEST(ClockFamily, TokenLeavingTheRingIsCaught) {
  Auditor a(small_config());
  a.on_token_sent(3, 7, proto::Token{});
  EXPECT_TRUE(has_violation(a.report(), Family::kClock, "left the ring"));
}

TEST(ClockFamily, UnsoundTerminationTokenIsCaught) {
  Auditor a(small_config());
  proto::Token t;
  t.black = false;
  t.sent = 5;
  t.recv = 3;  // counters do not balance: rank 0 must not accept this
  a.on_token_sent(15, 0, t);
  a.on_termination(42);
  EXPECT_TRUE(has_violation(a.report(), Family::kClock, "unsound token"));
}

TEST(ClockFamily, TerminationWithoutTokenIsCaught) {
  Auditor a(small_config());
  a.on_termination(42);
  EXPECT_TRUE(
      has_violation(a.report(), Family::kClock, "before any token"));
}

TEST(ClockFamily, ResultRuntimeMismatchIsCaught) {
  const ws::RunConfig cfg = small_config();
  Auditor a(cfg);
  ws::RunResult r = ws::run_simulation(cfg, &a);
  r.runtime += 1;
  a.finalize(r);
  EXPECT_TRUE(
      has_violation(a.report(), Family::kClock, "observed termination"));
}

TEST(Report, SummaryListsFamiliesAndCounts) {
  Auditor a(small_config());
  a.on_steal_request_sent(2, 2, 8);
  EXPECT_NE(a.report().summary().find("[messages]"), std::string::npos);
  Auditor clean(small_config());
  EXPECT_NE(clean.report().summary().find("OK"), std::string::npos);
}

TEST(Report, ViolationListStopsAtTheCapButTheCountDoesNot) {
  Auditor a(small_config());  // 16 ranks
  // Every request is to self (one violation each); from the second round on
  // each also has one outstanding (a second violation): 16 + 24 * 2 = 64.
  for (topo::Rank i = 0; i < 40; ++i) {
    a.on_steal_request_sent(i % 16, i % 16, 8);
  }
  const AuditReport& report = a.report();
  EXPECT_FALSE(report.ok());
  EXPECT_EQ(report.violations_total, 64u);
  ASSERT_EQ(report.violations.size(), kMaxViolations);
  EXPECT_NE(report.violations.front().message.find("rank 0 sent a steal "
                                                   "request to itself"),
            std::string::npos);
  const std::string summary = report.summary();
  EXPECT_NE(summary.find("audit: 64 violations"), std::string::npos);
  EXPECT_NE(summary.find("32 more suppressed"), std::string::npos);
}

}  // namespace
}  // namespace dws::audit
