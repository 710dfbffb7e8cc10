/// Parallel-vs-serial differential suite for the sharded simulator core
/// (DESIGN.md §12): the shard count is an execution strategy, so every
/// supported configuration must produce BYTE-IDENTICAL schema-v5 records at
/// sim_shards 1, 2, 4 and 8 — same events, same order, same metrics — and
/// the structural ordering key must never have fallen through to a
/// cross-shard seq comparison (merge_ambiguities == 0). Coverage includes
/// fault-injected and congestion-enabled configs (per-channel draw keying
/// and the windowed ledger are exactly what makes them shard-invariant), a
/// fig06-quick-style point under the full audit observer at 4 shards
/// (pinning that the buffered replay fan-in preserves the audited hook
/// stream), and the one-node degenerate-shard fallthrough.
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "proto/observer.hpp"
#include "topo/allocation.hpp"
#include "uts/params.hpp"
#include "ws/scheduler.hpp"

namespace dws::audit {
namespace {

/// One sweep over sim_shards for `base`, rendered as wall-clock-free
/// schema-v5 JSONL — one record per shard count in `counts` that must be
/// pairwise identical except for the axis coordinate label.
std::vector<std::string> records_per_shard_count(
    const ws::RunConfig& base, bool audited,
    const std::vector<std::uint32_t>& counts = {1, 2, 4, 8}) {
  exp::SweepSpec spec(base);
  spec.axis(exp::sim_shards_axis(counts));
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);
  exp::RunnerOptions options;
  options.threads = 1;
  options.progress = false;
  if (audited) {
    options.run = [](const ws::RunConfig& cfg) { return checked_run(cfg); };
  } else {
    options.run = [](const ws::RunConfig& cfg) {
      return ws::run_simulation(cfg);
    };
  }
  const exp::SweepReport report =
      exp::SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.all_ok());

  std::vector<std::string> lines;
  for (std::size_t i = 0; i < expanded.value().size(); ++i) {
    std::ostringstream out;
    exp::RecordWriter writer(out, exp::RecordOptions{exp::RecordFormat::kJsonl,
                                                     /*wall_clock=*/false});
    writer.write(expanded.value()[i], report.points[i]);
    std::string line = out.str();
    // Strip the sweep bookkeeping ("index":N,"coords":{...},) — the only
    // part allowed to differ between the points of a sim_shards sweep.
    const auto start = line.find("\"index\":");
    const auto end = line.find('}', line.find("\"coords\":{"));
    EXPECT_NE(start, std::string::npos);
    EXPECT_NE(end, std::string::npos);
    line.erase(start, end + 2 - start);
    lines.push_back(std::move(line));
  }
  return lines;
}

void expect_shard_invariant(const ws::RunConfig& base, bool audited) {
  const std::vector<std::string> lines =
      records_per_shard_count(base, audited);
  ASSERT_EQ(lines.size(), 4u);
  for (std::size_t i = 1; i < lines.size(); ++i) {
    EXPECT_EQ(lines[0], lines[i])
        << "records diverge between sim_shards=1 and the " << i
        << "th shard count";
  }
  // The local-seq tiebreak must be provably irrelevant: no executed pair
  // ever tied on the full structural key across shards.
  for (const std::uint32_t shards : {2u, 4u, 8u}) {
    ws::RunConfig cfg = base;
    cfg.sim_shards = shards;
    const ws::RunResult result = ws::run_simulation(cfg);
    EXPECT_EQ(result.merge_ambiguities, 0u) << "sim_shards=" << shards;
    EXPECT_GT(result.shards_used, 1u);
  }
}

ws::RunConfig base_config() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 64;
  cfg.ws.chunk_size = 4;
  return cfg;
}

/// The full fault model at stress settings, with the recovery knobs a lossy
/// network requires.
ws::RunConfig faulted_config() {
  ws::RunConfig cfg = base_config();
  cfg.fault.drop_prob = 0.02;
  cfg.fault.dup_prob = 0.02;
  cfg.fault.jitter_frac = 0.3;
  cfg.fault.degraded_frac = 0.25;
  cfg.fault.straggler_ranks = 2;
  cfg.fault.pause_ranks = 2;
  cfg.fault.pause_duration = 50'000;
  cfg.fault.pause_window = 200'000;
  cfg.fault.seed = 5;
  cfg.ws.steal_timeout = 50'000;
  cfg.ws.token_timeout = 2'000'000;
  return cfg;
}

TEST(ShardParallel, ReferenceRoundRobinIsShardCountInvariant) {
  expect_shard_invariant(base_config(), /*audited=*/false);
}

TEST(ShardParallel, SkewedSelectionGroupedPlacementIsShardCountInvariant) {
  ws::RunConfig cfg = base_config();
  cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  cfg.placement = topo::Placement::kGrouped;
  cfg.procs_per_node = 8;
  cfg.ws.seed = 99;
  expect_shard_invariant(cfg, /*audited=*/false);
}

TEST(ShardParallel, RandomVictimsOddRankCountIsShardCountInvariant) {
  ws::RunConfig cfg = base_config();
  cfg.tree = uts::tree_by_name("TEST_BIN_TINY");
  cfg.num_ranks = 96;  // not a power of two: uneven shard blocks
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.ws.chunk_size = 2;
  cfg.ws.seed = 7;
  expect_shard_invariant(cfg, /*audited=*/false);
}

TEST(ShardParallel, AuditedFigureStylePointIsShardCountInvariant) {
  // The fig06-quick shape (SIM200K, 128 ranks, Reference 1/N) minus the
  // congestion model, run under the full audit observer: the replay fan-in
  // must deliver the exact hook stream the audit invariants need, at every
  // shard count.
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 128;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRoundRobin;
  cfg.ws.steal_amount = ws::StealAmount::kOneChunk;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.procs_per_node = 1;
  expect_shard_invariant(cfg, /*audited=*/true);

  cfg.sim_shards = 4;
  const AuditedResult audited = audited_run(cfg, AuditConfig::all());
  EXPECT_TRUE(audited.report.ok()) << audited.report.summary();
  EXPECT_EQ(audited.result.shards_used, 4u);
  EXPECT_EQ(audited.result.merge_ambiguities, 0u);
}

TEST(ShardParallel, FaultInjectionIsShardCountInvariant) {
  // The tentpole property for faults: per-channel draw keying makes the
  // shard-local injectors byte-equivalent to the serial one, so a fully
  // perturbed run (loss, duplication, jitter, degraded links, stragglers,
  // pauses) produces identical audited records at every shard count.
  expect_shard_invariant(faulted_config(), /*audited=*/true);
}

TEST(ShardParallel, WindowedCongestionIsShardCountInvariant) {
  // The tentpole property for congestion: the windowed ledger reads only
  // barrier-sealed boundaries, so congested latencies — and the records cut
  // from them — are identical at every shard count.
  ws::RunConfig cfg = base_config();
  cfg.enable_congestion(1.0);
  expect_shard_invariant(cfg, /*audited=*/true);
}

TEST(ShardParallel, FaultsAndCongestionComposeShardCountInvariant) {
  ws::RunConfig cfg = faulted_config();
  cfg.enable_congestion(1.0);
  expect_shard_invariant(cfg, /*audited=*/true);
}

TEST(ShardParallel, AdaptiveUnderFaultsIsShardCountInvariant) {
  // The tentpole property for the feedback seam (DESIGN.md §14): adaptive
  // selector state is a pure function of the thief's own observation stream,
  // so a fully perturbed adaptive run — feedback-skewed victim draws, amount
  // switching and all — produces identical audited records at every shard
  // count.
  ws::RunConfig cfg = faulted_config();
  cfg.ws.victim_policy = ws::VictimPolicy::kAdaptive;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  cfg.ws.adaptive_steal_amount = true;
  cfg.placement = topo::Placement::kGrouped;
  cfg.procs_per_node = 8;
  expect_shard_invariant(cfg, /*audited=*/true);
}

TEST(ShardParallel, ValidateScreensShardIncompatibleConfigs) {
  // Faults and congestion compose with sharding since PR 7 de-globalized
  // their state; the rejections that remain are the native backend and the
  // degenerate shard counts.
  ws::RunConfig cfg = base_config();
  cfg.sim_shards = 4;
  EXPECT_TRUE(static_cast<bool>(cfg.validate()));
  {
    ws::RunConfig ok = cfg;
    ok.enable_congestion(1.0);
    EXPECT_TRUE(static_cast<bool>(ok.validate()));
  }
  {
    ws::RunConfig ok = faulted_config();
    ok.sim_shards = 4;
    EXPECT_TRUE(static_cast<bool>(ok.validate()));
  }
  {
    ws::RunConfig bad = cfg;
    bad.backend = ws::Backend::kRt;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
  {
    ws::RunConfig bad = cfg;
    bad.sim_shards = 0;
    EXPECT_FALSE(static_cast<bool>(bad.validate()));
  }
}

TEST(ShardParallel, ValidateRejectsDeadCongestionScale) {
  // A bare congestion_scale with the model off used to be silently ignored
  // (the re-anchor requires both); it is now a named config error.
  ws::RunConfig cfg = base_config();
  cfg.congestion_scale = 1.0;
  EXPECT_FALSE(static_cast<bool>(cfg.validate()));
  cfg.congestion.enabled = true;
  EXPECT_TRUE(static_cast<bool>(cfg.validate()));
}

/// Serializes every RunObserver hook into one text log, so two runs'
/// complete hook streams can be compared for equality; `by_rank` splits the
/// same lines by acting rank (each hook's first rank argument; rank 0 for
/// on_termination, which rank 0 declares).
class HookLogObserver final : public proto::RunObserver {
 public:
  std::string log;
  std::map<topo::Rank, std::string> by_rank;

  void on_root(topo::Rank rank, const uts::TreeNode&) override {
    add("root", rank);
  }
  void on_node_expanded(topo::Rank rank, const uts::TreeNode&,
                        std::uint32_t children) override {
    add("expand", rank, children);
  }
  void on_steal_request_sent(topo::Rank thief, topo::Rank victim,
                             std::uint32_t bytes) override {
    add("req", thief, victim, bytes);
  }
  void on_steal_response_sent(topo::Rank victim, topo::Rank thief,
                              std::uint64_t chunks, std::uint64_t nodes,
                              std::uint32_t bytes) override {
    add("resp_sent", victim, thief, chunks, nodes, bytes);
  }
  void on_steal_response_received(topo::Rank thief, topo::Rank victim,
                                  std::uint64_t chunks,
                                  std::uint64_t nodes) override {
    add("resp_recv", thief, victim, chunks, nodes);
  }
  void on_lifeline_register_sent(topo::Rank rank, topo::Rank target,
                                 std::uint32_t bytes) override {
    add("ll_reg", rank, target, bytes);
  }
  void on_lifeline_push_sent(topo::Rank from, topo::Rank to,
                             std::uint64_t chunks, std::uint64_t nodes,
                             std::uint32_t bytes) override {
    add("ll_push", from, to, chunks, nodes, bytes);
  }
  void on_lifeline_push_received(topo::Rank rank, std::uint64_t chunks,
                                 std::uint64_t nodes) override {
    add("ll_recv", rank, chunks, nodes);
  }
  void on_steal_timeout(topo::Rank thief, topo::Rank victim,
                        std::uint32_t attempt) override {
    add("timeout", thief, victim, attempt);
  }
  void on_duplicate_response(topo::Rank thief, std::uint64_t chunks,
                             std::uint64_t nodes) override {
    add("dup_resp", thief, chunks, nodes);
  }
  void on_steal_feedback(topo::Rank thief, topo::Rank victim, bool success,
                         support::SimTime rtt, double success_ewma,
                         double rtt_ewma) override {
    // Hexfloat keeps the EWMA comparison bit-exact — any cross-shard drift in
    // the feedback replay shows up here, not just in rounded metrics.
    std::ostringstream s;
    s << "feedback " << thief << ' ' << victim << ' ' << (success ? 1 : 0)
      << ' ' << rtt << ' ' << std::hexfloat << success_ewma << ' ' << rtt_ewma
      << '\n';
    emit(thief, s.str());
  }
  void on_token_sent(topo::Rank from, topo::Rank to,
                     const proto::Token& t) override {
    add("tok_sent", from, to, t.black ? 1 : 0, t.sent, t.recv, t.generation);
  }
  void on_token_accepted(topo::Rank rank, const proto::Token& t) override {
    add("tok_acc", rank, t.sent, t.recv, t.generation);
  }
  void on_token_regenerated(topo::Rank rank, std::uint32_t gen) override {
    add("tok_regen", rank, gen);
  }
  void on_phase(topo::Rank rank, support::SimTime t,
                metrics::Phase p) override {
    add("phase", rank, t, static_cast<int>(p));
  }
  void on_termination(support::SimTime t) override {
    emit(0, "term " + std::to_string(t) + '\n');
  }
  void on_finish(topo::Rank rank, support::SimTime t) override {
    add("finish", rank, t);
  }

 private:
  template <typename... Args>
  void add(const char* tag, topo::Rank rank, Args... args) {
    std::string line = tag;
    line += ' ';
    line += std::to_string(rank);
    ((line += ' ', line += std::to_string(args)), ...);
    line += '\n';
    emit(rank, line);
  }
  void emit(topo::Rank rank, const std::string& line) {
    log += line;
    by_rank[rank] += line;
  }
};

TEST(ShardParallel, OneNodeJobDegeneratesToTheSerialPathExactly) {
  // A job whose ranks all share one node partitions into a single shard;
  // run_simulation must fall through to the single-engine path and match an
  // explicit sim_shards=1 run byte-for-byte — records and the complete
  // observer hook stream alike.
  ws::RunConfig cfg = base_config();
  cfg.num_ranks = 8;
  cfg.placement = topo::Placement::kGrouped;
  cfg.procs_per_node = 8;

  const std::vector<std::string> lines =
      records_per_shard_count(cfg, /*audited=*/false, {1, 8});
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], lines[1]);

  cfg.sim_shards = 8;
  HookLogObserver sharded;
  const ws::RunResult result = ws::run_simulation(cfg, &sharded);
  EXPECT_EQ(result.shards_used, 1u);  // degenerated, not windowed

  cfg.sim_shards = 1;
  HookLogObserver serial;
  ws::run_simulation(cfg, &serial);
  EXPECT_FALSE(serial.log.empty());
  EXPECT_EQ(serial.log, sharded.log);
}

/// Every rank's complete hook stream at sim_shards 1, 2 and 4. Cross-rank
/// interleaving of same-time hooks is not promised (see
/// FeedbackStreamObserver below), but each rank's own stream is: its events
/// run in the same order on whichever shard holds it, and replay_merged keeps
/// one shard's records in buffer order. `tags` name hooks the serial stream
/// must contain, so the config provably exercises them.
void expect_per_rank_hook_streams_shard_invariant(
    ws::RunConfig cfg, const std::vector<std::string>& tags) {
  cfg.sim_shards = 1;
  HookLogObserver serial;
  ws::run_simulation(cfg, &serial);
  EXPECT_EQ(serial.by_rank.size(), cfg.num_ranks);
  for (const std::string& tag : tags) {
    EXPECT_NE(serial.log.find('\n' + tag + ' '), std::string::npos) << tag;
  }
  for (const std::uint32_t shards : {2u, 4u}) {
    cfg.sim_shards = shards;
    HookLogObserver sharded;
    const ws::RunResult result = ws::run_simulation(cfg, &sharded);
    EXPECT_GT(result.shards_used, 1u) << "sim_shards=" << shards;
    ASSERT_EQ(sharded.by_rank.size(), serial.by_rank.size())
        << "sim_shards=" << shards;
    for (const auto& [rank, stream] : serial.by_rank) {
      EXPECT_EQ(stream, sharded.by_rank[rank])
          << "rank " << rank << ", sim_shards=" << shards;
    }
  }
}

TEST(ShardParallel, FaultedPerRankHookStreamsAreShardCountInvariant) {
  // Drops, duplicates and both timeouts: exercises the timeout, duplicate-
  // response and token-regeneration records of the buffered replay.
  expect_per_rank_hook_streams_shard_invariant(
      faulted_config(), {"timeout", "dup_resp", "tok_regen", "resp_recv"});
}

TEST(ShardParallel, LifelinePerRankHookStreamsAreShardCountInvariant) {
  // Lifeline registration and pushes only fire under kLifeline.
  ws::RunConfig cfg = base_config();
  cfg.ws.idle_policy = ws::IdlePolicy::kLifeline;
  cfg.ws.lifeline_tries = 2;
  expect_per_rank_hook_streams_shard_invariant(
      cfg, {"ll_reg", "ll_push", "ll_recv"});
}

/// Collects each thief's on_steal_feedback stream separately. Cross-rank
/// interleaving of same-time hooks is an engine scheduling detail the merged
/// replay does not promise to reproduce; what IS promised is that every
/// rank's own feedback history — and therefore its EWMA evolution — is a
/// pure function of its message history, which sharding preserves exactly.
class FeedbackStreamObserver final : public proto::RunObserver {
 public:
  std::map<topo::Rank, std::string> by_thief;

  void on_steal_feedback(topo::Rank thief, topo::Rank victim, bool success,
                         support::SimTime rtt, double success_ewma,
                         double rtt_ewma) override {
    std::ostringstream s;
    s << victim << ' ' << (success ? 1 : 0) << ' ' << rtt << ' '
      << std::hexfloat << success_ewma << ' ' << rtt_ewma << '\n';
    by_thief[thief] += s.str();
  }
};

TEST(ShardParallel, AdaptiveFeedbackStreamsPerThiefSurviveTheShardedReplay) {
  // The buffered replay fan-in must reproduce each thief's serial
  // on_steal_feedback stream — victims, outcomes and bit-exact EWMA
  // snapshots — so the sharded audit sees the same per-rank selector
  // evolution the serial engine produced.
  ws::RunConfig cfg = faulted_config();
  cfg.ws.victim_policy = ws::VictimPolicy::kAdaptive;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  cfg.ws.adaptive_steal_amount = true;

  FeedbackStreamObserver serial;
  cfg.sim_shards = 1;
  ws::run_simulation(cfg, &serial);
  EXPECT_GT(serial.by_thief.size(), 32u);  // most of 64 ranks stole at least once

  FeedbackStreamObserver sharded;
  cfg.sim_shards = 4;
  const ws::RunResult result = ws::run_simulation(cfg, &sharded);
  EXPECT_GT(result.shards_used, 1u);
  ASSERT_EQ(serial.by_thief.size(), sharded.by_thief.size());
  for (const auto& [thief, stream] : serial.by_thief) {
    ASSERT_TRUE(sharded.by_thief.count(thief)) << "thief " << thief;
    EXPECT_EQ(stream, sharded.by_thief.at(thief)) << "thief " << thief;
  }
}

TEST(ShardParallel, ShardCountIsAbsentFromTheCanonicalConfig) {
  // sim_shards is an execution strategy: two configs differing only in it
  // must fingerprint identically, or sweep dedup and record joins break.
  ws::RunConfig one = base_config();
  ws::RunConfig eight = base_config();
  eight.sim_shards = 8;
  EXPECT_EQ(exp::canonical_config(one), exp::canonical_config(eight));
  EXPECT_EQ(exp::config_fingerprint(one), exp::config_fingerprint(eight));
}

}  // namespace
}  // namespace dws::audit
