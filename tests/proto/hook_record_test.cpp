// proto::HookRecorder / proto::replay: every RunObserver hook call must
// survive capture into one HookRecord and replay onto another observer with
// its arguments bit-exact, and BufferedObserver::replay_merged must order
// records of equal virtual time by (shard, buffer index). The oracle is a
// hand-written observer that logs each call's arguments in full.
#include "proto/replay.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "crypto/uts_rng.hpp"

namespace dws::proto {
namespace {

void put(std::ostream& os, const uts::TreeNode& n) {
  for (const std::uint8_t byte : n.rng.state()) os << +byte << ':';
  os << n.height;
}
void put(std::ostream& os, const Token& t) {
  os << t.black << '/' << t.sent << '/' << t.recv << '/' << t.generation;
}
void put(std::ostream& os, metrics::Phase p) { os << static_cast<int>(p); }
template <typename T>
  requires std::is_arithmetic_v<T>
void put(std::ostream& os, T v) {
  if constexpr (std::is_floating_point_v<T>) {
    os << "0x" << std::hex << std::bit_cast<std::uint64_t>(v) << std::dec;
  } else {
    os << +v;
  }
}

/// Logs every hook call as one line: the hook's name, then each argument in
/// full (TreeNode state bytes, every Token field, doubles by bit pattern),
/// so two logs are equal iff the calls were bit-identical.
class CallLog final : public RunObserver {
 public:
  std::vector<std::string> calls;

  void on_root(topo::Rank rank, const uts::TreeNode& root) override {
    add("root", rank, root);
  }
  void on_node_expanded(topo::Rank rank, const uts::TreeNode& node,
                        std::uint32_t children) override {
    add("expand", rank, node, children);
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
    add("feedback", thief, victim, success, rtt, success_ewma, rtt_ewma);
  }
  void on_token_sent(topo::Rank from, topo::Rank to, const Token& t) override {
    add("tok_sent", from, to, t);
  }
  void on_token_accepted(topo::Rank rank, const Token& t) override {
    add("tok_acc", rank, t);
  }
  void on_token_regenerated(topo::Rank rank, std::uint32_t gen) override {
    add("tok_regen", rank, gen);
  }
  void on_phase(topo::Rank rank, support::SimTime t,
                metrics::Phase p) override {
    add("phase", rank, t, p);
  }
  void on_termination(support::SimTime t) override { add("term", t); }
  void on_finish(topo::Rank rank, support::SimTime t) override {
    add("finish", rank, t);
  }

 private:
  template <typename... Args>
  void add(const char* hook, const Args&... args) {
    std::ostringstream line;
    line << hook;
    ((line << ' ', put(line, args)), ...);
    calls.push_back(line.str());
  }
};

/// Keeps every record it is handed.
class RecordList final : public HookRecorder {
 public:
  std::vector<HookRecord> records;
  void on_hook(const HookRecord& record) override {
    records.push_back(record);
  }
};

uts::TreeNode node_of(std::uint32_t seed, std::uint32_t height) {
  return uts::TreeNode{crypto::UtsRng::from_seed(seed).spawn(seed + 1),
                       height};
}

/// Calls each of the 17 hooks once; no two arguments share a value and none
/// is a field's default, so a dropped, swapped or truncated field shows.
void call_every_hook(RunObserver& obs) {
  obs.on_root(1, node_of(7, 2));
  obs.on_node_expanded(3, node_of(8, 4), 5);
  obs.on_steal_request_sent(6, 7, 8);
  obs.on_steal_response_sent(9, 10, 0x1'0000'000bULL, 0x2'0000'000cULL, 13);
  obs.on_steal_response_received(14, 15, 0x3'0000'0010ULL, 0x4'0000'0011ULL);
  obs.on_lifeline_register_sent(18, 19, 20);
  obs.on_lifeline_push_sent(21, 22, 0x5'0000'0017ULL, 0x6'0000'0018ULL, 25);
  obs.on_lifeline_push_received(26, 0x7'0000'001bULL, 0x8'0000'001cULL);
  obs.on_steal_timeout(29, 30, 31);
  obs.on_duplicate_response(32, 0x9'0000'0021ULL, 0xa'0000'0022ULL);
  obs.on_steal_feedback(35, 36, true, 0xb'0000'0025LL,
                        std::nextafter(0.375, 1.0), 1.0 / 3.0);
  obs.on_token_sent(38, 39,
                    Token{true, 0xc'0000'0028ULL, 0xd'0000'0029ULL, 42});
  obs.on_token_accepted(43,
                        Token{true, 0xe'0000'002cULL, 0xf'0000'002dULL, 46});
  obs.on_token_regenerated(47, 48);
  obs.on_phase(49, 0x10'0000'0032LL, metrics::Phase::kActive);
  obs.on_termination(0x11'0000'0033LL);
  obs.on_finish(52, 0x12'0000'0035LL);
}

TEST(HookRecord, EveryHookReplaysItsArgumentsBitExact) {
  CallLog direct;
  call_every_hook(direct);
  ASSERT_EQ(direct.calls.size(), 17u);

  RecordList recorder;
  call_every_hook(recorder);
  ASSERT_EQ(recorder.records.size(), 17u);
  std::set<HookRecord::Kind> kinds;
  for (const HookRecord& r : recorder.records) {
    kinds.insert(r.kind);
    EXPECT_EQ(r.when, 0);  // only BufferedObserver stamps a time
  }
  EXPECT_EQ(kinds.size(), 17u);

  CallLog replayed;
  for (const HookRecord& r : recorder.records) replay(r, replayed);
  ASSERT_EQ(replayed.calls.size(), direct.calls.size());
  for (std::size_t i = 0; i < direct.calls.size(); ++i) {
    EXPECT_EQ(replayed.calls[i], direct.calls[i]) << "hook #" << i;
  }
}

TEST(HookRecord, ReplayMergedOrdersEqualTimesByShardThenIndex) {
  support::SimTime now0 = 0;
  support::SimTime now1 = 0;
  BufferedObserver shard0([&now0] { return now0; });
  BufferedObserver shard1([&now1] { return now1; });

  // Wall-clock call order deliberately differs from the merged order: shard
  // 1 reports first at t = 5, yet shard 0's two t = 5 records precede it.
  now1 = 5;
  shard1.on_finish(100, 1);
  now0 = 5;
  shard0.on_finish(200, 2);
  shard0.on_finish(201, 3);
  now1 = 7;
  shard1.on_finish(101, 4);
  now0 = 9;
  shard0.on_finish(202, 5);
  ASSERT_EQ(shard0.records().size(), 3u);
  EXPECT_EQ(shard0.records()[1].when, 5);
  EXPECT_EQ(shard0.records()[2].when, 9);

  CallLog merged;
  BufferedObserver::replay_merged({&shard0, &shard1}, merged);
  const std::vector<std::string> expected = {
      "finish 200 2", "finish 201 3", "finish 100 1", "finish 101 4",
      "finish 202 5"};
  EXPECT_EQ(merged.calls, expected);
  EXPECT_TRUE(shard0.records().empty());
  EXPECT_TRUE(shard1.records().empty());
}

}  // namespace
}  // namespace dws::proto
