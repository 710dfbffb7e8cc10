#include "ws/shard.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <vector>

namespace dws::ws {
namespace {

constexpr std::uint32_t kHops = 64;       // deliveries per token
constexpr topo::Rank kNoFailure = ~topo::Rank{0};

/// What the stub's failing rank throws, distinct from CheckFailure so a
/// test can tell it from a driver invariant tripping after the failure.
struct RingFailure {
  topo::Rank rank = 0;
  std::uint32_t hops = 0;
};

class RingRank;

struct RingDeliver {
  std::vector<std::unique_ptr<RingRank>>* ranks = nullptr;
  void operator()(topo::Rank dst, std::uint32_t hops) const;
};

using RingNetwork = sim::Network<std::uint32_t, RingDeliver>;

/// One rank of the stub: starts a token at t = 0 and forwards every token it
/// receives to the next rank of the ring until the token has made kHops
/// deliveries. `fail_rank` throws RingFailure on the delivery carrying
/// `fail_hop` — mid-run, with tokens still in flight on every shard.
class RingRank final : public sim::EventSink {
 public:
  RingRank(topo::Rank rank, topo::Rank num_ranks, RingNetwork& network,
           topo::Rank fail_rank, std::uint32_t fail_hop)
      : rank_(rank),
        num_ranks_(num_ranks),
        network_(&network),
        fail_rank_(fail_rank),
        fail_hop_(fail_hop) {}

  void on_event(const sim::Event&) override { forward(0); }  // kWorkerStart

  void on_message(std::uint32_t hops) {
    if (rank_ == fail_rank_ && hops == fail_hop_) {
      throw RingFailure{rank_, hops};
    }
    if (hops + 1 < kHops) forward(hops + 1);
  }

 private:
  void forward(std::uint32_t hops) {
    network_->send(rank_, (rank_ + 1) % num_ranks_, hops, 8);
  }

  topo::Rank rank_;
  topo::Rank num_ranks_;
  RingNetwork* network_;
  topo::Rank fail_rank_;
  std::uint32_t fail_hop_;
};

void RingDeliver::operator()(topo::Rank dst, std::uint32_t hops) const {
  (*ranks)[dst]->on_message(hops);
}

/// The smallest binding run_windowed accepts: a token ring with a trivial
/// payload, standing in for ws' workers and svc's muxes.
struct RingBinding {
  using Payload = std::uint32_t;
  using Deliver = RingDeliver;
  struct Local {
    std::vector<std::unique_ptr<RingRank>> ranks;
  };

  topo::Rank num_ranks = 0;
  topo::Rank fail_rank = kNoFailure;
  std::uint32_t fail_hop = 0;
  int finish_calls = 0;

  Deliver deliver(Local& local) { return RingDeliver{&local.ranks}; }

  void populate(Shard<RingBinding>& shard,
                const std::vector<topo::Rank>& ranks, bool /*sharded*/) {
    shard.local.ranks.resize(num_ranks);
    for (topo::Rank r : ranks) {
      shard.local.ranks[r] = std::make_unique<RingRank>(
          r, num_ranks, *shard.network, fail_rank, fail_hop);
      shard.engine.schedule_at(0, *shard.local.ranks[r],
                               sim::EventKind::kWorkerStart, r);
    }
  }

  void on_window() {}

  RunResult finish(const std::vector<const Local*>& /*locals*/,
                   const std::vector<std::uint32_t>& /*shard_of_rank*/) {
    ++finish_calls;
    RunResult result;
    result.num_ranks = num_ranks;
    return result;
  }
};

struct CheckFailure {};

/// Installs a DWS_CHECK handler that throws CheckFailure for its lifetime, so
/// a driver invariant tripping on the failure path fails the test instead of
/// aborting the test binary.
class ThrowingChecks {
 public:
  ThrowingChecks()
      : prev_(support::set_check_handler(
            [](const char*, const char*, int) { throw CheckFailure{}; })) {}
  ~ThrowingChecks() { support::set_check_handler(prev_); }
  ThrowingChecks(const ThrowingChecks&) = delete;
  ThrowingChecks& operator=(const ThrowingChecks&) = delete;

 private:
  support::CheckHandler prev_;
};

RunConfig ring_config(std::uint32_t shards) {
  RunConfig config;
  config.num_ranks = 16;  // 16 nodes under 1/N placement
  config.sim_shards = shards;
  return config;
}

class ShardDriver : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ShardDriver, RingCompletesAndMergesEveryShardsMessages) {
  const RunConfig config = ring_config(GetParam());
  const topo::JobLayout layout(config.machine, config.num_ranks,
                               config.placement, config.procs_per_node,
                               config.origin_cube);
  const topo::LatencyModel latency(layout, config.latency);
  RingBinding binding{config.num_ranks};

  const RunResult result = run_windowed(config, layout, latency, binding);
  EXPECT_EQ(binding.finish_calls, 1);
  EXPECT_EQ(result.shards_used, GetParam());
  EXPECT_EQ(result.network.messages,
            static_cast<std::uint64_t>(config.num_ranks) * kHops);
  // One kWorkerStart per rank plus one delivery per message.
  EXPECT_EQ(result.engine_events,
            static_cast<std::uint64_t>(config.num_ranks) * (kHops + 1));
}

TEST_P(ShardDriver, FailureOnOneShardIsRethrownAfterEveryShardJoins) {
  const RunConfig config = ring_config(GetParam());
  const topo::JobLayout layout(config.machine, config.num_ranks,
                               config.placement, config.procs_per_node,
                               config.origin_cube);
  const topo::LatencyModel latency(layout, config.latency);
  // Rank 13 sits on the last shard at 2 and 4 shards, so the failing thread
  // is never the one that runs the window hook.
  RingBinding binding{config.num_ranks, 13, kHops / 2};

  const ThrowingChecks checks;
  // The driver must join every shard thread before rethrowing: destroying
  // a joinable std::thread during the unwind would terminate the process,
  // and a shard left waiting at a barrier would hang until the ctest
  // timeout. What arrives must be the failing rank's own exception.
  try {
    run_windowed(config, layout, latency, binding);
    ADD_FAILURE() << "run_windowed returned normally";
  } catch (const RingFailure& failure) {
    EXPECT_EQ(failure.rank, 13u);
    EXPECT_EQ(failure.hops, kHops / 2);
  }
  EXPECT_EQ(binding.finish_calls, 0);
}

INSTANTIATE_TEST_SUITE_P(Shards, ShardDriver, ::testing::Values(1u, 2u, 4u));

}  // namespace
}  // namespace dws::ws
