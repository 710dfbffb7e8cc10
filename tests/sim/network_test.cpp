#include "sim/network.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "support/rng.hpp"

namespace dws::sim {
namespace {

struct TestMsg {
  int id = 0;
};

struct Delivery {
  topo::Rank dst;
  int id;
  support::SimTime at;
};

using TestNetwork = Network<TestMsg, std::function<void(topo::Rank, TestMsg)>>;

/// Sends TestMsg{id} from `src` to `dst` when its event fires.
class SendOnEvent final : public EventSink {
 public:
  SendOnEvent(TestNetwork& net, topo::Rank src, topo::Rank dst, int id)
      : net_(net), src_(src), dst_(dst), id_(id) {}
  void on_event(const Event&) override {
    net_.send(src_, dst_, TestMsg{id_}, 0);
  }

 private:
  TestNetwork& net_;
  topo::Rank src_, dst_;
  int id_;
};

/// Does nothing when its event fires: scheduling one moves the clock.
class Tick final : public EventSink {
 public:
  void on_event(const Event&) override {}
};

class NetworkTest : public ::testing::Test {
 protected:
  NetworkTest()
      : layout_(machine_, 64, topo::Placement::kOnePerNode),
        model_(layout_),
        net_(engine_, model_, [this](topo::Rank dst, TestMsg m) {
          log_.push_back({dst, m.id, engine_.now()});
        }) {}

  topo::TofuMachine machine_;
  topo::JobLayout layout_;
  topo::LatencyModel model_;
  Engine engine_;
  TestNetwork net_;
  std::vector<Delivery> log_;
};

TEST_F(NetworkTest, DeliversAfterModelLatency) {
  const auto expect = model_.message_latency(0, 63, 16);
  net_.send(0, 63, TestMsg{1}, 16);
  engine_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].dst, 63u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[0].at, expect);
}

TEST_F(NetworkTest, NearRanksArriveBeforeFarRanks) {
  net_.send(0, 63, TestMsg{2}, 0);  // far
  net_.send(0, 1, TestMsg{1}, 0);   // same blade
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[1].id, 2);
}

TEST_F(NetworkTest, ChannelDoesNotOvertake) {
  // A large message followed immediately by a tiny one on the same channel:
  // the tiny one would arrive first by raw latency, but MPI ordering says no.
  net_.send(0, 63, TestMsg{1}, 100000);  // 20 us serialization
  net_.send(0, 63, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 1);
  EXPECT_EQ(log_[1].id, 2);
  EXPECT_GE(log_[1].at, log_[0].at);
}

TEST_F(NetworkTest, DistinctChannelsMayOvertake) {
  // Same sender, different destinations: no ordering constraint.
  net_.send(0, 63, TestMsg{1}, 100000);
  net_.send(0, 1, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[0].id, 2);
}

TEST_F(NetworkTest, CountsMessagesAndBytes) {
  net_.send(0, 1, TestMsg{1}, 100);
  net_.send(1, 2, TestMsg{2}, 50);
  engine_.run();
  EXPECT_EQ(net_.stats().messages, 2u);
  EXPECT_EQ(net_.stats().bytes, 150u);
  EXPECT_EQ(net_.stats().intra_node_messages, 0u);
}

TEST_F(NetworkTest, SeparateSendersInterleaveByLatency) {
  net_.send(5, 6, TestMsg{1}, 0);
  net_.send(10, 50, TestMsg{2}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  // Deliveries interleave purely by model latency (ids sorted accordingly).
  const bool first_is_nearer = model_.message_latency(5, 6, 0) <=
                               model_.message_latency(10, 50, 0);
  EXPECT_EQ(log_[0].id, first_is_nearer ? 1 : 2);
  EXPECT_EQ(log_[0].at, std::min(model_.message_latency(5, 6, 0),
                                 model_.message_latency(10, 50, 0)));
}

TEST(NetworkIntraNode, CountsSharedMemoryTraffic) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 16, topo::Placement::kGrouped, 8);
  topo::LatencyModel model(layout);
  Engine engine;
  int delivered = 0;
  TestNetwork net(engine, model, [&](topo::Rank, TestMsg) { ++delivered; });
  net.send(0, 1, TestMsg{1}, 0);  // ranks 0,1 share node 0 under kGrouped
  net.send(0, 8, TestMsg{2}, 0);  // rank 8 is on node 1
  engine.run();
  EXPECT_EQ(delivered, 2);
  EXPECT_EQ(net.stats().intra_node_messages, 1u);
}

TEST(NetworkCongestion, BoundaryLoadInflatesLaterWindows) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  TestNetwork net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  // A flight launched in window 0 crosses boundary 1 (t=1000) and loads it
  // with its hops. A send two windows later reads that boundary's load and
  // pays the inflated latency; the first send read window -1 (nothing) and
  // sailed through raw.
  const auto raw1 = model.message_latency(0, 63, 0);
  ASSERT_GE(raw1, 1000);  // the flight is in the air as boundary 1 passes
  net.send(0, 63, TestMsg{1}, 0);
  SendOnEvent later(net, 1, 62, 2);
  engine.schedule_at(2500, later, EventKind::kWorkerStep);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[0], raw1);
  const double hops1 = static_cast<double>(model.hops(0, 63));
  const double raw2 = static_cast<double>(model.message_latency(1, 62, 0));
  EXPECT_EQ(arrivals[1],
            2500 + static_cast<support::SimTime>(raw2 * (1.0 + hops1 / 10.0)));
  EXPECT_GE(net.stats().max_load_hops, hops1);
}

TEST(NetworkCongestion, SameWindowSendsDoNotSeeEachOther) {
  // Both sends land in window 0, whose read boundary predates the run:
  // neither inflates the other. (The fluid model's same-instant coupling
  // moved to the next window boundary when congestion became windowed.)
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  TestNetwork net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  net.send(0, 63, TestMsg{1}, 0);
  net.send(1, 62, TestMsg{2}, 0);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  std::vector<support::SimTime> raw = {model.message_latency(0, 63, 0),
                                       model.message_latency(1, 62, 0)};
  std::sort(raw.begin(), raw.end());
  EXPECT_EQ(arrivals[0], raw[0]);
  EXPECT_EQ(arrivals[1], raw[1]);
}

TEST(NetworkCongestion, LoadExpiresWithTheFlight) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 10.0;
  congestion.window = 1000;
  TestNetwork net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  const auto raw1 = model.message_latency(0, 63, 0);
  ASSERT_LT(raw1, 4000);  // flight 1 loads no boundary at or past t=4000
  net.send(0, 63, TestMsg{1}, 0);
  // A send long after the flight landed reads an empty boundary: raw latency.
  SendOnEvent later(net, 1, 62, 2);
  engine.schedule_at(5500, later, EventKind::kWorkerStep);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], 5500 + model.message_latency(1, 62, 0));
}

TEST(NetworkCongestion, SameNodeTrafficIsImmune) {
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 16, topo::Placement::kGrouped, 8);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 1.0;  // tiny capacity: network badly congested
  congestion.window = 800;
  TestNetwork net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      congestion);
  ASSERT_GE(model.message_latency(0, 8, 0), 800);
  net.send(0, 8, TestMsg{1}, 0);  // inter-node: loads boundary 1 (t=800)
  // An intra-node send in a window whose read boundary carries that load
  // still travels at the shared-memory latency.
  SendOnEvent later(net, 0, 1, 2);
  engine.schedule_at(1700, later, EventKind::kWorkerStep);
  engine.run();
  ASSERT_EQ(arrivals.size(), 2u);
  EXPECT_EQ(arrivals[1], 1700 + model.params().same_node);
}

TEST(NetworkCongestion, WindowDefaultsToNetworkBase) {
  topo::LatencyParams latency;
  CongestionParams congestion;
  EXPECT_EQ(congestion_window(congestion, latency), latency.network_base);
  congestion.window = 250;
  EXPECT_EQ(congestion_window(congestion, latency), 250);
}

TEST(NetworkFaults, HugeMultiplierSaturatesInsteadOfWrapping) {
  // The wrap guard: an absurd latency multiplier (every link degraded by
  // 1e18x) must clamp the scaled latency instead of wrapping the virtual
  // clock through the double->int cast. The message still arrives, at the
  // saturation point.
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 64, topo::Placement::kOnePerNode);
  topo::LatencyModel model(layout);
  Engine engine;
  std::vector<support::SimTime> arrivals;
  fault::FaultConfig fc;
  fc.degraded_frac = 1.0;
  fc.degraded_mult = 1e18;
  fault::Injector injector(fc, 64);
  TestNetwork net(
      engine, model,
      [&](topo::Rank, TestMsg) { arrivals.push_back(engine.now()); },
      CongestionParams{}, &injector);
  net.send(0, 63, TestMsg{1}, 16);
  engine.run();
  ASSERT_EQ(arrivals.size(), 1u);
  constexpr support::SimTime kSaturated =
      std::numeric_limits<support::SimTime>::max() / 2;
  EXPECT_EQ(arrivals[0], kSaturated);
  EXPECT_GT(arrivals[0], 0);
}

TEST_F(NetworkTest, PeakChannelsCountsChannelsSpilledPastTheRow) {
  // A sender keeps up to four live channels in its row, and repeat sends on
  // a channel reuse its entry: nothing spills yet.
  for (int i = 0; i < 10; ++i) net_.send(1, 2, TestMsg{i}, 8);
  for (topo::Rank dst = 3; dst < 6; ++dst) net_.send(1, dst, TestMsg{0}, 8);
  EXPECT_EQ(net_.stats().peak_channels, 0u);
  net_.send(1, 6, TestMsg{0}, 8);  // a fifth live channel
  EXPECT_EQ(net_.stats().peak_channels, 1u);
  // Rank 0's broadcast: four channels fit its row, 59 spill.
  for (topo::Rank dst = 1; dst < 64; ++dst) net_.send(0, dst, TestMsg{0}, 8);
  EXPECT_EQ(net_.stats().peak_channels, 60u);
  engine_.run();
  EXPECT_EQ(net_.stats().messages, 77u);
  // Everything has landed: a second broadcast overwrites the dead entries
  // instead of adding to them.
  for (topo::Rank dst = 1; dst < 64; ++dst) net_.send(0, dst, TestMsg{0}, 8);
  EXPECT_EQ(net_.stats().peak_channels, 60u);
  engine_.run();
  EXPECT_EQ(log_.size(), 140u);
}

TEST(NetworkDeterminism, SameSendsSameDeliveries) {
  auto run_once = [] {
    topo::TofuMachine machine;
    topo::JobLayout layout(machine, 128, topo::Placement::kOnePerNode);
    topo::LatencyModel model(layout);
    Engine engine;
    std::vector<std::pair<topo::Rank, support::SimTime>> log;
    TestNetwork net(engine, model, [&](topo::Rank dst, TestMsg) {
      log.emplace_back(dst, engine.now());
    });
    for (topo::Rank r = 0; r < 127; ++r) {
      net.send(r, r + 1, TestMsg{static_cast<int>(r)}, r * 8);
    }
    engine.run();
    return log;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(ChannelRows, RandomSendsMatchAnInFlightMap) {
  // Hot senders with more live channels than a row holds, a broadcast, and
  // a clock that jumps past every arrival now and then: each admit must
  // return the clamp of a std::map that keeps a channel's last arrival for
  // as long as the arrival is ahead of the sender's clock.
  constexpr topo::Rank kRanks = 64;
  ChannelRows rows(kRanks);
  std::map<std::pair<topo::Rank, topo::Rank>, support::SimTime> last;
  support::Xoshiro256StarStar rng(7);
  support::SimTime now = 0;
  std::uint64_t clamps = 0;
  const auto admit = [&](topo::Rank src, topo::Rank dst,
                         support::SimTime latency) {
    support::SimTime want = now + latency;
    const auto it = last.find({src, dst});
    if (it != last.end() && it->second > now && it->second > want) {
      want = it->second;
      ++clamps;
    }
    last[{src, dst}] = want;
    ASSERT_EQ(rows.admit(src, dst, now, now + latency), want)
        << src << " -> " << dst << " at " << now;
  };
  for (int op = 0; op < 200'000; ++op) {
    if (op % 50'000 == 25'000) {
      for (topo::Rank dst = 1; dst < kRanks; ++dst) admit(0, dst, 3'000);
    }
    const auto src = static_cast<topo::Rank>(rng.next_below(8));
    auto dst = static_cast<topo::Rank>(rng.next_below(rng.next_below(2) == 0
                                                          ? 12
                                                          : kRanks));
    if (dst == src) dst = (dst + 1) % kRanks;
    admit(src, dst, static_cast<support::SimTime>(rng.next_below(5'000)));
    if (rng.next_below(64) == 0) {
      now += static_cast<support::SimTime>(rng.next_below(1'000));
    }
    if (rng.next_below(20'000) == 0) now += 10'000;  // every entry dead
  }
  EXPECT_GT(clamps, 10'000u);
  EXPECT_GT(rows.peak_overflow(), static_cast<std::uint64_t>(kRanks) - 6);
}

TEST(CongestionLedger, DifferenceArrayMatchesAPerBoundaryFold) {
  // Random flights, some of them saturated far past the per-flight cap,
  // read back window by window as a serial network does (seal on read): every
  // load and the maximum must equal a per-boundary fold over a std::map,
  // bit for bit.
  constexpr support::SimTime kWindow = 1'000;
  CongestionLedger ledger(kWindow);
  std::map<std::uint64_t, double> fold;
  support::Xoshiro256StarStar rng(11);
  support::SimTime now = 0;
  std::uint64_t capped = 0;
  for (int op = 0; op < 100'000; ++op) {
    now += static_cast<support::SimTime>(rng.next_below(300));
    const std::uint64_t epoch = static_cast<std::uint64_t>(now) / kWindow;
    if (epoch > 0 && rng.next_below(4) == 0) {
      ledger.seal_through(epoch - 1);
      const auto it = fold.find(epoch - 1);
      ASSERT_EQ(ledger.boundary_load(epoch - 1),
                it == fold.end() ? 0.0 : it->second)
          << "boundary " << epoch - 1;
    }
    support::SimTime span =
        static_cast<support::SimTime>(rng.next_below(6 * kWindow));
    if (rng.next_below(1'000) == 0) span = std::int64_t{1} << 40;
    const auto hops = static_cast<double>(1 + rng.next_below(12));
    ledger.add_flight(now, now + span, hops);
    const std::uint64_t first = epoch + 1;
    std::uint64_t last = static_cast<std::uint64_t>(now + span) / kWindow;
    if (last >= first + CongestionLedger::kMaxEpochsPerFlight) {
      last = first + CongestionLedger::kMaxEpochsPerFlight - 1;
      ++capped;
    }
    for (std::uint64_t j = first; j <= last; ++j) fold[j] += hops;
  }
  double max_load = 0.0;
  for (const auto& [boundary, load] : fold) max_load = std::max(max_load, load);
  EXPECT_GT(capped, 10u);
  EXPECT_EQ(ledger.max_boundary_load(), max_load);  // unsealed tail included
  ledger.seal_through(fold.rbegin()->first + 1);
  EXPECT_EQ(ledger.max_boundary_load(), max_load);
  for (const auto& [boundary, load] : fold) {
    ASSERT_EQ(ledger.boundary_load(boundary), load) << "boundary " << boundary;
  }
  EXPECT_EQ(ledger.boundary_load(fold.rbegin()->first + 1), 0.0);
  EXPECT_EQ(ledger.boundary_load(fold.rbegin()->first + 100), 0.0);
}

TEST(CongestionLedger, ShardedDrainThenSealMatchesAPerBoundaryFold) {
  // The sharded run loop's order: each window, every shard's pending
  // flights are folded in (ascending shard order), then the ledger is
  // sealed through t_min / window, then every shard reads boundaries of
  // the window [t_min, t_min + lookahead) while sending new flights that
  // wait for the next barrier.
  constexpr support::SimTime kWindow = 800;
  constexpr support::SimTime kLookahead = 600;
  constexpr int kShards = 4;
  CongestionLedger ledger(kWindow);
  std::map<std::uint64_t, double> fold;
  std::vector<std::tuple<support::SimTime, support::SimTime, double>>
      pending[kShards];
  std::vector<std::pair<std::uint64_t, double>> reads;
  support::Xoshiro256StarStar rng(5);
  support::SimTime t_min = 0;
  for (int window = 0; window < 5'000; ++window) {
    for (auto& shard : pending) {
      for (const auto& [send, arrival, hops] : shard) {
        ledger.add_flight(send, arrival, hops);
      }
      shard.clear();
    }
    ledger.seal_through(static_cast<std::uint64_t>(t_min) / kWindow);
    for (int shard = 0; shard < kShards; ++shard) {
      for (std::uint64_t i = rng.next_below(6); i > 0; --i) {
        const support::SimTime now =
            t_min + static_cast<support::SimTime>(rng.next_below(kLookahead));
        const std::uint64_t epoch = static_cast<std::uint64_t>(now) / kWindow;
        if (epoch > 0) {
          reads.emplace_back(epoch - 1, ledger.boundary_load(epoch - 1));
        }
        support::SimTime arrival =
            now + static_cast<support::SimTime>(rng.next_below(5 * kWindow));
        if (rng.next_below(2'000) == 0) arrival = std::int64_t{1} << 41;
        const auto hops = static_cast<double>(1 + rng.next_below(9));
        pending[shard].emplace_back(now, arrival, hops);
        const std::uint64_t first = epoch + 1;
        const std::uint64_t last =
            std::min(static_cast<std::uint64_t>(arrival) / kWindow,
                     first + CongestionLedger::kMaxEpochsPerFlight - 1);
        for (std::uint64_t j = first; j <= last; ++j) fold[j] += hops;
      }
    }
    t_min += kLookahead + static_cast<support::SimTime>(rng.next_below(400));
  }
  for (auto& shard : pending) {
    for (const auto& [send, arrival, hops] : shard) {
      ledger.add_flight(send, arrival, hops);
    }
  }
  ASSERT_GT(reads.size(), 10'000u);
  std::size_t loaded = 0;
  for (const auto& [boundary, load] : reads) {
    const auto it = fold.find(boundary);
    ASSERT_EQ(load, it == fold.end() ? 0.0 : it->second)
        << "boundary " << boundary;
    loaded += load > 0.0;
  }
  EXPECT_GT(loaded, reads.size() / 2);
  double max_load = 0.0;
  for (const auto& [boundary, load] : fold) max_load = std::max(max_load, load);
  EXPECT_EQ(ledger.max_boundary_load(), max_load);
}

/// Shard router stub: destinations at or above `first_remote` live on
/// another shard; posted messages are recorded instead of delivered.
class StubRouter final : public TestNetwork::Router {
 public:
  struct Post {
    topo::Rank dst;
    support::SimTime arrival;
    support::SimTime t_sched;
    topo::Rank src;
    int id;
  };

  explicit StubRouter(topo::Rank first_remote) : first_remote_(first_remote) {}

  bool is_remote(topo::Rank dst) const override { return dst >= first_remote_; }
  void post(topo::Rank dst, support::SimTime arrival, support::SimTime t_sched,
            topo::Rank src, TestMsg msg) override {
    posts.push_back({dst, arrival, t_sched, src, msg.id});
  }

  std::vector<Post> posts;

 private:
  topo::Rank first_remote_;
};

/// Naive reference for the differential test: the latency, congestion and
/// fault arithmetic spelled out from the separate LatencyModel queries, the
/// congestion load as a per-boundary fold over a std::map, and the
/// non-overtaking clamp over a std::map from (src, dst) to {last arrival,
/// deliveries in flight}, forgotten when the last delivery fires. It
/// predicts every delivery without an event engine.
class ReferenceNetwork {
 public:
  struct Delivery {
    support::SimTime at;
    support::SimTime t_sched;
    topo::Rank dst;
    topo::Rank src;
    std::uint64_t seq;
    int id;
  };

  ReferenceNetwork(const topo::LatencyModel& model, CongestionParams congestion,
                   fault::Injector& faults)
      : model_(model),
        congestion_(congestion),
        window_(congestion_window(congestion, model.params())),
        faults_(faults) {}

  void send(support::SimTime now, topo::Rank src, topo::Rank dst, int id,
            std::uint32_t bytes, fault::MsgClass cls) {
    retire_through(now);
    const auto key = (static_cast<std::uint64_t>(src) << 32) | dst;
    const fault::SendPlan plan = faults_.plan_send(key, cls, bytes);
    if (plan.drop) return;
    if (plan.duplicate) deliver(now, src, dst, id, bytes, plan.dup_latency_mult);
    deliver(now, src, dst, id, bytes, plan.latency_mult);
  }

  /// Forgets every delivery that has fired by `now`.
  void retire_through(support::SimTime now) {
    while (!pending_.empty() && pending_.begin()->first <= now) {
      const auto channel = pending_.begin()->second;
      pending_.erase(pending_.begin());
      if (--channels_[channel].in_flight == 0) channels_.erase(channel);
    }
  }

  /// Deliveries in the engine's total order: (time, t_sched, kind, rank,
  /// src, seq), every one a kNetworkDeliver to rank dst.
  std::vector<Delivery> deliveries() const {
    std::vector<Delivery> out = deliveries_;
    std::sort(out.begin(), out.end(), [](const Delivery& a, const Delivery& b) {
      return std::tie(a.at, a.t_sched, a.dst, a.src, a.seq) <
             std::tie(b.at, b.t_sched, b.dst, b.src, b.seq);
    });
    return out;
  }

  std::uint64_t clamps() const { return clamps_; }
  double max_load() const {
    double out = 0.0;
    for (const auto& [boundary, load] : load_) out = std::max(out, load);
    return out;
  }

 private:
  struct Channel {
    support::SimTime last_arrival = 0;
    std::uint32_t in_flight = 0;
  };

  void deliver(support::SimTime now, topo::Rank src, topo::Rank dst, int id,
               std::uint32_t bytes, double mult) {
    support::SimTime latency = model_.message_latency(src, dst, bytes);
    const bool congested =
        congestion_.enabled && !model_.layout().same_node(src, dst);
    const auto w = static_cast<std::uint64_t>(window_);
    if (congested || mult != 1.0) {
      double scaled = static_cast<double>(latency);
      if (congested) {
        const std::uint64_t epoch = static_cast<std::uint64_t>(now) / w;
        const auto it = load_.find(epoch - 1);
        const double load = epoch == 0 || it == load_.end() ? 0.0 : it->second;
        scaled *= 1.0 + load / congestion_.capacity_hops;
      }
      latency = static_cast<support::SimTime>(scaled * mult);
    }
    support::SimTime arrival = now + latency;
    const auto channel = std::make_pair(src, dst);
    const auto it = channels_.find(channel);
    if (it != channels_.end()) {
      if (arrival < it->second.last_arrival) {
        arrival = it->second.last_arrival;
        ++clamps_;
      }
      it->second.last_arrival = arrival;
      ++it->second.in_flight;
    } else {
      channels_[channel] = Channel{arrival, 1};
    }
    if (congested) {
      const auto hops = static_cast<double>(model_.hops(src, dst));
      const std::uint64_t last = static_cast<std::uint64_t>(arrival) / w;
      for (std::uint64_t j = static_cast<std::uint64_t>(now) / w + 1; j <= last;
           ++j) {
        load_[j] += hops;
      }
    }
    pending_.emplace(arrival, channel);
    deliveries_.push_back({arrival, now, dst, src, seq_++, id});
  }

  const topo::LatencyModel& model_;
  CongestionParams congestion_;
  support::SimTime window_;
  fault::Injector& faults_;
  std::map<std::uint64_t, double> load_;
  std::map<std::pair<topo::Rank, topo::Rank>, Channel> channels_;
  std::multimap<support::SimTime, std::pair<topo::Rank, topo::Rank>> pending_;
  std::vector<Delivery> deliveries_;
  std::uint64_t seq_ = 0;
  std::uint64_t clamps_ = 0;
};

/// (ranks, routed): routed runs send every message to the upper half of
/// the ranks through a StubRouter and hand each post straight back through
/// accept_remote, as the destination shard would.
class NetworkDifferential
    : public ::testing::TestWithParam<std::tuple<topo::Rank, bool>> {};

TEST_P(NetworkDifferential, MatchesNaiveReferenceClamp) {
  const topo::Rank ranks = std::get<0>(GetParam());
  const bool routed = std::get<1>(GetParam());
  topo::TofuMachine machine;
  // 8G for the smallest size so same-node traffic is in the mix too.
  const topo::JobLayout layout =
      ranks == 64 ? topo::JobLayout(machine, ranks, topo::Placement::kGrouped, 8)
                  : topo::JobLayout(machine, ranks, topo::Placement::kOnePerNode);
  const topo::LatencyModel model(layout);
  CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 2000.0;
  fault::FaultConfig fc;
  fc.drop_prob = 0.05;
  fc.dup_prob = 0.2;
  fc.jitter_frac = 0.3;
  fc.degraded_frac = 0.1;
  fc.seed = ranks;
  fault::Injector faults(fc, ranks);
  fault::Injector ref_faults(fc, ranks);

  Engine engine;
  std::vector<std::tuple<support::SimTime, topo::Rank, int>> got;
  TestNetwork net(
      engine, model,
      [&](topo::Rank dst, TestMsg m) { got.emplace_back(engine.now(), dst, m.id); },
      congestion, &faults);
  StubRouter router(ranks / 2);
  if (routed) net.set_router(&router);
  ReferenceNetwork ref(model, congestion, ref_faults);

  support::Xoshiro256StarStar rng(ranks);
  // Half the traffic stays among 16 hot ranks so channels see repeat sends.
  const auto pick = [&] {
    return static_cast<topo::Rank>(rng.next_below(2) == 0 ? rng.next_below(16)
                                                          : rng.next_below(ranks));
  };
  constexpr std::uint32_t kSizes[] = {0, 16, 560, 20'000};
  constexpr fault::MsgClass kClasses[] = {
      fault::MsgClass::kReliable, fault::MsgClass::kDroppable,
      fault::MsgClass::kDupOnly};
  support::SimTime now = 0;
  int id = 0;
  Tick tick;
  const auto send = [&](topo::Rank src, topo::Rank dst, fault::MsgClass cls) {
    const std::uint32_t bytes = kSizes[rng.next_below(4)];
    net.send(src, dst, TestMsg{id}, bytes, cls);
    for (const StubRouter::Post& p : router.posts) {
      net.accept_remote(p.arrival, p.t_sched, 1, p.src, p.dst, TestMsg{p.id});
    }
    router.posts.clear();
    ref.send(now, src, dst, id, bytes, cls);
    ++id;
  };
  for (int round = 0; round < 400; ++round) {
    // Land at `now`: every delivery due by then fires, none later.
    engine.schedule_at(now, tick, EventKind::kWorkerStep);
    engine.run_until(now + 1);
    ASSERT_EQ(engine.now(), now);
    // Rank 0's Terminate broadcast, twice: the second one after a quiet
    // spell in which every first-broadcast channel has landed and died.
    if (round == 200 || round == 300) {
      for (topo::Rank dst = 1; dst < ranks; ++dst) {
        send(0, dst, fault::MsgClass::kReliable);
      }
    }
    // A hot sender: more live channels at once than its row holds.
    if (rng.next_below(4) == 0) {
      const topo::Rank src = pick();
      for (std::uint64_t n = 5 + rng.next_below(8); n > 0; --n) {
        topo::Rank dst = static_cast<topo::Rank>(rng.next_below(ranks));
        if (dst == src) dst = (dst + 1) % ranks;
        send(src, dst, kClasses[rng.next_below(3)]);
      }
    }
    const auto sends = rng.next_below(48);
    for (std::uint64_t i = 0; i < sends; ++i) {
      const topo::Rank src = pick();
      topo::Rank dst = pick();
      if (dst == src) dst = (dst + 1) % ranks;
      send(src, dst, kClasses[rng.next_below(3)]);
    }
    now += static_cast<support::SimTime>(
        round == 299 ? 1'000'000 : rng.next_below(4'000));
  }
  engine.run();
  // The broadcast spills every channel but the four its row holds.
  EXPECT_GE(net.stats().peak_channels, ranks - 1 - ChannelRows::kWays);
  EXPECT_LE(net.stats().peak_channels, static_cast<std::uint64_t>(id));
  EXPECT_GT(ref.clamps(), 0u);
  EXPECT_GT(faults.stats().duplicated_messages, 0u);
  EXPECT_GT(ref.max_load(), 0.0);
  EXPECT_EQ(net.stats().max_load_hops, ref.max_load());

  const auto want = ref.deliveries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], std::make_tuple(want[i].at, want[i].dst, want[i].id))
        << "delivery " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Ranks, NetworkDifferential,
    ::testing::Combine(::testing::Values(64u, 512u, 8192u), ::testing::Bool()),
    [](const ::testing::TestParamInfo<std::tuple<topo::Rank, bool>>& param_info) {
      return std::to_string(std::get<0>(param_info.param)) +
             (std::get<1>(param_info.param) ? "_routed" : "_local");
    });

TEST_F(NetworkTest, RemoteSendsClampOnTheSender) {
  StubRouter router(32);
  net_.set_router(&router);
  net_.send(0, 63, TestMsg{1}, 100'000);  // 20 us serialization
  net_.send(0, 63, TestMsg{2}, 0);
  ASSERT_EQ(router.posts.size(), 2u);
  EXPECT_EQ(router.posts[0].arrival, model_.message_latency(0, 63, 100'000));
  // The tiny message would overtake by raw latency; the sender clamps it.
  EXPECT_LT(model_.message_latency(0, 63, 0), router.posts[0].arrival);
  EXPECT_EQ(router.posts[1].arrival, router.posts[0].arrival);
  EXPECT_EQ(router.posts[1].t_sched, 0);
  EXPECT_EQ(router.posts[1].src, 0u);
  EXPECT_EQ(router.posts[1].dst, 63u);
  // No local delivery was scheduled for them.
  EXPECT_EQ(engine_.pending(), 0u);
  // A local destination is still delivered here.
  net_.send(0, 5, TestMsg{3}, 0);
  EXPECT_EQ(router.posts.size(), 2u);
  engine_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].id, 3);
}

TEST_F(NetworkTest, AcceptedRemoteFlightsLeaveTheChannelStateAlone) {
  // A local flight on channel 3 -> 9 and an earlier flight on the same pair
  // accepted from another shard. Delivering the accepted one does no
  // channel work: a tiny local send after it still clamps to the local
  // flight's arrival.
  net_.send(3, 9, TestMsg{1}, 100'000);
  const auto local_at = model_.message_latency(3, 9, 100'000);
  net_.accept_remote(1'000, 0, 1, 3, 9, TestMsg{2});
  engine_.run_until(local_at);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].id, 2);
  EXPECT_EQ(log_[0].at, 1'000);
  ASSERT_LT(1'000 + model_.message_latency(3, 9, 0), local_at);
  net_.send(3, 9, TestMsg{3}, 0);
  engine_.run();
  ASSERT_EQ(log_.size(), 3u);
  EXPECT_EQ(log_[1].id, 1);
  EXPECT_EQ(log_[2].id, 3);
  EXPECT_EQ(log_[2].at, local_at);
  EXPECT_EQ(net_.stats().messages, 2u);  // the accepted one counted elsewhere
}

TEST_F(NetworkTest, RowSlotsFreeUpWhenTheSendersClockReachesTheirArrival) {
  StubRouter router(0);  // every destination is remote: no delivery events
  net_.set_router(&router);
  for (topo::Rank dst = 60; dst < 64; ++dst) {
    net_.send(2, dst, TestMsg{0}, 0);
  }
  support::SimTime first = std::numeric_limits<support::SimTime>::max();
  for (const StubRouter::Post& p : router.posts) {
    first = std::min(first, p.arrival);
  }
  Tick tick;
  const auto advance_to = [&](support::SimTime t) {
    engine_.schedule_at(t, tick, EventKind::kWorkerStep);
    engine_.run();
  };
  // One tick before the earliest arrival every row slot is live: a fifth
  // channel spills, here a large message.
  advance_to(first - 1);
  net_.send(2, 10, TestMsg{1}, 100'000);
  const auto spilled_at = router.posts.back().arrival;
  EXPECT_EQ(net_.stats().peak_channels, 1u);
  // At the earliest arrival its slot is dead and a new channel takes it.
  advance_to(first);
  net_.send(2, 11, TestMsg{2}, 0);
  EXPECT_EQ(net_.stats().peak_channels, 1u);
  EXPECT_EQ(router.posts.back().arrival,
            first + model_.message_latency(2, 11, 0));
  // The spilled channel still clamps from the overflow table.
  ASSERT_LT(first + model_.message_latency(2, 10, 0), spilled_at);
  net_.send(2, 10, TestMsg{3}, 0);
  EXPECT_EQ(router.posts.back().arrival, spilled_at);
  // Once the clock passes it, the clamp is gone.
  advance_to(spilled_at);
  net_.send(2, 10, TestMsg{4}, 0);
  EXPECT_EQ(router.posts.back().arrival,
            spilled_at + model_.message_latency(2, 10, 0));
}

}  // namespace
}  // namespace dws::sim
