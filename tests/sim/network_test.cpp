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

TEST_F(NetworkTest, RetiresChannelsWhenTheLastDeliveryFires) {
  // Two messages on one channel, one on another: the channel table holds the
  // ordering state only while a delivery is in flight.
  net_.send(0, 5, TestMsg{1}, 16);
  net_.send(0, 5, TestMsg{2}, 16);
  net_.send(3, 7, TestMsg{3}, 16);
  EXPECT_EQ(net_.active_channels(), 2u);
  engine_.run();
  EXPECT_EQ(log_.size(), 3u);
  EXPECT_EQ(net_.active_channels(), 0u);  // all in-flight drained
  EXPECT_EQ(net_.stats().peak_channels, 2u);

  // Reusing a retired channel reopens it and the non-overtaking clamp starts
  // fresh: delivery is at plain now + latency.
  const auto before = engine_.now();
  net_.send(0, 5, TestMsg{4}, 16);
  EXPECT_EQ(net_.active_channels(), 1u);
  engine_.run();
  EXPECT_EQ(log_.back().at, before + model_.message_latency(0, 5, 16));
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().peak_channels, 2u);  // high-water, not current
}

TEST_F(NetworkTest, PeakChannelsTracksDistinctPairsNotMessages) {
  // Many messages over the same pair count once; the peak is bounded by the
  // number of concurrently in-flight (src, dst) pairs, which is what keeps
  // the channel table small on long runs.
  for (int i = 0; i < 10; ++i) net_.send(1, 2, TestMsg{i}, 8);
  EXPECT_EQ(net_.active_channels(), 1u);
  EXPECT_EQ(net_.stats().peak_channels, 1u);
  for (topo::Rank src = 10; src < 14; ++src) {
    net_.send(src, 20, TestMsg{0}, 8);
  }
  EXPECT_EQ(net_.stats().peak_channels, 5u);
  engine_.run();
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().messages, 14u);
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

TEST(ChannelTable, RandomChurnMatchesAMap) {
  // Random full-width ranks give random home slots, so probe runs collide
  // and backward-shift deletion has entries to move. The table must agree
  // with a std::map on every clamp and on its size at every step, while it
  // grows to thousands of live channels and drains again.
  ChannelTable table;
  std::map<std::uint64_t, std::pair<support::SimTime, std::uint32_t>> ref;
  std::vector<std::uint64_t> live;
  support::Xoshiro256StarStar rng(7);
  const auto retire_one = [&](std::size_t i) {
    const std::uint64_t key = live[i];
    table.retire(key);
    if (--ref[key].second == 0) {
      ref.erase(key);
      live[i] = live.back();
      live.pop_back();
    }
  };
  for (int op = 0; op < 200'000; ++op) {
    const std::uint64_t r = rng.next_below(10);
    const auto arrival = static_cast<support::SimTime>(rng.next_below(1'000'000));
    if (live.empty() || r < (op < 100'000 ? 5u : 2u)) {  // open a channel
      const auto src = static_cast<topo::Rank>(rng.next() >> 32);
      const auto dst = static_cast<topo::Rank>(rng.next() >> 32);
      const std::uint64_t key = ChannelTable::key(src, dst);
      if (src == dst || ref.count(key) != 0) continue;
      ASSERT_EQ(table.admit(key, arrival), arrival);
      ref[key] = {arrival, 1};
      live.push_back(key);
    } else if (r < 7) {  // one more flight on a live channel
      const std::uint64_t key = live[rng.next_below(live.size())];
      auto& [last, in_flight] = ref[key];
      last = std::max(last, arrival);
      ++in_flight;
      ASSERT_EQ(table.admit(key, arrival), last);
    } else {
      retire_one(rng.next_below(live.size()));
    }
    ASSERT_EQ(table.size(), ref.size()) << "op " << op;
  }
  EXPECT_GT(ref.size(), 1'000u);
  while (!live.empty()) retire_one(live.size() - 1);
  EXPECT_EQ(table.size(), 0u);
}

/// Naive reference for the differential test: the latency, congestion and
/// fault arithmetic spelled out from the separate LatencyModel queries, and
/// the non-overtaking clamp over a std::map from (src, dst) to {last
/// arrival, in flight}. It predicts every delivery and the live channel
/// count without an event engine.
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
        ledger_(congestion_window(congestion, model.params())),
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

  std::size_t active_channels() const { return channels_.size(); }
  std::uint64_t peak_channels() const { return peak_; }
  std::uint64_t clamps() const { return clamps_; }

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
    const auto w = static_cast<std::uint64_t>(ledger_.window());
    if (congested || mult != 1.0) {
      double scaled = static_cast<double>(latency);
      if (congested) {
        const std::uint64_t epoch = static_cast<std::uint64_t>(now) / w;
        const double load = epoch == 0 ? 0.0 : ledger_.boundary_load(epoch - 1);
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
    peak_ = std::max<std::uint64_t>(peak_, channels_.size());
    if (congested) {
      const auto hops = static_cast<double>(model_.hops(src, dst));
      const std::uint64_t last = static_cast<std::uint64_t>(arrival) / w;
      for (std::uint64_t j = static_cast<std::uint64_t>(now) / w + 1; j <= last;
           ++j) {
        ledger_.add(j, hops);
      }
    }
    pending_.emplace(arrival, channel);
    deliveries_.push_back({arrival, now, dst, src, seq_++, id});
  }

  const topo::LatencyModel& model_;
  CongestionParams congestion_;
  CongestionLedger ledger_;
  fault::Injector& faults_;
  std::map<std::pair<topo::Rank, topo::Rank>, Channel> channels_;
  std::multimap<support::SimTime, std::pair<topo::Rank, topo::Rank>> pending_;
  std::vector<Delivery> deliveries_;
  std::uint64_t seq_ = 0;
  std::uint64_t peak_ = 0;
  std::uint64_t clamps_ = 0;
};

class NetworkDifferential : public ::testing::TestWithParam<topo::Rank> {};

TEST_P(NetworkDifferential, MatchesNaiveReferenceClamp) {
  const topo::Rank ranks = GetParam();
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
  for (int round = 0; round < 400; ++round) {
    // Land at `now`: every delivery due by then fires, none later.
    engine.schedule_at(now, tick, EventKind::kWorkerStep);
    engine.run_until(now + 1);
    ASSERT_EQ(engine.now(), now);
    ref.retire_through(now);
    ASSERT_EQ(net.active_channels(), ref.active_channels()) << "round " << round;
    const auto send = [&](topo::Rank src, topo::Rank dst,
                          fault::MsgClass cls) {
      const std::uint32_t bytes = kSizes[rng.next_below(4)];
      net.send(src, dst, TestMsg{id}, bytes, cls);
      ref.send(now, src, dst, id, bytes, cls);
      ++id;
    };
    if (round == 200) {  // rank 0's Terminate broadcast
      for (topo::Rank dst = 1; dst < ranks; ++dst) {
        send(0, dst, fault::MsgClass::kReliable);
      }
    }
    const auto sends = rng.next_below(48);
    for (std::uint64_t i = 0; i < sends; ++i) {
      const topo::Rank src = pick();
      topo::Rank dst = pick();
      if (dst == src) dst = (dst + 1) % ranks;
      send(src, dst, kClasses[rng.next_below(3)]);
    }
    ASSERT_EQ(net.active_channels(), ref.active_channels()) << "round " << round;
    ASSERT_EQ(net.stats().peak_channels, ref.peak_channels()) << "round " << round;
    now += static_cast<support::SimTime>(rng.next_below(4'000));
  }
  engine.run();
  ref.retire_through(std::numeric_limits<support::SimTime>::max());
  EXPECT_EQ(net.active_channels(), 0u);
  EXPECT_EQ(ref.active_channels(), 0u);
  EXPECT_EQ(net.stats().peak_channels, ref.peak_channels());
  EXPECT_GE(net.stats().peak_channels, ranks - 1);  // the broadcast
  EXPECT_GT(ref.clamps(), 0u);
  EXPECT_GT(faults.stats().duplicated_messages, 0u);

  const auto want = ref.deliveries();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i], std::make_tuple(want[i].at, want[i].dst, want[i].id))
        << "delivery " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Ranks, NetworkDifferential,
                         ::testing::Values(64u, 512u, 8192u));

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
  // The sender owns the channel state; no local delivery was scheduled.
  EXPECT_EQ(net_.active_channels(), 1u);
  EXPECT_EQ(engine_.pending(), 0u);
  // A local destination is still delivered here.
  net_.send(0, 5, TestMsg{3}, 0);
  EXPECT_EQ(router.posts.size(), 2u);
  EXPECT_EQ(net_.active_channels(), 2u);
  engine_.run();
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].id, 3);
  EXPECT_EQ(net_.active_channels(), 1u);  // the remote one awaits its flush
}

TEST_F(NetworkTest, AcceptedRemoteFlightsSkipRetirement) {
  // A local flight on channel 3 -> 9 and an earlier remote flight on the
  // same pair, as a destination shard would receive it: delivering the
  // remote one must not retire the local channel state.
  net_.send(3, 9, TestMsg{1}, 100'000);
  const auto local_at = model_.message_latency(3, 9, 100'000);
  net_.accept_remote(1'000, 0, 1, 3, 9, TestMsg{2});
  EXPECT_EQ(net_.active_channels(), 1u);
  engine_.run_until(local_at);
  ASSERT_EQ(log_.size(), 1u);
  EXPECT_EQ(log_[0].id, 2);
  EXPECT_EQ(log_[0].at, 1'000);
  EXPECT_EQ(net_.active_channels(), 1u);
  engine_.run();
  ASSERT_EQ(log_.size(), 2u);
  EXPECT_EQ(log_[1].at, local_at);
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().messages, 1u);  // counted on the sending shard
}

TEST_F(NetworkTest, FlushRetiresExactlyTheChannelsThatHaveLanded) {
  StubRouter router(0);  // every destination is remote
  net_.set_router(&router);
  net_.send(0, 1, TestMsg{1}, 0);       // same blade: lands first
  net_.send(0, 63, TestMsg{2}, 0);      // network
  net_.send(2, 63, TestMsg{3}, 0);
  net_.send(2, 63, TestMsg{4}, 5'000);  // second flight, lands last
  ASSERT_EQ(router.posts.size(), 4u);
  const auto first = router.posts[0].arrival;
  const auto second = router.posts[1].arrival;
  const auto last = router.posts[3].arrival;
  ASSERT_LT(first, second);
  ASSERT_LT(second, last);
  ASSERT_LT(router.posts[2].arrival, last);
  EXPECT_EQ(net_.active_channels(), 3u);

  Tick tick;
  const auto advance_to = [&](support::SimTime t) {
    engine_.schedule_at(t, tick, EventKind::kWorkerStep);
    engine_.run();
    net_.flush_retirements();
  };
  advance_to(first - 1);
  EXPECT_EQ(net_.active_channels(), 3u);
  advance_to(first);  // arrival == now retires
  EXPECT_EQ(net_.active_channels(), 2u);
  advance_to(std::max(second, router.posts[2].arrival));
  EXPECT_EQ(net_.active_channels(), 1u);  // 2 -> 63 still has a flight
  advance_to(last);
  EXPECT_EQ(net_.active_channels(), 0u);
  EXPECT_EQ(net_.stats().peak_channels, 3u);

  // The retired channel's clamp is gone: a fresh send lands at now + latency.
  net_.send(2, 63, TestMsg{5}, 0);
  EXPECT_EQ(router.posts.back().arrival,
            last + model_.message_latency(2, 63, 0));
}

}  // namespace
}  // namespace dws::sim
