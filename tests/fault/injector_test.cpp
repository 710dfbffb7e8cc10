#include "fault/fault.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

namespace dws::fault {
namespace {

std::uint64_t key(std::uint32_t src, std::uint32_t dst) {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

bool plan_eq(const SendPlan& a, const SendPlan& b) {
  return a.drop == b.drop && a.duplicate == b.duplicate &&
         a.latency_mult == b.latency_mult &&
         a.dup_latency_mult == b.dup_latency_mult;
}

FaultConfig lossy() {
  FaultConfig f;
  f.drop_prob = 0.3;
  f.dup_prob = 0.2;
  f.jitter_frac = 0.5;
  f.degraded_frac = 0.25;
  f.seed = 42;
  return f;
}

TEST(FaultConfig, DefaultIsDisabled) {
  EXPECT_FALSE(FaultConfig{}.enabled());
  EXPECT_FALSE(Injector(FaultConfig{}, 8).enabled());
}

TEST(FaultConfig, PauseNeedsBothKnobs) {
  FaultConfig f;
  f.pause_ranks = 2;
  EXPECT_FALSE(f.enabled());  // zero duration: no pause happens
  f.pause_duration = 100;
  EXPECT_TRUE(f.enabled());
}

TEST(Injector, SameSeedReplaysTheExactPlanSequence) {
  Injector a(lossy(), 16);
  Injector b(lossy(), 16);
  for (int i = 0; i < 500; ++i) {
    const auto k = key(static_cast<std::uint32_t>(i % 16),
                       static_cast<std::uint32_t>((i + 3) % 16));
    const SendPlan pa = a.plan_send(k, MsgClass::kDroppable, 64);
    const SendPlan pb = b.plan_send(k, MsgClass::kDroppable, 64);
    ASSERT_EQ(pa.drop, pb.drop);
    ASSERT_EQ(pa.duplicate, pb.duplicate);
    ASSERT_EQ(pa.latency_mult, pb.latency_mult);
    ASSERT_EQ(pa.dup_latency_mult, pb.dup_latency_mult);
  }
  EXPECT_EQ(a.stats().dropped_messages, b.stats().dropped_messages);
  EXPECT_EQ(a.stats().duplicated_messages, b.stats().duplicated_messages);
  EXPECT_EQ(a.stats().dropped_bytes, b.stats().dropped_bytes);
  EXPECT_EQ(a.stats().duplicated_bytes, b.stats().duplicated_bytes);
}

TEST(Injector, SendCounterIsPartOfTheState) {
  // Same channel, consecutive sends: the verdicts must not be identical for
  // all of them (the counter decorrelates repeats on one channel).
  Injector inj(lossy(), 4);
  bool saw_drop = false;
  bool saw_keep = false;
  for (int i = 0; i < 200; ++i) {
    const SendPlan p = inj.plan_send(key(0, 1), MsgClass::kDroppable, 8);
    (p.drop ? saw_drop : saw_keep) = true;
  }
  EXPECT_TRUE(saw_drop);
  EXPECT_TRUE(saw_keep);
}

TEST(Injector, DifferentSeedsDisagree) {
  FaultConfig other = lossy();
  other.seed = 43;
  Injector a(lossy(), 16);
  Injector b(other, 16);
  int disagreements = 0;
  for (int i = 0; i < 200; ++i) {
    const SendPlan pa = a.plan_send(key(0, 1), MsgClass::kDroppable, 8);
    const SendPlan pb = b.plan_send(key(0, 1), MsgClass::kDroppable, 8);
    if (pa.drop != pb.drop || pa.latency_mult != pb.latency_mult) {
      ++disagreements;
    }
  }
  EXPECT_GT(disagreements, 0);
}

TEST(Injector, ReliableMessagesAreNeverTouched) {
  FaultConfig f = lossy();
  f.drop_prob = 0.999;
  f.dup_prob = 0.999;
  Injector inj(f, 8);
  for (int i = 0; i < 1000; ++i) {
    const SendPlan p = inj.plan_send(key(1, 2), MsgClass::kReliable, 32);
    ASSERT_FALSE(p.drop);
    ASSERT_FALSE(p.duplicate);
  }
  EXPECT_EQ(inj.stats().dropped_messages, 0u);
  EXPECT_EQ(inj.stats().duplicated_messages, 0u);
}

TEST(Injector, DupOnlyMessagesDuplicateButNeverDrop) {
  FaultConfig f = lossy();
  f.drop_prob = 0.999;
  f.dup_prob = 0.5;
  Injector inj(f, 8);
  int dups = 0;
  for (int i = 0; i < 1000; ++i) {
    const SendPlan p = inj.plan_send(key(1, 2), MsgClass::kDupOnly, 32);
    ASSERT_FALSE(p.drop);
    if (p.duplicate) ++dups;
  }
  EXPECT_GT(dups, 300);
  EXPECT_LT(dups, 700);
  EXPECT_EQ(inj.stats().dropped_messages, 0u);
}

TEST(Injector, DropRateMatchesTheConfiguredProbability) {
  FaultConfig f;
  f.drop_prob = 0.3;
  Injector inj(f, 8);
  const int sends = 10000;
  for (int i = 0; i < sends; ++i) {
    inj.plan_send(key(static_cast<std::uint32_t>(i % 8), 7),
                  MsgClass::kDroppable, 100);
  }
  const double expected = 0.3 * sends;
  const double sigma = std::sqrt(0.3 * 0.7 * sends);
  EXPECT_NEAR(static_cast<double>(inj.stats().dropped_messages), expected,
              5.0 * sigma);
  EXPECT_EQ(inj.stats().dropped_bytes, inj.stats().dropped_messages * 100);
}

TEST(Injector, JitterBoundsTheLatencyMultiplier) {
  FaultConfig f;
  f.jitter_frac = 0.5;
  Injector inj(f, 8);
  bool jittered = false;
  for (int i = 0; i < 500; ++i) {
    const SendPlan p = inj.plan_send(key(2, 3), MsgClass::kDroppable, 8);
    ASSERT_GE(p.latency_mult, 1.0);
    ASSERT_LT(p.latency_mult, 1.5);
    if (p.latency_mult > 1.0) jittered = true;
  }
  EXPECT_TRUE(jittered);
}

TEST(Injector, DegradedLinksCompoundWithJitter) {
  FaultConfig f;
  f.jitter_frac = 0.5;
  f.degraded_frac = 1.0;  // every channel degraded
  f.degraded_mult = 3.0;
  Injector inj(f, 8);
  for (int i = 0; i < 100; ++i) {
    const SendPlan p = inj.plan_send(key(2, 3), MsgClass::kDroppable, 8);
    ASSERT_GE(p.latency_mult, 3.0);
    ASSERT_LT(p.latency_mult, 4.5);
  }
}

TEST(Injector, LinkDegradationIsAPureFunctionOfTheChannel) {
  FaultConfig f;
  f.degraded_frac = 0.25;
  Injector inj(f, 64);
  int degraded = 0;
  for (std::uint32_t s = 0; s < 40; ++s) {
    for (std::uint32_t d = 0; d < 40; ++d) {
      if (s == d) continue;
      const bool first = inj.link_degraded(key(s, d));
      EXPECT_EQ(first, inj.link_degraded(key(s, d)));  // stable
      if (first) ++degraded;
    }
  }
  // 1560 directed channels at 25%: loose 5-sigma band around 390.
  EXPECT_NEAR(degraded, 390, 5.0 * std::sqrt(1560 * 0.25 * 0.75));
}

TEST(Injector, ChannelInterleavingDoesNotChangePerChannelPlans) {
  // The shard-invariance property: a channel's plan sequence is a pure
  // function of (seed, channel, per-channel send count), so feeding the
  // channels round-robin or channel-major — or through different injector
  // instances entirely, as the sharded runtime does — yields the same
  // per-channel plans and the same global tallies.
  const std::vector<std::uint64_t> chans = {key(0, 1), key(1, 0), key(2, 7),
                                            key(7, 2)};
  const int per_chan = 200;

  Injector round_robin(lossy(), 8);
  std::vector<std::vector<SendPlan>> rr(chans.size());
  for (int i = 0; i < per_chan; ++i) {
    for (std::size_t c = 0; c < chans.size(); ++c) {
      rr[c].push_back(
          round_robin.plan_send(chans[c], MsgClass::kDroppable, 64));
    }
  }

  Injector channel_major(lossy(), 8);
  for (std::size_t c = 0; c < chans.size(); ++c) {
    for (int i = 0; i < per_chan; ++i) {
      const SendPlan p =
          channel_major.plan_send(chans[c], MsgClass::kDroppable, 64);
      ASSERT_TRUE(plan_eq(p, rr[c][static_cast<std::size_t>(i)]))
          << "channel " << c << " send " << i;
    }
  }
  EXPECT_EQ(round_robin.stats().dropped_messages,
            channel_major.stats().dropped_messages);
  EXPECT_EQ(round_robin.stats().duplicated_messages,
            channel_major.stats().duplicated_messages);

  // Sharded shape: two injectors, each owning half the channels, together
  // reproduce the single injector's per-channel plans.
  Injector left(lossy(), 8);
  Injector right(lossy(), 8);
  for (int i = 0; i < per_chan; ++i) {
    ASSERT_TRUE(plan_eq(left.plan_send(chans[0], MsgClass::kDroppable, 64),
                        rr[0][static_cast<std::size_t>(i)]));
    ASSERT_TRUE(plan_eq(right.plan_send(chans[2], MsgClass::kDroppable, 64),
                        rr[2][static_cast<std::size_t>(i)]));
  }
}

TEST(Injector, PerChannelStatsSumToTheGlobalStats) {
  Injector inj(lossy(), 16);
  const int sends = 5000;
  for (int i = 0; i < sends; ++i) {
    inj.plan_send(key(static_cast<std::uint32_t>(i % 7),
                      static_cast<std::uint32_t>(7 + i % 5)),
                  MsgClass::kDroppable, 64);
  }
  std::uint64_t total_sends = 0;
  std::uint64_t drops = 0;
  std::uint64_t dups = 0;
  for (const auto& [chan, state] : inj.channels()) {
    total_sends += state.sends;
    drops += state.dropped_messages;
    dups += state.duplicated_messages;
  }
  EXPECT_EQ(total_sends, static_cast<std::uint64_t>(sends));
  EXPECT_EQ(drops, inj.stats().dropped_messages);
  EXPECT_EQ(dups, inj.stats().duplicated_messages);
  EXPECT_GT(drops, 0u);  // at 30% drop over 5000 sends this cannot be empty
  EXPECT_EQ(inj.channels().size(), 35u);  // 7 sources x 5 destinations
}

TEST(Injector, PlansSurviveTableGrowth) {
  // Every ordered pair of 256 ranks: the channel table grows from 64 slots
  // to 128K while the first round inserts 65,280 channels. A channel whose
  // entry a growth lost or misplaced would restart its send counter in the
  // next round, and its plans would diverge from a channel-major replay on
  // a fresh injector.
  constexpr std::uint32_t kRanks = 256;
  constexpr int kRounds = 3;
  std::vector<std::uint64_t> chans;
  for (std::uint32_t src = 0; src < kRanks; ++src) {
    for (std::uint32_t dst = 0; dst < kRanks; ++dst) {
      if (src != dst) chans.push_back(key(src, dst));
    }
  }

  Injector round_robin(lossy(), kRanks);
  std::vector<SendPlan> plans(chans.size() * kRounds);
  for (int r = 0; r < kRounds; ++r) {
    for (std::size_t c = 0; c < chans.size(); ++c) {
      plans[c * kRounds + static_cast<std::size_t>(r)] =
          round_robin.plan_send(chans[c], MsgClass::kDroppable, 64);
    }
  }

  Injector channel_major(lossy(), kRanks);
  for (std::size_t c = 0; c < chans.size(); ++c) {
    for (int r = 0; r < kRounds; ++r) {
      ASSERT_TRUE(plan_eq(
          channel_major.plan_send(chans[c], MsgClass::kDroppable, 64),
          plans[c * kRounds + static_cast<std::size_t>(r)]))
          << "channel " << c << " send " << r;
    }
  }

  ASSERT_EQ(round_robin.channels().size(), chans.size());
  std::size_t visited = 0;
  for (const auto& [chan, state] : round_robin.channels()) {
    ASSERT_EQ(state.sends, static_cast<std::uint64_t>(kRounds))
        << "channel " << chan;
    ++visited;
  }
  EXPECT_EQ(visited, chans.size());
  EXPECT_EQ(round_robin.stats().dropped_messages,
            channel_major.stats().dropped_messages);
  EXPECT_EQ(round_robin.stats().duplicated_messages,
            channel_major.stats().duplicated_messages);
}

TEST(Injector, StragglerCountIsExactAndDeterministic) {
  FaultConfig f;
  f.straggler_ranks = 4;
  f.straggler_factor = 4.0;
  Injector a(f, 16);
  Injector b(f, 16);
  int count = 0;
  for (std::uint32_t r = 0; r < 16; ++r) {
    EXPECT_EQ(a.is_straggler(r), b.is_straggler(r));
    if (a.is_straggler(r)) {
      ++count;
      EXPECT_EQ(a.scaled_node_cost(r, 1000), 4000);
    } else {
      EXPECT_EQ(a.scaled_node_cost(r, 1000), 1000);
    }
  }
  EXPECT_EQ(count, 4);
}

TEST(Injector, StragglerChoiceDependsOnTheSeed) {
  FaultConfig f;
  f.straggler_ranks = 4;
  FaultConfig g = f;
  g.seed = 99;
  Injector a(f, 64);
  Injector b(g, 64);
  std::vector<std::uint32_t> sa, sb;
  for (std::uint32_t r = 0; r < 64; ++r) {
    if (a.is_straggler(r)) sa.push_back(r);
    if (b.is_straggler(r)) sb.push_back(r);
  }
  EXPECT_EQ(sa.size(), 4u);
  EXPECT_EQ(sb.size(), 4u);
  EXPECT_NE(sa, sb);
}

TEST(Injector, PausesLandInsideTheWindow) {
  FaultConfig f;
  f.pause_ranks = 3;
  f.pause_duration = 100;
  f.pause_window = 1000;
  Injector inj(f, 8);
  int with_pause = 0;
  for (std::uint32_t r = 0; r < 8; ++r) {
    if (const auto start = inj.pause_start(r)) {
      ++with_pause;
      EXPECT_GE(*start, 0);
      EXPECT_LE(*start, 1000);
    }
  }
  EXPECT_EQ(with_pause, 3);
}

}  // namespace
}  // namespace dws::fault
