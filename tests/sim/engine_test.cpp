#include "sim/engine.hpp"

#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <vector>

#include "support/check.hpp"

namespace dws::sim {
namespace {

/// Records every typed event it receives, tagged with the engine clock, then
/// hands it to `then` (when set) so a test can react by scheduling more.
class RecordingSink final : public EventSink {
 public:
  struct Hit {
    support::SimTime at;
    EventKind kind;
    std::uint32_t rank;
    std::uint32_t payload;
    bool operator==(const Hit&) const = default;
  };

  explicit RecordingSink(Engine& engine) : engine_(engine) {}
  void on_event(const Event& ev) override {
    hits.push_back({engine_.now(), ev.kind, ev.rank, ev.payload});
    if (then) then(ev);
  }

  /// Payloads of the hits so far, in firing order.
  std::vector<std::uint32_t> payloads() const {
    std::vector<std::uint32_t> out;
    for (const Hit& h : hits) out.push_back(h.payload);
    return out;
  }

  std::vector<Hit> hits;
  std::function<void(const Event&)> then;

 private:
  Engine& engine_;
};

TEST(Engine, StartsAtTimeZero) {
  Engine e;
  EXPECT_EQ(e.now(), 0);
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_FALSE(e.step());
}

TEST(Engine, EventsFireInTimeOrder) {
  Engine e;
  RecordingSink sink(e);
  e.schedule_at(30, sink, EventKind::kWorkerStep, 0, 3);
  e.schedule_at(10, sink, EventKind::kWorkerStep, 0, 1);
  e.schedule_at(20, sink, EventKind::kWorkerStep, 0, 2);
  e.run();
  EXPECT_EQ(sink.payloads(), (std::vector<std::uint32_t>{1, 2, 3}));
  EXPECT_EQ(e.now(), 30);
}

TEST(Engine, TiesFireInScheduleOrder) {
  Engine e;
  RecordingSink sink(e);
  for (std::uint32_t i = 0; i < 10; ++i) {
    e.schedule_at(5, sink, EventKind::kWorkerStep, 0, i);
  }
  e.run();
  ASSERT_EQ(sink.hits.size(), 10u);
  for (std::uint32_t i = 0; i < 10; ++i) EXPECT_EQ(sink.hits[i].payload, i);
}

TEST(Engine, NowAdvancesToEventTime) {
  Engine e;
  RecordingSink sink(e);
  e.schedule_at(42, sink, EventKind::kWorkerStep);
  e.run();
  ASSERT_EQ(sink.hits.size(), 1u);
  EXPECT_EQ(sink.hits[0].at, 42);
  EXPECT_EQ(e.now(), 42);
}

TEST(Engine, ScheduleAfterIsRelative) {
  Engine e;
  RecordingSink sink(e);
  sink.then = [&](const Event& ev) {
    if (ev.payload == 0) {
      e.schedule_after(50, sink, EventKind::kWorkerStep, 0, 1);
    }
  };
  e.schedule_at(100, sink, EventKind::kWorkerStep, 0, 0);
  e.run();
  ASSERT_EQ(sink.hits.size(), 2u);
  EXPECT_EQ(sink.hits[1].at, 150);
}

TEST(Engine, EventsCanScheduleMoreEvents) {
  Engine e;
  RecordingSink sink(e);
  sink.then = [&](const Event&) {
    if (sink.hits.size() < 5) e.schedule_after(1, sink, EventKind::kWorkerStep);
  };
  e.schedule_at(0, sink, EventKind::kWorkerStep);
  e.run();
  EXPECT_EQ(sink.hits.size(), 5u);
  EXPECT_EQ(e.now(), 4);
}

TEST(Engine, MaxEventsLimitsExecution) {
  Engine e;
  RecordingSink sink(e);
  for (int i = 0; i < 10; ++i) e.schedule_at(i, sink, EventKind::kWorkerStep);
  EXPECT_EQ(e.run(4), 4u);
  EXPECT_EQ(sink.hits.size(), 4u);
  EXPECT_EQ(e.pending(), 6u);
  EXPECT_EQ(e.run(), 6u);
  EXPECT_EQ(sink.hits.size(), 10u);
}

TEST(Engine, CountsExecutedEvents) {
  Engine e;
  RecordingSink sink(e);
  for (int i = 0; i < 7; ++i) e.schedule_at(i, sink, EventKind::kWorkerStep);
  e.run();
  EXPECT_EQ(e.events_executed(), 7u);
}

TEST(Engine, SchedulingAtCurrentTimeIsAllowed) {
  Engine e;
  RecordingSink sink(e);
  sink.then = [&](const Event& ev) {
    if (ev.payload == 0) {
      e.schedule_at(e.now(), sink, EventKind::kWorkerStep, 0, 1);
    }
  };
  e.schedule_at(10, sink, EventKind::kWorkerStep, 0, 0);
  e.run();
  EXPECT_EQ(sink.payloads(), (std::vector<std::uint32_t>{0, 1}));
  EXPECT_EQ(e.now(), 10);
}

TEST(Engine, OverflowingDelayFailsTheCheckInsteadOfWrapping) {
  // schedule_after(huge) used to wrap SimTime and fire the event in the past;
  // now it must trip DWS_CHECK before corrupting the queue.
  Engine e;
  RecordingSink sink(e);
  e.schedule_at(100, sink, EventKind::kWorkerStep);
  e.run();
  ASSERT_EQ(e.now(), 100);

  struct CheckFailure {};
  static bool tripped;
  tripped = false;
  const auto prev = support::set_check_handler(
      [](const char*, const char*, int) { tripped = true; throw CheckFailure{}; });
  EXPECT_THROW(e.schedule_after(std::numeric_limits<support::SimTime>::max(),
                                sink, EventKind::kWorkerStep),
               CheckFailure);
  support::set_check_handler(prev);
  EXPECT_TRUE(tripped);
  EXPECT_EQ(e.pending(), 0u);  // the bad event was never enqueued

  // A maximal-but-legal delay is still accepted.
  e.schedule_after(std::numeric_limits<support::SimTime>::max() - e.now(),
                   sink, EventKind::kWorkerStep);
  EXPECT_EQ(e.pending(), 1u);
}

TEST(EngineTypedEvents, DispatchToTheScheduledSink) {
  Engine e;
  RecordingSink a(e), b(e);
  e.schedule_at(10, a, EventKind::kWorkerStep, 3, 7);
  e.schedule_at(5, b, EventKind::kNetworkDeliver, 1, 42);
  e.run();
  ASSERT_EQ(a.hits.size(), 1u);
  ASSERT_EQ(b.hits.size(), 1u);
  EXPECT_EQ(a.hits[0],
            (RecordingSink::Hit{10, EventKind::kWorkerStep, 3, 7}));
  EXPECT_EQ(b.hits[0],
            (RecordingSink::Hit{5, EventKind::kNetworkDeliver, 1, 42}));
  EXPECT_EQ(e.events_executed(), 2u);
}

TEST(EngineTypedEvents, SameInstantEventsOrderByKindThenRank) {
  // Events at the same (time, t_sched) order by the structural key
  // (kind, rank, src) before falling back to schedule order: kinds fire in
  // their EventKind declaration order, each (kind, rank) group internally
  // FIFO. The structural sort is the price of a shard-count-invariant event
  // order (see sim/event.hpp); same-key events still fire in exactly the
  // order they were scheduled.
  Engine e;
  RecordingSink sink(e);
  e.schedule_at(10, sink, EventKind::kSvcArrival, 0, 0);
  e.schedule_at(10, sink, EventKind::kWorkerStep, 1, 1);
  e.schedule_at(10, sink, EventKind::kWorkerStep, 0, 2);
  e.schedule_at(10, sink, EventKind::kNetworkDeliver, 0, 3);
  e.schedule_at(10, sink, EventKind::kWorkerStart, 0, 4);
  e.schedule_at(10, sink, EventKind::kWorkerStep, 0, 5);
  e.schedule_at(10, sink, EventKind::kTokenTimeout, 0, 6);
  e.schedule_at(10, sink, EventKind::kDeferredResponse, 0, 7);
  e.schedule_at(10, sink, EventKind::kStealTimeout, 0, 8);
  e.run();
  EXPECT_EQ(sink.payloads(),
            (std::vector<std::uint32_t>{3, 4, 2, 5, 1, 7, 8, 6, 0}));
}

TEST(Engine, TracksPendingHighWater) {
  Engine e;
  RecordingSink sink(e);
  for (int i = 0; i < 5; ++i) {
    e.schedule_at(10 + i, sink, EventKind::kWorkerStep, 0, 0);
  }
  EXPECT_EQ(e.max_pending(), 5u);
  e.run();
  EXPECT_EQ(e.pending(), 0u);
  EXPECT_EQ(e.max_pending(), 5u);  // high-water survives the drain
  e.schedule_at(100, sink, EventKind::kWorkerStep, 0, 0);
  EXPECT_EQ(e.max_pending(), 5u);  // ... and does not reset on reuse
}

TEST(EngineInject, OrdersCrossShardEventsBySenderScheduleTime) {
  // Regression for the sharded merge rule: two injected events arriving at
  // the SAME virtual time but scheduled at different sender times must fire
  // in t_sched order — the order an unsharded run would have produced — no
  // matter which mailbox drained first (i.e. which inject() ran first and
  // grabbed the smaller local seq).
  Engine e(/*shard_id=*/0);
  RecordingSink sink(e);
  e.inject(1000, /*t_sched=*/700, /*origin=*/2, /*src=*/8, sink,
           EventKind::kNetworkDeliver, 0, 2);  // later send, injected first
  e.inject(1000, /*t_sched=*/300, /*origin=*/1, /*src=*/4, sink,
           EventKind::kNetworkDeliver, 0, 1);  // earlier send wins
  e.schedule_at(1000, sink, EventKind::kWorkerStep, 0, 3);  // local, t_sched=0
  e.run();
  ASSERT_EQ(sink.hits.size(), 3u);
  EXPECT_EQ(sink.hits[0].payload, 3u);  // local event scheduled at t=0
  EXPECT_EQ(sink.hits[1].payload, 1u);
  EXPECT_EQ(sink.hits[2].payload, 2u);
  // Distinct t_sched values: the structural tail never decided anything.
  EXPECT_EQ(e.merge_ambiguities(), 0u);
}

TEST(EngineInject, EqualTimeDeliveriesOrderBySenderRank) {
  // Identical (time, t_sched) deliveries to one rank from different shards:
  // the structural key falls through to `src`, the sending rank. The sender
  // determines the sending shard, so this order is shard-count-invariant —
  // deterministic, and NOT an ambiguity.
  Engine e(/*shard_id=*/0);
  RecordingSink sink(e);
  e.inject(500, 500, /*origin=*/3, /*src=*/9, sink,
           EventKind::kNetworkDeliver, 0, 33);
  e.inject(500, 500, /*origin=*/1, /*src=*/4, sink,
           EventKind::kNetworkDeliver, 0, 11);
  e.run();
  ASSERT_EQ(sink.hits.size(), 2u);
  EXPECT_EQ(sink.hits[0].payload, 11u);  // src 4 before src 9
  EXPECT_EQ(sink.hits[1].payload, 33u);
  EXPECT_EQ(e.merge_ambiguities(), 0u);
}

TEST(EngineInject, FullKeyTieAcrossShardsIsCountedAsAmbiguous) {
  // A full structural-key tie between different origins cannot happen in the
  // sharded ws protocol — equal src means equal sending shard. Fabricate one
  // anyway: the order falls through to the local seq (injection order here),
  // which a serial run need not share, and the engine must count it so the
  // differential suite can prove it never happens for real.
  Engine e(/*shard_id=*/0);
  RecordingSink sink(e);
  e.inject(500, 500, /*origin=*/3, /*src=*/7, sink,
           EventKind::kNetworkDeliver, 2, 33);
  e.inject(500, 500, /*origin=*/1, /*src=*/7, sink,
           EventKind::kNetworkDeliver, 2, 11);
  e.run();
  ASSERT_EQ(sink.hits.size(), 2u);
  EXPECT_EQ(sink.hits[0].payload, 33u);  // local seq: injection order
  EXPECT_EQ(sink.hits[1].payload, 11u);
  EXPECT_EQ(e.merge_ambiguities(), 1u);
}

TEST(EngineInject, LocalTiesAreNotAmbiguous) {
  // Same-origin ties are the ordinary FIFO case — the counter must ignore
  // them, and injected events whose keys differ in t_sched as well.
  Engine e(/*shard_id=*/0);
  RecordingSink sink(e);
  e.schedule_at(100, sink, EventKind::kWorkerStep, 0, 1);
  e.schedule_at(100, sink, EventKind::kWorkerStep, 0, 2);
  e.inject(200, 150, /*origin=*/1, /*src=*/5, sink,
           EventKind::kNetworkDeliver, 0, 3);
  e.inject(200, 160, /*origin=*/2, /*src=*/6, sink,
           EventKind::kNetworkDeliver, 0, 4);
  e.run();
  ASSERT_EQ(sink.hits.size(), 4u);
  EXPECT_EQ(e.merge_ambiguities(), 0u);
}

TEST(EngineInject, RunUntilExecutesExactlyTheWindow) {
  // run_until(w_end) is the per-window execution primitive: strictly-before
  // semantics, clock parked at the last executed event, remainder intact.
  Engine e;
  RecordingSink sink(e);
  for (const support::SimTime t : {10, 20, 30, 40}) {
    e.schedule_at(t, sink, EventKind::kWorkerStep, 0,
                  static_cast<std::uint32_t>(t));
  }
  EXPECT_EQ(e.run_until(30), 2u);  // 10 and 20; 30 is NOT inside the window
  EXPECT_EQ(sink.hits.size(), 2u);
  EXPECT_EQ(e.now(), 20);
  EXPECT_EQ(e.next_event_time(999), 30);
  EXPECT_EQ(e.run_until(999), 2u);
  EXPECT_EQ(e.next_event_time(999), 999);  // horizon when drained
}

TEST(Engine, DeterministicAcrossRuns) {
  auto trace = [] {
    Engine e;
    RecordingSink sink(e);
    for (std::uint32_t i = 0; i < 50; ++i) {
      e.schedule_at(i % 7, sink, EventKind::kWorkerStep, 0, i);
    }
    e.run();
    return sink.hits;
  };
  EXPECT_EQ(trace(), trace());
}

}  // namespace
}  // namespace dws::sim
