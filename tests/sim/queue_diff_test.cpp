/// Randomized differential test: CalendarQueue against a reference binary
/// heap, on push/pop interleavings chosen to stress everything the calendar
/// does that a heap does not — window re-anchors (far-future jumps),
/// adaptive-width rebuilds (drifting inter-event gaps), equal-timestamp FIFO
/// runs (seq tiebreak), and pushes into the partially drained cursor bucket
/// (zero-delay events).
#include <algorithm>
#include <cstdint>
#include <limits>
#include <queue>
#include <vector>

#include <gtest/gtest.h>

#include "sim/event.hpp"
#include "sim/queue.hpp"
#include "support/rng.hpp"

namespace dws::sim {
namespace {

struct HeapLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    return a.seq > b.seq;
  }
};

/// Reference model: a plain binary heap over the same (time, seq) order.
class ReferenceQueue {
 public:
  void push(const Event& ev) { heap_.push(ev); }
  bool pop(Event& out) {
    if (heap_.empty()) return false;
    out = heap_.top();
    heap_.pop();
    return true;
  }
  support::SimTime peek_time() const { return heap_.top().time; }
  std::size_t size() const { return heap_.size(); }

 private:
  std::priority_queue<Event, std::vector<Event>, HeapLater> heap_;
};

/// Drives both queues through an identical operation stream and asserts
/// every popped event matches exactly. `delay_fn(rng)` shapes the schedule
/// lookahead distribution.
template <typename DelayFn>
void run_differential(std::uint64_t seed, int ops, double push_bias,
                      DelayFn delay_fn) {
  support::Xoshiro256StarStar rng(seed);
  CalendarQueue calendar;
  ReferenceQueue reference;
  support::SimTime now = 0;
  std::uint64_t seq = 0;

  auto push_one = [&] {
    // t_sched = now, exactly as Engine::schedule_at stamps it, with the
    // structural fields (kind, rank, src) held constant so the full
    // (time, t_sched, kind, rank, src, seq) key reduces to (time, t_sched,
    // seq). The reference heap orders by (time, seq) alone — equivalent
    // here, because among equal-time events t_sched (= push-time now) and
    // seq are both monotone in push order — so every passing run checks the
    // calendar against that reduction. The event's identity travels in
    // payload, which the comparator ignores.
    const Event ev{now + delay_fn(rng), now, seq++, nullptr,
                   EventKind::kWorkerStep, 0, 0,
                   static_cast<std::uint32_t>(seq)};
    calendar.push(ev);
    reference.push(ev);
  };

  push_one();  // never start empty
  for (int i = 0; i < ops; ++i) {
    const bool do_push =
        reference.size() == 0 || rng.next_double() < push_bias;
    if (do_push) {
      push_one();
      continue;
    }
    Event got{}, want{};
    ASSERT_TRUE(calendar.pop(got));
    ASSERT_TRUE(reference.pop(want));
    ASSERT_EQ(got.time, want.time) << "op " << i;
    ASSERT_EQ(got.seq, want.seq) << "op " << i;
    ASSERT_EQ(got.rank, want.rank);
    ASSERT_EQ(got.payload, want.payload);
    ASSERT_GE(got.time, now);  // total order never goes backwards
    now = got.time;
  }
  // Drain both completely.
  Event got{}, want{};
  while (reference.pop(want)) {
    ASSERT_TRUE(calendar.pop(got));
    ASSERT_EQ(got.time, want.time);
    ASSERT_EQ(got.seq, want.seq);
  }
  ASSERT_FALSE(calendar.pop(got));
  ASSERT_TRUE(calendar.empty());
}

TEST(QueueDifferential, SimulationShapedDelays) {
  // Mirrors a run's mix: short step delays plus a tail of network latencies.
  auto delay = [](support::Xoshiro256StarStar& rng) -> support::SimTime {
    if (rng.next_double() < 0.25) {
      return 2000 + static_cast<support::SimTime>(rng.next_below(20000));
    }
    return 200 + static_cast<support::SimTime>(rng.next_below(1600));
  };
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    run_differential(seed, 60000, 0.55, delay);
  }
}

TEST(QueueDifferential, EqualTimestampFifoRuns) {
  // Long runs of identical timestamps: pops must come back in push (seq)
  // order, the engine's scheduled-order guarantee.
  auto delay = [](support::Xoshiro256StarStar& rng) -> support::SimTime {
    return rng.next_double() < 0.9
               ? 0
               : static_cast<support::SimTime>(rng.next_below(3));
  };
  for (std::uint64_t seed = 11; seed <= 14; ++seed) {
    run_differential(seed, 40000, 0.5, delay);
  }
}

TEST(QueueDifferential, FarFutureJumpsForceWindowAdvances) {
  // Delays far beyond any sane bucket span: almost everything lands in the
  // far tier and migrates across repeated window re-anchors.
  auto delay = [](support::Xoshiro256StarStar& rng) -> support::SimTime {
    if (rng.next_double() < 0.3) {
      return static_cast<support::SimTime>(rng.next_below(1'000'000'000));
    }
    return static_cast<support::SimTime>(rng.next_below(500));
  };
  for (std::uint64_t seed = 21; seed <= 24; ++seed) {
    run_differential(seed, 40000, 0.5, delay);
  }
}

TEST(QueueDifferential, DriftingGapScaleForcesRetunes) {
  // The inter-event gap scale swings by 1000x in waves, so the adaptive
  // width keeps chasing it through rebuilds.
  int phase = 0;
  auto delay = [&phase](support::Xoshiro256StarStar& rng) -> support::SimTime {
    ++phase;
    const std::uint64_t scale = ((phase / 20000) % 2 == 0) ? 100 : 100'000;
    return 1 + static_cast<support::SimTime>(rng.next_below(scale));
  };
  run_differential(31, 120000, 0.55, delay);
}

TEST(QueueDifferential, NearlyEmptyAndBurstyQueues) {
  // Pop-heavy traffic keeps the queue at a handful of events, then push
  // bursts refill it — exercises the small-size retune guard and repeated
  // empty/refill cycles.
  auto delay = [](support::Xoshiro256StarStar& rng) -> support::SimTime {
    return static_cast<support::SimTime>(rng.next_below(5000));
  };
  for (std::uint64_t seed = 41; seed <= 44; ++seed) {
    run_differential(seed, 30000, 0.35, delay);
  }
}

TEST(QueueDifferential, PeekTimeIsExactAndReadOnly) {
  // Regression: peek_time must NOT advance the drain cursor. The sharded
  // window loop peeks once per window and then keeps pushing into the queue;
  // a peek that retires cursor buckets (without raising the floor the way
  // pop does) strands later pushes in buckets the cursor already passed, and
  // those events sit unexecuted until an unrelated window re-anchor — they
  // then fire LATE, emitting sends at stale virtual times. Interleaving a
  // peek before every operation reproduces exactly that footgun: any
  // cursor movement during peek makes a subsequent pop or a later peek
  // disagree with the reference heap.
  auto delay = [](support::Xoshiro256StarStar& rng) -> support::SimTime {
    const double roll = rng.next_double();
    if (roll < 0.1) {  // far tier, forces occupied-bucket scans in peek
      return 1'000'000 + static_cast<support::SimTime>(rng.next_below(1u << 30));
    }
    if (roll < 0.4) return 0;  // lands in the partially drained cursor bucket
    return static_cast<support::SimTime>(rng.next_below(4000));
  };
  for (std::uint64_t seed = 51; seed <= 54; ++seed) {
    support::Xoshiro256StarStar rng(seed);
    CalendarQueue calendar;
    ReferenceQueue reference;
    support::SimTime now = 0;
    std::uint64_t seq = 0;
    for (int i = 0; i < 50000; ++i) {
      if (reference.size() > 0) {
        ASSERT_EQ(calendar.peek_time(), reference.peek_time()) << "op " << i;
        // A second peek must see the same thing — peeking is idempotent.
        ASSERT_EQ(calendar.peek_time(), reference.peek_time()) << "op " << i;
      }
      if (reference.size() == 0 || rng.next_double() < 0.5) {
        const Event ev{now + delay(rng), now, seq++, nullptr,
                       EventKind::kWorkerStep, 0, 0, 0};
        calendar.push(ev);
        reference.push(ev);
      } else {
        Event got{}, want{};
        ASSERT_TRUE(calendar.pop(got));
        ASSERT_TRUE(reference.pop(want));
        ASSERT_EQ(got.time, want.time) << "op " << i;
        ASSERT_EQ(got.seq, want.seq) << "op " << i;
        now = got.time;
      }
    }
  }
}

TEST(QueueDifferential, MaxTimeEventsDoNotOverflow) {
  // Events at SimTime max must neither overflow the window arithmetic nor
  // disturb the order.
  CalendarQueue calendar;
  ReferenceQueue reference;
  constexpr support::SimTime kMax =
      std::numeric_limits<support::SimTime>::max();
  std::uint64_t seq = 0;
  for (const support::SimTime t :
       {support::SimTime{0}, kMax, support::SimTime{5}, kMax - 1, kMax,
        support::SimTime{5}}) {
    const Event ev{t, 0, seq++, nullptr, EventKind::kWorkerStep, 0, 0, 0};
    calendar.push(ev);
    reference.push(ev);
  }
  Event got{}, want{};
  while (reference.pop(want)) {
    ASSERT_TRUE(calendar.pop(got));
    EXPECT_EQ(got.time, want.time);
    EXPECT_EQ(got.seq, want.seq);
  }
  EXPECT_FALSE(calendar.pop(got));
}

TEST(CalendarQueue, TracksSizeAndHighWater) {
  CalendarQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.max_size(), 0u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    q.push(Event{static_cast<support::SimTime>(i * 7), 0, i, nullptr,
                 EventKind::kWorkerStep, 0, 0, 0});
  }
  EXPECT_EQ(q.size(), 100u);
  EXPECT_EQ(q.max_size(), 100u);
  Event ev{};
  for (int i = 0; i < 60; ++i) ASSERT_TRUE(q.pop(ev));
  EXPECT_EQ(q.size(), 40u);
  EXPECT_EQ(q.max_size(), 100u);  // high-water never resets
}

}  // namespace
}  // namespace dws::sim
