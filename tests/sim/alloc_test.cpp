/// Steady-state allocation test for the typed event core. This binary
/// overrides the global allocator with a counting shim (same technique as
/// bench/micro_core.cpp) and asserts that once an engine workload has warmed
/// up — slab pools grown, calendar buckets at capacity, adaptive width
/// settled — the schedule/dispatch/deliver path performs ZERO heap
/// allocations. It must be its own test binary: the operator new/delete
/// overrides are process-wide.
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <new>

#include <gtest/gtest.h>

#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "topo/latency.hpp"

namespace {

std::atomic<std::uint64_t> g_alloc_count{0};

constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  void* raw = std::malloc(size + kHeader);
  if (!raw) throw std::bad_alloc();
  std::memcpy(raw, &size, sizeof(size));
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (!p) return;
  std::free(static_cast<char*>(p) - kHeader);
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace dws::sim {
namespace {

/// The micro_core actor workload, reduced: self-rescheduling steps plus
/// pooled payload deliveries — the exact shape of a simulated run's hot loop.
class Workload final : public EventSink {
 public:
  static constexpr std::uint32_t kActors = 256;

  explicit Workload(Engine& engine) : engine_(engine) {
    for (std::uint32_t a = 0; a < kActors; ++a) schedule_step(a);
  }

  void on_event(const Event& ev) override {
    if (ev.kind == EventKind::kWorkerStep) {
      if (++steps_ % 4 == 0) {
        const std::uint32_t dst = (ev.rank * 2654435761u) % kActors;
        engine_.schedule_after(2000, *this, EventKind::kNetworkDeliver, dst,
                               pool_.acquire(steps_));
      }
      schedule_step(ev.rank);
    } else {
      delivered_ += pool_.take(ev.payload) != 0 ? 1 : 0;
    }
  }

  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  void schedule_step(std::uint32_t actor) {
    noise_ = noise_ * 6364136223846793005ULL + actor + 1442695040888963407ULL;
    const auto delay =
        200 + static_cast<support::SimTime>((noise_ >> 33) % 1600);
    engine_.schedule_after(delay, *this, EventKind::kWorkerStep, actor);
  }

  Engine& engine_;
  SlabPool<std::uint64_t> pool_;
  std::uint64_t noise_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t steps_ = 0;
  std::uint64_t delivered_ = 0;
};

/// A workload reaches steady state once every container has grown to its
/// high-water capacity; from then on the typed event path must not allocate
/// at all. The warm-up length is workload-dependent (calendar buckets reach
/// their peak cluster size one by one as the window sweeps), so instead of
/// guessing it we scan fixed-size measurement windows for one with zero
/// allocations. A genuine per-event allocation (a closure, a heap node, a
/// copy) would make EVERY window allocate thousands of times, so the scan
/// still fails loudly on a real regression.
TEST(SteadyStateAllocation, TypedEventLoopAllocatesNothing) {
  Engine engine;
  Workload workload(engine);
  engine.run(2'000'000);  // initial warm-up: pools + adaptive width settle

  std::uint64_t last_window = 0;
  bool clean = false;
  for (int window = 0; window < 10 && !clean; ++window) {
    const std::uint64_t before = g_alloc_count.load();
    engine.run(1'000'000);
    last_window = g_alloc_count.load() - before;
    clean = last_window == 0;
  }
  EXPECT_TRUE(clean) << "typed event hot path never went allocation-free; "
                        "last 1M-event window allocated "
                     << last_window << " times";
  EXPECT_GT(workload.delivered(), 0u);
}

TEST(SteadyStateAllocation, NetworkSendDeliverAllocatesNothing) {
  // The full transport path: Network::send -> channel row -> slab park ->
  // kNetworkDeliver, on a fixed rank set whose senders often hold more live
  // channels than a row, so the overflow table's spill-and-prune churn must
  // be allocation-free too.
  topo::TofuMachine machine;
  topo::JobLayout layout(machine, 16, topo::Placement::kOnePerNode);
  topo::LatencyModel latency(layout);

  struct CountNonzero {
    std::uint64_t* received;
    void operator()(topo::Rank, std::uint64_t v) const { *received += v != 0; }
  };
  Engine engine;
  std::uint64_t received = 0;
  Network<std::uint64_t, CountNonzero> network(engine, latency,
                                               CountNonzero{&received});

  std::uint64_t noise = 1;
  const auto send_some = [&](int n) {
    for (int i = 0; i < n; ++i) {
      noise = noise * 6364136223846793005ULL + 1442695040888963407ULL;
      const auto src = static_cast<topo::Rank>((noise >> 33) % 16);
      const auto dst = static_cast<topo::Rank>((src + 1 + (noise >> 40) % 15) % 16);
      network.send(src, dst, noise | 1, 64);
    }
  };

  // Same windowed scan as above: the calendar's per-bucket capacities take
  // many window sweeps to reach their peak cluster size with such a small
  // in-flight population, so we look for the first allocation-free window
  // rather than hardcoding the warm-up length. Per-message allocations
  // (overflow table rebuilds, parked-message copies) would taint every
  // window.
  std::uint64_t last_window = 0;
  bool clean = false;
  for (int window = 0; window < 80 && !clean; ++window) {
    const std::uint64_t before = g_alloc_count.load();
    for (int round = 0; round < 500; ++round) {
      send_some(32);
      engine.run(32);
    }
    last_window = g_alloc_count.load() - before;
    clean = last_window == 0;
  }
  EXPECT_TRUE(clean) << "network send/deliver path never went "
                        "allocation-free; last 500-round window allocated "
                     << last_window << " times";
  EXPECT_GT(received, 0u);
  EXPECT_GT(network.stats().peak_channels, 0u);  // rows did spill
}

}  // namespace
}  // namespace dws::sim
