/// Component micro-benchmarks (google-benchmark): the hot paths every
/// simulated run leans on. Not a paper figure; used to keep the simulator
/// fast enough that the figure benches regenerate in minutes.
///
/// Besides the google-benchmark suite, `micro_core --core-report[=PATH]`
/// measures the event core itself — events/sec through the engine on a
/// steal/poll/delivery-shaped workload, heap traffic per event (via the
/// counting global allocator below), and the queue high-water mark — and
/// writes the numbers as JSON (default BENCH_core.json). The committed
/// BENCH_core.json holds the recorded baseline the CI perf-smoke job gates
/// against.
#include <benchmark/benchmark.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "crypto/detail/sha1_compress.hpp"
#include "crypto/sha1.hpp"
#include "crypto/uts_rng.hpp"
#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "support/alias_table.hpp"
#include "support/rejection_sampler.hpp"
#include "support/rng.hpp"
#include "topo/latency.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "uts/tree.hpp"
#include "proto/chunk_stack.hpp"
#include "ws/scheduler.hpp"
#include "proto/victim.hpp"

// ---------------------------------------------------------------------------
// Counting allocator hook: every heap allocation in this binary goes through
// these overrides. The core report samples the counters around the measured
// loops to report allocs/bytes per event; tests/sim/alloc_test.cpp asserts
// the same property (zero steady-state allocation) as a tier-1 test.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
std::atomic<std::uint64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_peak_bytes{0};

void count_alloc(std::size_t size) noexcept {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  const std::uint64_t live =
      g_live_bytes.fetch_add(size, std::memory_order_relaxed) + size;
  std::uint64_t peak = g_peak_bytes.load(std::memory_order_relaxed);
  while (live > peak &&
         !g_peak_bytes.compare_exchange_weak(peak, live,
                                             std::memory_order_relaxed)) {
  }
}

// Allocation sizes are recovered via a small header so frees can decrement
// the live counter (sized delete is not guaranteed to be called).
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_new(std::size_t size) {
  count_alloc(size);
  void* raw = std::malloc(size + kHeader);
  if (!raw) throw std::bad_alloc();
  std::memcpy(raw, &size, sizeof(size));
  return static_cast<char*>(raw) + kHeader;
}

void counted_delete(void* p) noexcept {
  if (!p) return;
  char* raw = static_cast<char*>(p) - kHeader;
  std::size_t size = 0;
  std::memcpy(&size, raw, sizeof(size));
  g_live_bytes.fetch_sub(size, std::memory_order_relaxed);
  std::free(raw);
}
}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
void operator delete(void* p) noexcept { counted_delete(p); }
void operator delete[](void* p) noexcept { counted_delete(p); }
void operator delete(void* p, std::size_t) noexcept { counted_delete(p); }
void operator delete[](void* p, std::size_t) noexcept { counted_delete(p); }

namespace {

using namespace dws;

void BM_Sha1Digest(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha1::digest(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha1Digest)->Arg(24)->Arg(64)->Arg(1024);

void BM_UtsRngSpawn(benchmark::State& state) {
  auto node = crypto::UtsRng::from_seed(316);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.spawn(i++ & 0xff));
  }
}
BENCHMARK(BM_UtsRngSpawn);

// The portable path spawn takes on CPUs without the SHA extensions.
void BM_UtsRngSpawnScalar(benchmark::State& state) {
  const auto node = crypto::UtsRng::from_seed(316).state();
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::detail::spawn_digest(
        node, i++ & 0xff, crypto::detail::sha1_compress));
  }
}
BENCHMARK(BM_UtsRngSpawnScalar);

void BM_TreeExpandChild(benchmark::State& state) {
  const auto& params = uts::tree_by_name("SIM200K");
  auto node = uts::root_node(params);
  std::uint32_t i = 0;
  for (auto _ : state) {
    auto child = uts::child_node(node, i++ & 0x3ff);
    benchmark::DoNotOptimize(uts::num_children(params, child));
  }
}
BENCHMARK(BM_TreeExpandChild);

void BM_SequentialEnumerate200K(benchmark::State& state) {
  const auto& params = uts::tree_by_name("SIM200K");
  for (auto _ : state) {
    benchmark::DoNotOptimize(uts::enumerate_sequential(params));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 224133);
}
BENCHMARK(BM_SequentialEnumerate200K)->Unit(benchmark::kMillisecond);

void BM_AliasTableBuild(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<double> weights(n);
  support::Xoshiro256StarStar rng(1);
  for (auto& w : weights) w = rng.next_double() + 1e-9;
  for (auto _ : state) {
    support::AliasTable table(weights);
    benchmark::DoNotOptimize(table);
  }
}
BENCHMARK(BM_AliasTableBuild)->Arg(1024)->Arg(8192);

void BM_AliasTableSample(benchmark::State& state) {
  std::vector<double> weights(8192);
  support::Xoshiro256StarStar seed_rng(1);
  for (auto& w : weights) w = seed_rng.next_double() + 1e-9;
  support::AliasTable table(weights);
  support::Xoshiro256StarStar rng(2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.sample(rng));
  }
}
BENCHMARK(BM_AliasTableSample);

// Draws of rank 0's selector. A job is 1/N (ppn 1) or 8G (ppn 8); the
// 8192-rank 8G rows are the paper's headline job on either Tofu backend.
void BM_VictimSelectors(benchmark::State& state) {
  struct Job {
    topo::JobLayout layout;
    topo::LatencyModel latency{layout};
  };
  static topo::TofuMachine machine;
  static Job one_per_node{
      topo::JobLayout(machine, 1024, topo::Placement::kOnePerNode)};
  static Job grouped{
      topo::JobLayout(machine, 1024, topo::Placement::kGrouped, 8)};
  static Job grouped_8192{
      topo::JobLayout(machine, 8192, topo::Placement::kGrouped, 8)};
  const Job& job = state.range(2) == 1        ? one_per_node
                   : state.range(3) == 8192 ? grouped_8192
                                            : grouped;
  ws::WsConfig cfg;
  cfg.victim_policy = static_cast<ws::VictimPolicy>(state.range(0));
  cfg.alias_table_max_ranks = static_cast<std::uint32_t>(state.range(1));
  auto selector = proto::make_selector(cfg, 0, job.latency);
  for (auto _ : state) {
    benchmark::DoNotOptimize(selector->next());
  }
}
BENCHMARK(BM_VictimSelectors)
    ->ArgNames({"policy", "alias_max", "ppn", "ranks"})
    ->Args({0, 2048, 1, 1024})   // round robin
    ->Args({1, 2048, 1, 1024})   // uniform random
    ->Args({2, 2048, 1, 1024})   // tofu via alias table
    ->Args({2, 16, 1, 1024})     // tofu via rejection sampling
    ->Args({2, 2048, 8, 1024})   // tofu via node table, then rank in node (8G)
    ->Args({2, 2048, 8, 8192})   // 8192-rank 8G: rejection (default threshold)
    ->Args({2, 8192, 8, 8192});  // 8192-rank 8G: node tables

// make_selector for every rank of an 8G, 1024-rank Tofu job on a fresh
// latency model, so each iteration also builds the job's node tables, as
// every run's set-up does.
void BM_TofuSelectorsBuild(benchmark::State& state) {
  static topo::TofuMachine machine;
  static topo::JobLayout layout(machine, 1024, topo::Placement::kGrouped, 8);
  ws::WsConfig cfg;
  cfg.victim_policy = ws::VictimPolicy::kTofuSkewed;
  for (auto _ : state) {
    const topo::LatencyModel latency(layout);
    std::vector<std::unique_ptr<proto::VictimSelector>> selectors;
    selectors.reserve(layout.num_ranks());
    for (topo::Rank r = 0; r < layout.num_ranks(); ++r) {
      selectors.push_back(proto::make_selector(cfg, r, latency));
    }
    benchmark::DoNotOptimize(selectors.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          layout.num_ranks());
}
BENCHMARK(BM_TofuSelectorsBuild)->Unit(benchmark::kMicrosecond);

void BM_ChunkStackChurn(benchmark::State& state) {
  proto::ChunkStack stack(20);
  const auto seed_node = uts::root_node(uts::tree_by_name("SIM200K"));
  for (auto _ : state) {
    for (int i = 0; i < 64; ++i) stack.push(seed_node);
    for (int i = 0; i < 40; ++i) benchmark::DoNotOptimize(stack.pop());
    if (stack.stealable_chunks() > 0) {
      benchmark::DoNotOptimize(stack.steal(1));
    }
  }
}
BENCHMARK(BM_ChunkStackChurn);

// 1024 typed events over 97 instants into a fresh engine, then run() to
// drain them: queue push/pop and one dispatch per event to a sink that does
// nothing.
void BM_EngineScheduleRun(benchmark::State& state) {
  struct NullSink final : sim::EventSink {
    void on_event(const sim::Event&) override {}
  } sink;
  for (auto _ : state) {
    sim::Engine engine;
    for (int i = 0; i < 1024; ++i) {
      engine.schedule_at(i % 97, sink, sim::EventKind::kWorkerStep);
    }
    engine.run();
    benchmark::DoNotOptimize(engine.events_executed());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_EngineScheduleRun);

void BM_LatencyQuery(benchmark::State& state) {
  static topo::TofuMachine machine;
  static topo::JobLayout layout(machine, 8192, topo::Placement::kOnePerNode);
  static topo::LatencyModel latency(layout);
  support::Xoshiro256StarStar rng(3);
  for (auto _ : state) {
    const auto a = static_cast<topo::Rank>(rng.next_below(8192));
    const auto b = static_cast<topo::Rank>(rng.next_below(8192));
    benchmark::DoNotOptimize(latency.message_latency(a, b, 128));
  }
}
BENCHMARK(BM_LatencyQuery);

// The fault layer's per-send cost: Injector::plan_send over 64K channels
// (every ordered pair of 256 ranks, self-pairs included) visited in a
// shuffled order, under svc_mixed_lossy's 1% loss and 20% jitter. Each send
// finds its channel's counter in the injector's table, so the number moves
// with that lookup and the draws behind it.
void BM_FaultPlanSend(benchmark::State& state) {
  fault::FaultConfig cfg;
  cfg.drop_prob = 0.01;
  cfg.jitter_frac = 0.2;
  fault::Injector injector(cfg, 256);
  std::vector<std::uint64_t> keys;
  for (std::uint64_t src = 0; src < 256; ++src) {
    for (std::uint64_t dst = 0; dst < 256; ++dst) {
      keys.push_back((src << 32) | dst);
    }
  }
  support::Xoshiro256StarStar rng(11);
  for (std::size_t i = keys.size() - 1; i > 0; --i) {
    std::swap(keys[i], keys[rng.next_below(i + 1)]);
  }
  std::size_t next = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(injector.plan_send(
        keys[next], fault::MsgClass::kDroppable, 64));
    if (++next == keys.size()) next = 0;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_FaultPlanSend);

// ---------------------------------------------------------------------------
// Core report: the event-core workload. A ring of actors mirrors the shape
// of a simulated run — each actor runs a self-rescheduling "step" chain
// (worker poll loop, EventKind::kWorkerStep) and every 4th step ships a
// "delivery" carrying a message-sized payload to another actor (network
// traffic: the payload parks in a slab pool and travels as a 32-bit handle
// in a kNetworkDeliver event, exactly like sim::Network's in-flight
// messages).
// ---------------------------------------------------------------------------

struct CorePayload {
  // sizeof(proto::Message)-class payload
  std::uint64_t words[4] = {0, 0, 0, 0};
};

struct CoreReport {
  double engine_events_per_sec = 0.0;
  double sim_events_per_sec = 0.0;
  /// UTS nodes expanded per wall-clock second in the same end-to-end run —
  /// the figure that maps simulator throughput onto the paper's workload
  /// scale (10^9-node trees), and the baseline bench/parallel_core's
  /// sharded speedups are judged against.
  double sim_nodes_per_sec = 0.0;
  double allocs_per_event = 0.0;
  double alloc_bytes_per_event = 0.0;
  std::uint64_t queue_high_water = 0;
  std::uint64_t sim_queue_high_water = 0;
  std::uint64_t peak_heap_bytes = 0;
  std::uint64_t sim_engine_events = 0;
};

class CoreWorkload final : public sim::EventSink {
 public:
  static constexpr std::uint32_t kActors = 512;

  explicit CoreWorkload(sim::Engine& engine) : engine_(engine) {
    for (std::uint32_t a = 0; a < kActors; ++a) schedule_step(a);
  }

  void on_event(const sim::Event& ev) override {
    if (ev.kind == sim::EventKind::kWorkerStep) {
      step(ev.rank);
    } else {
      deliver(ev.rank, pool_.take(ev.payload));
    }
  }

  std::uint64_t delivered() const noexcept { return delivered_; }

 private:
  void schedule_step(std::uint32_t actor) {
    const support::SimTime delay = 200 + static_cast<support::SimTime>(
                                             next_noise(actor) % 1600);
    engine_.schedule_after(delay, *this, sim::EventKind::kWorkerStep, actor);
  }

  void step(std::uint32_t actor) {
    if (++steps_ % 4 == 0) {
      // "Send": the payload parks in the slab pool and the event carries its
      // handle, exactly like Network::send parking the in-flight
      // proto::Message.
      const std::uint32_t dst = (actor * 2654435761u) % kActors;
      CorePayload payload;
      payload.words[0] = steps_;
      payload.words[1] = actor;
      engine_.schedule_after(2000, *this, sim::EventKind::kNetworkDeliver,
                             dst, pool_.acquire(payload));
    }
    schedule_step(actor);
  }

  void deliver(std::uint32_t dst, const CorePayload& payload) {
    delivered_ += 1 + (payload.words[0] & 0) + (dst & 0);
  }

  std::uint64_t next_noise(std::uint32_t actor) noexcept {
    noise_ = noise_ * 6364136223846793005ULL + actor + 1442695040888963407ULL;
    return noise_ >> 33;
  }

  sim::Engine& engine_;
  sim::SlabPool<CorePayload> pool_;
  std::uint64_t noise_ = 0x9e3779b97f4a7c15ULL;
  std::uint64_t steps_ = 0;
  std::uint64_t delivered_ = 0;
};

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

/// Raw event-core throughput: schedule + dispatch on the actor workload.
void measure_engine(CoreReport& report) {
  constexpr std::uint64_t kWarmup = 200'000;
  constexpr std::uint64_t kMeasured = 4'000'000;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    sim::Engine engine;
    CoreWorkload workload(engine);
    engine.run(kWarmup);

    const std::uint64_t allocs0 = g_alloc_count.load();
    const std::uint64_t bytes0 = g_alloc_bytes.load();
    const auto t0 = std::chrono::steady_clock::now();
    engine.run(kMeasured);
    const double secs = wall_seconds_since(t0);
    const std::uint64_t allocs = g_alloc_count.load() - allocs0;
    const std::uint64_t bytes = g_alloc_bytes.load() - bytes0;

    const double rate = static_cast<double>(kMeasured) / secs;
    if (rate > best) {
      best = rate;
      report.allocs_per_event =
          static_cast<double>(allocs) / static_cast<double>(kMeasured);
      report.alloc_bytes_per_event =
          static_cast<double>(bytes) / static_cast<double>(kMeasured);
      report.queue_high_water = engine.max_pending();
    }
    benchmark::DoNotOptimize(workload.delivered());
  }
  report.engine_events_per_sec = best;
}

/// End-to-end events/sec of a full simulated run (fig06-shaped point).
void measure_simulation(CoreReport& report) {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("SIM200K");
  cfg.num_ranks = 256;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  cfg.placement = topo::Placement::kOnePerNode;
  cfg.enable_congestion(1.0);

  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const auto t0 = std::chrono::steady_clock::now();
    const ws::RunResult result = ws::run_simulation(cfg);
    const double secs = wall_seconds_since(t0);
    const double rate = static_cast<double>(result.engine_events) / secs;
    if (rate > best) {
      best = rate;
      report.sim_nodes_per_sec = static_cast<double>(result.nodes) / secs;
      report.sim_engine_events = result.engine_events;
      report.sim_queue_high_water = result.engine_peak_pending;
    }
  }
  report.sim_events_per_sec = best;
}

int run_core_report(const std::string& path) {
  CoreReport report;
  measure_engine(report);
  measure_simulation(report);
  report.peak_heap_bytes = g_peak_bytes.load();

  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) {
    std::fprintf(stderr, "micro_core: cannot write %s\n", path.c_str());
    return 1;
  }
  std::fprintf(f,
               "{\"schema\":\"dws.bench.core\",\"version\":2,\n"
               " \"engine_events_per_sec\":%.6g,\n"
               " \"sim_events_per_sec\":%.6g,\n"
               " \"sim_nodes_per_sec\":%.6g,\n"
               " \"allocs_per_event\":%.6g,\n"
               " \"alloc_bytes_per_event\":%.6g,\n"
               " \"queue_high_water\":%llu,\n"
               " \"sim_queue_high_water\":%llu,\n"
               " \"peak_heap_bytes\":%llu,\n"
               " \"sim_engine_events\":%llu}\n",
               report.engine_events_per_sec, report.sim_events_per_sec,
               report.sim_nodes_per_sec,
               report.allocs_per_event, report.alloc_bytes_per_event,
               static_cast<unsigned long long>(report.queue_high_water),
               static_cast<unsigned long long>(report.sim_queue_high_water),
               static_cast<unsigned long long>(report.peak_heap_bytes),
               static_cast<unsigned long long>(report.sim_engine_events));
  std::fclose(f);
  std::printf("engine: %.3g events/s (%.3g allocs/event, %.3g B/event, "
              "high-water %llu)\nsim:    %.3g events/s, %.3g nodes/s "
              "(%llu events)\n",
              report.engine_events_per_sec, report.allocs_per_event,
              report.alloc_bytes_per_event,
              static_cast<unsigned long long>(report.queue_high_water),
              report.sim_events_per_sec, report.sim_nodes_per_sec,
              static_cast<unsigned long long>(report.sim_engine_events));
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--core-report") return run_core_report("BENCH_core.json");
    if (arg.rfind("--core-report=", 0) == 0) {
      return run_core_report(arg.substr(std::strlen("--core-report=")));
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
