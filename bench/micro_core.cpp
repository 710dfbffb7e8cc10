/// Component micro-benchmarks (google-benchmark): the hot paths every
/// simulated run leans on. Not a paper figure; used to keep the simulator
/// fast enough that the figure benches regenerate in minutes.
///
/// Besides the google-benchmark suite, `micro_core --core-report[=PATH]`
/// measures the event core itself — events/sec through the engine on a
/// steal/poll/delivery-shaped workload, heap traffic per event (via the
/// counting global allocator below), and the queue high-water mark — plus
/// node realization's wall time per child (UtsRng::spawn_pair) and the kernel
/// that ran, and writes the numbers as JSON (default BENCH_core.json).
/// bench/regenerate_bench_core.py folds them into the committed
/// BENCH_core.json, whose "current" section the CI perf-smoke job gates
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
#include "sim/network.hpp"
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

/// Wall time per realized child of a benchmark that realizes one sibling
/// pair per iteration.
benchmark::Counter per_child(const benchmark::State& state) {
  return benchmark::Counter(2.0 * static_cast<double>(state.iterations()),
                            benchmark::Counter::kIsRate |
                                benchmark::Counter::kInvert);
}

// Two siblings per call through the kernel spawn runs on this CPU.
void BM_UtsRngSpawnPair(benchmark::State& state) {
  const auto node = crypto::UtsRng::from_seed(316);
  std::uint32_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(node.spawn_pair(i));
    i = (i + 2) & 0xff;
  }
  state.counters["s_per_child"] = per_child(state);
  state.SetLabel(crypto::detail::spawn_kernel());
}
BENCHMARK(BM_UtsRngSpawnPair);

// The portable pair spawn runs on CPUs without the SHA extensions.
void BM_UtsRngSpawnScalar(benchmark::State& state) {
  const auto node = crypto::UtsRng::from_seed(316).state();
  crypto::Sha1Digest a;
  crypto::Sha1Digest b;
  std::uint32_t i = 0;
  for (auto _ : state) {
    crypto::detail::spawn_pair_portable(node, i, a, b);
    benchmark::DoNotOptimize(a);
    benchmark::DoNotOptimize(b);
    i = (i + 2) & 0xff;
  }
  state.counters["s_per_child"] = per_child(state);
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

// One node's whole expansion, as every executor does it: num_children, then
// for_each_child. The nodes are the first 64K of SIM200K's depth-first walk.
void BM_TreeExpandNode(benchmark::State& state) {
  const auto& params = uts::tree_by_name("SIM200K");
  std::vector<uts::TreeNode> nodes;
  std::vector<uts::TreeNode> stack{uts::root_node(params)};
  while (nodes.size() < (1u << 16) && !stack.empty()) {
    nodes.push_back(stack.back());
    stack.pop_back();
    uts::for_each_child(
        nodes.back(), uts::num_children(params, nodes.back()),
        [&stack](const uts::TreeNode& c) { stack.push_back(c); });
  }
  std::size_t k = 0;
  std::uint64_t children = 0;
  for (auto _ : state) {
    const uts::TreeNode& node = nodes[k++ % nodes.size()];
    uts::for_each_child(node, uts::num_children(params, node),
                        [&children](const uts::TreeNode& c) {
                          benchmark::DoNotOptimize(c);
                          ++children;
                        });
  }
  state.counters["children_per_node"] =
      static_cast<double>(children) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_TreeExpandNode);

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

// The network-bookkeeping layer's per-message cost: Network::send (route,
// congestion read, channel clamp, ledger fold, slab park, schedule) plus the
// kNetworkDeliver dispatch, at 512 ranks placed 1/N with congestion on, as
// on ref_1n_512. Each batch sends one message from every rank to the next
// peer of its round-robin sequence and then delivers the batch.
void BM_NetworkSendDeliver(benchmark::State& state) {
  constexpr topo::Rank kRanks = 512;
  static topo::TofuMachine machine;
  static topo::JobLayout layout(machine, kRanks, topo::Placement::kOnePerNode);
  static topo::LatencyModel latency(layout);
  struct Drop {
    void operator()(topo::Rank, std::uint64_t v) const {
      benchmark::DoNotOptimize(v);
    }
  };
  sim::CongestionParams congestion;
  congestion.enabled = true;
  congestion.capacity_hops = 6.0 * kRanks;
  sim::Engine engine;
  sim::Network<std::uint64_t, Drop> network(engine, latency, Drop{},
                                            congestion);
  topo::Rank offset = 1;
  for (auto _ : state) {
    for (topo::Rank src = 0; src < kRanks; ++src) {
      network.send(src, (src + offset) % kRanks, src, 64);
    }
    engine.run();
    offset = offset == kRanks - 1 ? 1 : offset + 1;
  }
  const auto messages = static_cast<double>(state.iterations()) * kRanks;
  state.SetItemsProcessed(static_cast<std::int64_t>(messages));
  state.counters["per_msg"] = benchmark::Counter(
      messages, benchmark::Counter::kIsRate | benchmark::Counter::kInvert);
}
BENCHMARK(BM_NetworkSendDeliver);

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
  /// Wall time per child realized by UtsRng::spawn_pair, and the kernel
  /// (crypto::detail::spawn_kernel) that ran.
  double uts_spawn_ns_per_child = 0.0;
  const char* uts_spawn_kernel = "";
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

/// Node realization: sibling pairs of one parent, best of three passes.
void measure_spawn(CoreReport& report) {
  constexpr std::uint32_t kPairs = 1u << 21;
  const auto parent = crypto::UtsRng::from_seed(316);
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    std::uint32_t sink = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < kPairs; ++i) {
      const auto pair = parent.spawn_pair(2 * i);
      sink ^= pair[0].rand31() ^ pair[1].rand31();
    }
    const double ns = wall_seconds_since(t0) * 1e9 / (2.0 * kPairs);
    benchmark::DoNotOptimize(sink);
    if (rep == 0 || ns < best) best = ns;
  }
  report.uts_spawn_ns_per_child = best;
  report.uts_spawn_kernel = crypto::detail::spawn_kernel();
}

int run_core_report(const std::string& path) {
  CoreReport report;
  measure_engine(report);
  measure_simulation(report);
  measure_spawn(report);
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
               " \"sim_engine_events\":%llu,\n"
               " \"uts_spawn_ns_per_child\":%.6g,\n"
               " \"uts_spawn_kernel\":\"%s\"}\n",
               report.engine_events_per_sec, report.sim_events_per_sec,
               report.sim_nodes_per_sec,
               report.allocs_per_event, report.alloc_bytes_per_event,
               static_cast<unsigned long long>(report.queue_high_water),
               static_cast<unsigned long long>(report.sim_queue_high_water),
               static_cast<unsigned long long>(report.peak_heap_bytes),
               static_cast<unsigned long long>(report.sim_engine_events),
               report.uts_spawn_ns_per_child, report.uts_spawn_kernel);
  std::fclose(f);
  std::printf("engine: %.3g events/s (%.3g allocs/event, %.3g B/event, "
              "high-water %llu)\nsim:    %.3g events/s, %.3g nodes/s "
              "(%llu events)\n",
              report.engine_events_per_sec, report.allocs_per_event,
              report.alloc_bytes_per_event,
              static_cast<unsigned long long>(report.queue_high_water),
              report.sim_events_per_sec, report.sim_nodes_per_sec,
              static_cast<unsigned long long>(report.sim_engine_events));
  std::printf("uts:    %.3g ns per spawned child (%s)\n",
              report.uts_spawn_ns_per_child, report.uts_spawn_kernel);
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
