// dws_perfbench — the repository benchmark's runner (see perfbench/README.md).
//
// One process runs one workload in one of two modes:
//   * measured (--trace 0): end-to-end metrics with every observer off —
//     wall time of single-threaded ws::run_simulation / svc::run_service
//     calls and set-up time of the constructors those entry points call, both
//     scaled by a fixed calibration kernel to a calm host, peak RSS, and the
//     modelled machine's virtual makespan;
//   * traced (--trace 1): per-layer metrics, measured from outside by calling
//     each module's public functions (the layer replays), plus the exact
//     counters of the run, a counting proto::RunObserver, and the 2-shard
//     twin that exercises the sharded core.
// Every run is checked against uts::enumerate_sequential (per job for the
// service workload) and against the exact digest of its variant's first run.
// The last line of stdout is one JSON object; run.py validates and forwards it.

#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "metrics/service_stats.hpp"
#include "proto/observer.hpp"
#include "proto/victim.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "support/rng.hpp"
#include "svc/arrival.hpp"
#include "svc/mux.hpp"
#include "svc/service.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

namespace {

using namespace dws;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The mean of the middle half of the values.
double interquartile_mean(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t lo = v.size() / 4;
  const std::size_t hi = v.size() - lo;
  double sum = 0.0;
  for (std::size_t i = lo; i < hi; ++i) sum += v[i];
  return sum / static_cast<double>(hi - lo);
}

[[noreturn]] void die(const std::string& msg) {
  std::fprintf(stderr, "dws_perfbench: %s\n", msg.c_str());
  std::exit(2);
}

// ---- workloads --------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t ws_seed = 1;
  std::uint64_t svc_seed = 1;
  std::uint64_t fault_seed = 1;
  std::uint32_t tree_seed = 0;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;  // tiny trees and rank counts: every code path in seconds
};

ws::RunConfig make_config(const Options& o) {
  ws::RunConfig c;
  c.ws.record_trace = false;
  c.ws.chunk_size = 4;
  c.ws.seed = o.ws_seed;
  c.fault.seed = o.fault_seed;
  if (o.workload == "ref_1n_512") {
    // Reference round-robin 1/N: messaging-bound, victim sampling trivial.
    // A shallow, wide tree (2500 root children, subcritical below them): all
    // parallelism is found by stealing from the root's owner, so the run is
    // dominated by round-robin steal traffic. Round-robin draws no random
    // numbers, so the seeded input is the tree's root seed; at this shape it
    // moves the tree's size by a few percent and the makespan by less than 1%.
    if (o.smoke) {
      c.tree = uts::tree_by_name("TEST_BIN_SMALL");
    } else {
      c.tree.name = "SHALLOW25K";
      c.tree.type = uts::TreeType::kBinomial;
      c.tree.root_branching = 2500;
      c.tree.m = 2;
      c.tree.q = 0.45;
    }
    c.tree.root_seed = o.tree_seed;
    c.num_ranks = o.smoke ? 64 : 512;
    c.ws.victim_policy = ws::VictimPolicy::kRoundRobin;
    c.ws.steal_amount = ws::StealAmount::kOneChunk;
    c.enable_congestion(1.0);
  } else if (o.workload == "tofu_half_8g_1024") {
    // Tofu-skewed alias sampling + steal-half, 8 ranks per node (8G).
    c.tree = uts::tree_by_name(o.smoke ? "TEST_BIN_SMALL" : "SIM200K");
    c.num_ranks = o.smoke ? 64 : 1024;
    c.placement = topo::Placement::kGrouped;
    c.procs_per_node = 8;
    c.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
    c.ws.steal_amount = ws::StealAmount::kHalf;
    c.enable_congestion(1.0);
  } else if (o.workload == "svc_mixed_lossy") {
    // Open-loop Poisson job stream, space-shared, adaptive selection, lossy.
    c.tree = uts::tree_by_name("TEST_BIN_SMALL");
    c.num_ranks = o.smoke ? 64 : 256;
    c.svc.enabled = true;
    c.svc.seed = o.svc_seed;
    c.svc.num_jobs = o.smoke ? 12 : 32;
    c.svc.arrival = svc::ArrivalKind::kPoisson;
    c.svc.mean_interarrival = support::kMillisecond;
    c.svc.alloc = svc::AllocPolicy::kSpaceShare;
    c.svc.ranks_per_job = o.smoke ? 16 : 64;
    if (o.smoke) {
      c.svc.mix = {{"TEST_BIN_TINY", 3.0}, {"TEST_BIN_SMALL", 1.0}};
    } else {
      c.svc.mix = {{"TEST_BIN_SMALL", 3.0}, {"SIM200K", 1.0}};
    }
    c.ws.victim_policy = ws::VictimPolicy::kAdaptive;
    c.ws.steal_amount = ws::StealAmount::kHalf;
    c.ws.steal_timeout = 50 * support::kMicrosecond;
    c.ws.token_timeout = 200 * support::kMicrosecond;
    c.fault.drop_prob = 0.01;
    c.fault.jitter_frac = 0.2;
    c.enable_congestion(1.0);
  } else {
    die("unknown workload '" + o.workload + "'");
  }
  const support::Status st = c.validate();
  if (!st.ok()) die("invalid config: " + st.message());
  return c;
}

// The measured runs are single-threaded: on a few shared vCPUs a 2-shard run's
// barrier waits spread its wall time two to three times wider than a serial
// run's. The traced run adds a twin at this shard count (1: none), which
// exercises the conservative-window core: ws/shard.cpp on tofu, svc/shard.cpp
// on svc.
std::uint32_t twin_shards(const Options& o) {
  return o.workload == "ref_1n_512" ? 1 : 2;
}

ws::RunResult run(const ws::RunConfig& c, proto::RunObserver* observer) {
  return c.svc.enabled ? svc::run_service(c) : ws::run_simulation(c, observer);
}

// ---- correctness oracle and exact digest ------------------------------------

struct Oracle {
  std::vector<uts::TreeStats> expected;  // one per job (one for single-job)
  std::uint64_t nodes = 0;
  double enumerate_s = 0.0;  // doubles as the uts layer replay
};

Oracle make_oracle(const ws::RunConfig& c) {
  std::vector<uts::TreeParams> trees;
  if (c.svc.enabled) {
    for (const auto& job : svc::generate_jobs(c.svc, c.tree)) {
      trees.push_back(job.tree);
    }
  } else {
    trees.push_back(c.tree);
  }
  Oracle o;
  const auto t0 = Clock::now();
  for (const auto& t : trees) {
    o.expected.push_back(uts::enumerate_sequential(t));
    o.nodes += o.expected.back().nodes;
  }
  o.enumerate_s = seconds_since(t0);
  return o;
}

// Every exact output of a run that is independent of the execution strategy
// (peak channel and pending-event depths are not, so they stay out). Two runs
// of one config must agree on all of it, at any shard count.
using Digest = std::vector<std::pair<const char*, double>>;

double job_p50_ms(const ws::RunResult& r) {
  if (r.jobs.empty()) return static_cast<double>(r.runtime) / 1e6;
  return metrics::service_tails(r.jobs).makespan.p50;
}

Digest digest(const ws::RunResult& r) {
  auto d = [](auto v) { return static_cast<double>(v); };
  return {
      {"virtual_ms", d(r.runtime) / 1e6},
      {"job_p50_ms", job_p50_ms(r)},
      {"nodes", d(r.nodes)},
      {"leaves", d(r.leaves)},
      {"events", d(r.engine_events)},
      {"messages", d(r.network.messages)},
      {"bytes", d(r.network.bytes)},
      {"intra_node_messages", d(r.network.intra_node_messages)},
      {"max_load_hops", r.network.max_load_hops},
      {"steal_attempts", d(r.stats.steal_attempts)},
      {"failed_steals", d(r.stats.failed_steals)},
      {"successful_steals", d(r.stats.successful_steals)},
      {"chunks_sent", d(r.stats.chunks_sent)},
      {"steal_timeouts", d(r.stats.steal_timeouts)},
      {"steal_retries", d(r.stats.steal_retries)},
      {"duplicate_responses", d(r.stats.duplicate_responses)},
      {"token_regens", d(r.stats.token_regens)},
      {"amount_switches", d(r.stats.amount_switches)},
      {"dropped_messages", d(r.faults.dropped_messages)},
      {"duplicated_messages", d(r.faults.duplicated_messages)},
      {"merge_ambiguities", d(r.merge_ambiguities)},
  };
}

// Operations checked and failed: one per run, or one per job on the service
// workload. A run whose digest differs from the reference fails as a whole.
struct Check {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

bool check_run(const ws::RunResult& r, const Oracle& o, const Digest* ref,
               Check& check) {
  const bool run_ok = r.merge_ambiguities == 0 && (!ref || digest(r) == *ref);
  bool all_ok = run_ok;
  if (r.jobs.empty()) {
    const bool ok = run_ok && r.nodes == o.expected[0].nodes &&
                    r.leaves == o.expected[0].leaves;
    ++check.attempted;
    if (!ok) ++check.failed;
    return ok;
  }
  if (r.jobs.size() != o.expected.size()) {
    check.attempted += o.expected.size();
    check.failed += o.expected.size();
    return false;
  }
  for (std::size_t j = 0; j < r.jobs.size(); ++j) {
    const bool ok = run_ok && r.jobs[j].nodes == o.expected[j].nodes &&
                    r.jobs[j].leaves == o.expected[j].leaves;
    ++check.attempted;
    if (!ok) ++check.failed;
    all_ok = all_ok && ok;
  }
  return all_ok;
}

// ---- set-up: the constructors the run entry points call ---------------------

// What a run builds before its first event: svc::ServicePlan (jobs, the pool's
// layout and latency model, per-block slices) on the service workload, the
// JobLayout and LatencyModel that run_simulation builds otherwise, and then one
// selector per rank, as proto::Peer makes them.
struct Setup {
  std::unique_ptr<svc::ServicePlan> plan;
  std::unique_ptr<topo::JobLayout> layout;
  std::unique_ptr<topo::LatencyModel> latency;
  const topo::LatencyModel* pool_latency = nullptr;  // the whole pool's model
  topo::Rank block_width = 0;  // ranks per job block (all ranks if one job)
  std::vector<std::unique_ptr<proto::VictimSelector>> selectors;  // by rank
  double topo_s = 0.0;  // plan or layout + latency model
  double selectors_s = 0.0;
  double total_s() const { return topo_s + selectors_s; }
};

std::unique_ptr<Setup> build_setup(const ws::RunConfig& c) {
  auto s = std::make_unique<Setup>();
  const auto t0 = Clock::now();
  if (c.svc.enabled) {
    s->plan = std::make_unique<svc::ServicePlan>(c);
    s->pool_latency = &s->plan->latency;
    s->block_width = s->plan->block_width;
  } else {
    s->layout = std::make_unique<topo::JobLayout>(
        c.machine, c.num_ranks, c.placement, c.procs_per_node, c.origin_cube);
    s->latency = std::make_unique<topo::LatencyModel>(*s->layout, c.latency);
    s->pool_latency = s->latency.get();
    s->block_width = c.num_ranks;
  }
  s->topo_s = seconds_since(t0);
  const auto t1 = Clock::now();
  s->selectors.reserve(c.num_ranks);
  for (topo::Rank r = 0; r < c.num_ranks; ++r) {
    const topo::Rank base = r - r % s->block_width;
    s->selectors.push_back(proto::make_selector(
        c.ws, r - base, s->plan ? s->plan->job_latency(base) : *s->latency));
  }
  s->selectors_s = seconds_since(t1);
  return s;
}

std::size_t current_rss_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::size_t pages = 0;
  std::size_t resident = 0;
  statm >> pages >> resident;
  return resident * static_cast<std::size_t>(sysconf(_SC_PAGESIZE));
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

// ---- layer replays (traced mode) --------------------------------------------

constexpr std::uint64_t kReplayCap = 2'000'000;

// Keeps replayed results observable so the timed loops are not optimised out.
volatile std::uint64_t g_sink = 0;

// proto.victim: VictimSelector::next() on the workload's own selectors,
// visiting ranks in random order.
double replay_draws_ns(Setup& s, std::uint64_t draws, std::uint64_t seed) {
  const std::uint64_t n = std::clamp<std::uint64_t>(draws, 1, kReplayCap);
  support::Xoshiro256StarStar rng(seed);
  std::vector<topo::Rank> order(n);
  for (auto& r : order) {
    r = static_cast<topo::Rank>(rng.next_below(s.selectors.size()));
  }
  std::uint64_t sum = 0;
  const auto t0 = Clock::now();
  for (const topo::Rank r : order) sum += s.selectors[r]->next();
  const double t = seconds_since(t0);
  g_sink = sum;
  return t * 1e9 / static_cast<double>(n);
}

struct ReplayMsg {
  std::uint64_t tag = 0;
};

struct CountDeliveries {
  std::uint64_t* delivered;
  void operator()(topo::Rank, ReplayMsg) const { ++*delivered; }
};

// sim.network: Network::send plus delivery on the workload's own latency
// model and congestion parameters, in bursts of concurrent flights; the
// destinations follow the workload's victim selectors, as steal traffic does.
double replay_network_ns(const ws::RunConfig& c, Setup& s,
                         std::uint64_t messages, std::uint64_t seed) {
  const std::uint64_t n = std::clamp<std::uint64_t>(messages, 1, kReplayCap);
  sim::Engine engine;
  std::uint64_t delivered = 0;
  sim::Network<ReplayMsg, CountDeliveries> net(
      engine, *s.pool_latency, CountDeliveries{&delivered}, c.congestion, nullptr);
  support::Xoshiro256StarStar rng(seed);
  constexpr std::uint64_t kBurst = 256;
  std::vector<std::pair<topo::Rank, topo::Rank>> pairs(n);
  for (auto& [src, dst] : pairs) {
    src = static_cast<topo::Rank>(rng.next_below(c.num_ranks));
    const topo::Rank base = src - src % s.block_width;
    dst = base + s.selectors[src]->next();
  }
  const auto t0 = Clock::now();
  for (std::uint64_t i = 0; i < n; i += kBurst) {
    const std::uint64_t end = std::min(n, i + kBurst);
    for (std::uint64_t k = i; k < end; ++k) {
      net.send(pairs[k].first, pairs[k].second, ReplayMsg{k},
               c.ws.steal_request_bytes);
    }
    engine.run();
  }
  const double t = seconds_since(t0);
  if (delivered != n) die("network replay lost messages");
  return t * 1e9 / static_cast<double>(n);
}

// sim.engine: schedule_at + run with the workload's peak pending depth held
// constant — every executed event schedules one successor.
struct Churn final : sim::EventSink {
  sim::Engine* engine = nullptr;
  support::Xoshiro256StarStar rng{1};
  std::uint64_t span = 1;
  std::uint64_t remaining = 0;
  void on_event(const sim::Event& ev) override {
    if (remaining == 0) return;
    --remaining;
    engine->schedule_at(
        engine->now() + 1 + static_cast<support::SimTime>(rng.next_below(span)),
        *this, sim::EventKind::kWorkerStep, ev.rank);
  }
};

double replay_engine_ns(std::uint64_t depth, std::uint64_t events,
                        std::uint64_t seed) {
  depth = std::max<std::uint64_t>(depth, 1);
  const std::uint64_t n = std::clamp<std::uint64_t>(events, 1, kReplayCap);
  sim::Engine engine;
  Churn churn;
  churn.engine = &engine;
  churn.rng = support::Xoshiro256StarStar(seed);
  churn.span = 2 * depth * 100;  // ~100 ns of virtual time per pending event
  churn.remaining = n > depth ? n - depth : 0;
  for (std::uint64_t i = 0; i < depth; ++i) {
    engine.schedule_at(static_cast<support::SimTime>(churn.rng.next_below(churn.span)),
                       churn, sim::EventKind::kWorkerStep,
                       static_cast<std::uint32_t>(i));
  }
  const auto t0 = Clock::now();
  const std::uint64_t executed = engine.run();
  const double t = seconds_since(t0);
  return t * 1e9 / static_cast<double>(executed);
}

// One count per RunObserver hook kind — the public passive seam.
class CountingObserver final : public proto::RunObserver {
 public:
  enum Hook {
    kRoot, kExpanded, kRequestSent, kResponseSent, kResponseReceived,
    kLifelineRegister, kLifelinePushSent, kLifelinePushReceived, kTimeout,
    kDuplicate, kFeedback, kTokenSent, kTokenAccepted, kTokenRegenerated,
    kPhase, kTermination, kFinish, kHookCount
  };
  static constexpr std::array<const char*, kHookCount> kNames = {
      "root", "node_expanded", "steal_request_sent", "steal_response_sent",
      "steal_response_received", "lifeline_register_sent",
      "lifeline_push_sent", "lifeline_push_received", "steal_timeout",
      "duplicate_response", "steal_feedback", "token_sent", "token_accepted",
      "token_regenerated", "phase", "termination", "finish"};
  std::array<std::uint64_t, kHookCount> counts{};

  void on_root(topo::Rank, const uts::TreeNode&) override { ++counts[kRoot]; }
  void on_node_expanded(topo::Rank, const uts::TreeNode&,
                        std::uint32_t) override {
    ++counts[kExpanded];
  }
  void on_steal_request_sent(topo::Rank, topo::Rank, std::uint32_t) override {
    ++counts[kRequestSent];
  }
  void on_steal_response_sent(topo::Rank, topo::Rank, std::uint64_t,
                              std::uint64_t, std::uint32_t) override {
    ++counts[kResponseSent];
  }
  void on_steal_response_received(topo::Rank, topo::Rank, std::uint64_t,
                                  std::uint64_t) override {
    ++counts[kResponseReceived];
  }
  void on_lifeline_register_sent(topo::Rank, topo::Rank,
                                 std::uint32_t) override {
    ++counts[kLifelineRegister];
  }
  void on_lifeline_push_sent(topo::Rank, topo::Rank, std::uint64_t,
                             std::uint64_t, std::uint32_t) override {
    ++counts[kLifelinePushSent];
  }
  void on_lifeline_push_received(topo::Rank, std::uint64_t,
                                 std::uint64_t) override {
    ++counts[kLifelinePushReceived];
  }
  void on_steal_timeout(topo::Rank, topo::Rank, std::uint32_t) override {
    ++counts[kTimeout];
  }
  void on_duplicate_response(topo::Rank, std::uint64_t,
                             std::uint64_t) override {
    ++counts[kDuplicate];
  }
  void on_steal_feedback(topo::Rank, topo::Rank, bool, support::SimTime,
                         double, double) override {
    ++counts[kFeedback];
  }
  void on_token_sent(topo::Rank, topo::Rank, const proto::Token&) override {
    ++counts[kTokenSent];
  }
  void on_token_accepted(topo::Rank, const proto::Token&) override {
    ++counts[kTokenAccepted];
  }
  void on_token_regenerated(topo::Rank, std::uint32_t) override {
    ++counts[kTokenRegenerated];
  }
  void on_phase(topo::Rank, support::SimTime, metrics::Phase) override {
    ++counts[kPhase];
  }
  void on_termination(support::SimTime) override { ++counts[kTermination]; }
  void on_finish(topo::Rank, support::SimTime) override { ++counts[kFinish]; }
};

// ---- output -----------------------------------------------------------------

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string json_object(const std::vector<std::pair<std::string, std::string>>& kv) {
  std::string out = "{";
  for (std::size_t i = 0; i < kv.size(); ++i) {
    if (i > 0) out += ", ";
    out += "\"" + kv[i].first + "\": " + kv[i].second;
  }
  return out + "}";
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

void print_digest(const Options& o, const std::string& label, const Digest& d) {
  std::vector<std::pair<std::string, std::string>> kv = {
      {"workload", quoted(o.workload)},
      {"run", quoted(label)},
  };
  for (const auto& [k, v] : d) kv.emplace_back(k, num(v));
  std::printf("digest %s\n", json_object(kv).c_str());
}

void print_result(const Check& check, const std::vector<Metric>& metrics) {
  std::vector<std::pair<std::string, std::string>> m;
  for (const auto& x : metrics) {
    m.emplace_back(x.name, json_object({{"value", num(x.value)},
                                        {"unit", quoted(x.unit)}}));
  }
  std::printf("%s\n",
              json_object({{"correct", check.failed == 0 ? "true" : "false"},
                           {"attempted", std::to_string(check.attempted)},
                           {"failed", std::to_string(check.failed)},
                           {"metrics", json_object(m)}})
                  .c_str());
}

// ---- host-speed calibration -------------------------------------------------

// The shared host this benchmark was tuned on runs in phases: for up to hours
// at a time every vCPU runs 1.5 to 2.5 times as slowly, with no steal time
// visible to the guest. No estimator over one window undoes a phase that
// covers it, so the host timers are scaled by a fixed calibration kernel timed
// beside them, which slows with them: SHA-1 compression, as node realisation
// does, and random reads over a 32 MiB table, as victim draws and the event
// queue do. It is this file's own code, not the program's, so a change to the
// program moves only the timers it scales.
constexpr std::uint32_t kKernelShaBlocks = 40'000;
constexpr int kKernelTableReads = 2'000'000;
constexpr std::size_t kKernelTableWords = std::size_t{1} << 22;  // 32 MiB

// The kernel time at which the scaled runs on that host read as its unscaled
// runs did in a calm phase (see README.md): the scaled timers read in seconds
// of a calm host.
constexpr double kCalmKernelS = 0.029;

std::uint32_t rotl32(std::uint32_t x, int k) { return (x << k) | (x >> (32 - k)); }

double calibration_kernel_s() {
  static const std::vector<std::uint64_t> table = [] {
    std::vector<std::uint64_t> t(kKernelTableWords);
    for (std::size_t i = 0; i < t.size(); ++i) t[i] = i * 0x9E3779B97F4A7C15ull;
    return t;
  }();
  const auto t0 = Clock::now();
  std::uint32_t h[5] = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u,
                        0xC3D2E1F0u};
  std::uint32_t w[80];
  for (std::uint32_t blk = 0; blk < kKernelShaBlocks; ++blk) {
    for (std::uint32_t k = 0; k < 16; ++k) w[k] = h[k % 5] + blk * 16 + k;
    for (int k = 16; k < 80; ++k) {
      w[k] = rotl32(w[k - 3] ^ w[k - 8] ^ w[k - 14] ^ w[k - 16], 1);
    }
    std::uint32_t a = h[0], b = h[1], c = h[2], d = h[3], e = h[4];
    for (int k = 0; k < 80; ++k) {
      std::uint32_t f = 0, kk = 0;
      if (k < 20) {
        f = (b & c) | (~b & d);
        kk = 0x5A827999u;
      } else if (k < 40) {
        f = b ^ c ^ d;
        kk = 0x6ED9EBA1u;
      } else if (k < 60) {
        f = (b & c) | (b & d) | (c & d);
        kk = 0x8F1BBCDCu;
      } else {
        f = b ^ c ^ d;
        kk = 0xCA62C1D6u;
      }
      const std::uint32_t t = rotl32(a, 5) + f + e + kk + w[k];
      e = d;
      d = c;
      c = rotl32(b, 30);
      b = a;
      a = t;
    }
    h[0] += a;
    h[1] += b;
    h[2] += c;
    h[3] += d;
    h[4] += e;
  }
  std::uint64_t x = 88172645463325252ull;
  std::uint64_t sum = h[0];
  for (int k = 0; k < kKernelTableReads; ++k) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    sum += table[x & (table.size() - 1)];
  }
  g_sink = sum;
  return seconds_since(t0);
}

// ---- modes ------------------------------------------------------------------

// The measured runs cycle through seed variants of the workload (victim,
// fault and, on ref_1n_512, tree seeds; the same work otherwise), so the exact
// metrics summarise several schedules, not one: as many as a calm host runs
// once each in about 15 s — 64 on ref_1n_512, where each variant is also
// another tree, 32 on tofu and 12 on the service workload, whose runs are
// four to eight times longer.
int variant_count(const Options& o) {
  if (o.smoke) return 2;
  if (o.workload == "ref_1n_512") return 64;
  return o.workload == "svc_mixed_lossy" ? 12 : 32;
}

Options variant(const Options& o, int v) {
  if (v == 0) return o;
  Options ov = o;
  const auto k = static_cast<std::uint64_t>(v);
  ov.ws_seed = support::SplitMix64(o.ws_seed + k).next();
  ov.fault_seed = support::SplitMix64(o.fault_seed + k).next();
  ov.tree_seed =
      static_cast<std::uint32_t>(support::SplitMix64(o.tree_seed + k).next());
  return ov;
}

// The host timers report medians over the whole window: of the measured runs,
// which cycle through the seed variants, of the set-up builds and of the
// calibration kernel, by whose median they are scaled. The single-job runs are
// short (a few tenths of a second) so that many of them sample the window;
// set-up is rebuilt and the kernel rerun after every run for the same reason.
constexpr double kSetupSliceS = 0.01;  // set-up builds after every run

int measured(const Options& o) {
  // The kernel's table is resident from here to the end of the process, so
  // the process's peak RSS is the table's size above the workload's own.
  calibration_kernel_s();
  const double table_mb = static_cast<double>(kKernelTableWords *
                                              sizeof(std::uint64_t)) /
                          (1024.0 * 1024.0);
  const int variants = variant_count(o);
  std::vector<ws::RunConfig> configs;
  std::vector<Oracle> oracles;
  for (int v = 0; v < variants; ++v) {
    configs.push_back(make_config(variant(o, v)));
    const bool same_work = v > 0 &&
                           configs[v].tree.root_seed == configs[0].tree.root_seed &&
                           configs[v].svc.seed == configs[0].svc.seed;
    oracles.push_back(same_work ? oracles[0] : make_oracle(configs[v]));
  }

  // Every variant runs at least once and variant 0 twice, so each process
  // checks that a repeated run reproduces its digest exactly. No warm-up
  // run: one cold run does not move the median.
  Check check;
  std::vector<Digest> digests(variants);
  std::vector<double> makespans_ms;
  std::vector<double> job_makespans_ms;
  std::vector<double> walls;
  std::vector<double> setups;
  std::vector<double> kernels;
  const auto t_start = Clock::now();
  for (int i = 0; i <= variants || seconds_since(t_start) < o.seconds; ++i) {
    const int v = i % variants;
    const auto t0 = Clock::now();
    const ws::RunResult r = run(configs[v], nullptr);
    const double wall = seconds_since(t0);
    const bool first_of_variant = i < variants;
    if (check_run(r, oracles[v], first_of_variant ? nullptr : &digests[v],
                  check)) {
      walls.push_back(wall);
    }
    if (first_of_variant) {
      digests[v] = digest(r);
      print_digest(o, "variant " + std::to_string(v), digests[v]);
      makespans_ms.push_back(static_cast<double>(r.runtime) / 1e6);
      if (r.jobs.empty()) job_makespans_ms.push_back(makespans_ms.back());
      for (const auto& job : r.jobs) {
        job_makespans_ms.push_back(static_cast<double>(job.makespan()) / 1e6);
      }
    }
    const auto s0 = Clock::now();
    do {
      setups.push_back(build_setup(configs[0])->total_s());
    } while (seconds_since(s0) < kSetupSliceS);
    kernels.push_back(calibration_kernel_s());
  }
  std::fprintf(stderr, "dws_perfbench: %zu measured runs, wall_s samples:",
               walls.size());
  for (const double w : walls) std::fprintf(stderr, " %.4f", w);
  std::fprintf(stderr, "\ndws_perfbench: %zu set-up builds\n", setups.size());

  const double kernel_s = median(kernels);
  const double scale = kCalmKernelS / kernel_s;
  std::printf("host_speed %s\n",
              json_object({{"kernel_s", num(kernel_s)},
                           {"calm_kernel_s", num(kCalmKernelS)},
                           {"scale", num(scale)},
                           {"unscaled_wall_s", num(median(walls))},
                           {"unscaled_setup_s", num(median(setups))}})
                  .c_str());
  print_result(check, {
      {"wall_s", median(walls) * scale, "s"},
      {"setup_s", median(setups) * scale, "s"},
      {"peak_rss_mb", peak_rss_mb() - table_mb, "MB"},
      {"virtual_ms", interquartile_mean(makespans_ms), "ms"},
      {"job_p50_ms", metrics::tail_stats(job_makespans_ms).p50, "ms"},
  });
  return 0;
}

int traced(const Options& o, const ws::RunConfig& c) {
  // uts layer replay: the oracle's own sequential enumeration of the
  // workload's tree(s), timed.
  const Oracle oracle = make_oracle(c);
  Check check;

  // A warm-up run first, so that the timed runs below all find a warm heap.
  const ws::RunResult warm = run(c, nullptr);
  const Digest ref = digest(warm);
  check_run(warm, oracle, nullptr, check);
  print_digest(o, "untraced", ref);

  auto t0 = Clock::now();
  const ws::RunResult r = run(c, nullptr);
  const double wall = seconds_since(t0);
  check_run(r, oracle, &ref, check);

  // Traced twin: the counting observer where the entry point offers the seam
  // (run_simulation); svc::run_service takes none, so its twin is the same call.
  CountingObserver obs;
  t0 = Clock::now();
  const ws::RunResult rt = run(c, &obs);
  const double wall_traced = seconds_since(t0);
  check_run(rt, oracle, &ref, check);

  // Sharded twin: identical exact counts required.
  double wall_sharded = wall;
  std::uint32_t shards_used = r.shards_used;
  std::uint64_t merge_ambiguities = r.merge_ambiguities;
  if (twin_shards(o) > 1) {
    ws::RunConfig sharded = c;
    sharded.sim_shards = twin_shards(o);
    t0 = Clock::now();
    const ws::RunResult rs = run(sharded, nullptr);
    wall_sharded = seconds_since(t0);
    check_run(rs, oracle, &ref, check);
    print_digest(o, "sharded_twin", digest(rs));
    shards_used = rs.shards_used;
    merge_ambiguities = rs.merge_ambiguities;
  }

  // Set-up layers: topology and selectors, built on a trimmed heap so the RSS
  // delta is the selectors' own footprint.
  malloc_trim(0);
  const std::size_t rss0 = current_rss_bytes();
  std::unique_ptr<Setup> s = build_setup(c);
  const std::size_t rss1 = current_rss_bytes();
  const double table_mb =
      static_cast<double>(rss1 > rss0 ? rss1 - rss0 : 0) / (1024.0 * 1024.0);
  // The service plan also generates the job stream; it is timed on its own
  // and taken out of topo.build_s.
  double jobs_s = 0.0;
  if (c.svc.enabled) {
    t0 = Clock::now();
    g_sink = svc::generate_jobs(c.svc, c.tree).size();
    jobs_s = seconds_since(t0);
  }

  const auto u = [](auto v) { return static_cast<double>(v); };
  const double nodes = u(r.nodes);
  const double attempts = u(r.stats.steal_attempts);
  const std::uint64_t draws =
      c.svc.enabled ? r.stats.steal_attempts
                    : obs.counts[CountingObserver::kRequestSent];
  if (!c.svc.enabled && draws != r.stats.steal_attempts) {
    ++check.failed;  // the observer seam disagrees with the run's counters
  }
  const std::uint64_t delivered = r.network.messages -
                                  r.faults.dropped_messages +
                                  r.faults.duplicated_messages;
  const std::uint64_t other_events =
      r.engine_events > delivered ? r.engine_events - delivered : 0;

  const double ns_per_draw = replay_draws_ns(*s, draws, o.ws_seed ^ 0x5eed);
  const double ns_per_msg =
      replay_network_ns(c, *s, r.network.messages, o.ws_seed ^ 0xbeef);
  const double ns_per_event =
      replay_engine_ns(r.engine_peak_pending, other_events, o.ws_seed ^ 0xfeed);

  // Shares of the single-threaded run's host time.
  const double uts_share = oracle.enumerate_s / wall;
  const double victim_share = u(draws) * ns_per_draw * 1e-9 / wall;
  const double network_share = u(delivered) * ns_per_msg * 1e-9 / wall;
  const double engine_share = u(other_events) * ns_per_event * 1e-9 / wall;

  metrics::ServiceTails tails;
  if (!r.jobs.empty()) tails = metrics::service_tails(r.jobs);

  std::vector<std::pair<std::string, std::string>> hooks = {
      {"workload", quoted(o.workload)}};
  for (int h = 0; h < CountingObserver::kHookCount; ++h) {
    hooks.emplace_back(CountingObserver::kNames[h], std::to_string(obs.counts[h]));
  }
  std::printf("hooks %s\n", json_object(hooks).c_str());

  print_result(check, {
      {"uts.nodes", nodes, "count"},
      {"uts.ns_per_node", oracle.enumerate_s * 1e9 / u(oracle.nodes), "ns"},
      {"uts.share", uts_share, "ratio"},
      {"proto.victim.draws", u(draws), "count"},
      {"proto.victim.ns_per_draw", ns_per_draw, "ns"},
      {"proto.victim.share", victim_share, "ratio"},
      {"proto.victim.build_s", s->selectors_s, "s"},
      {"proto.victim.table_mb", table_mb, "MB"},
      {"proto.peer.steal_attempts_per_node", attempts / nodes, "count"},
      {"proto.peer.failed_steals_per_node", u(r.stats.failed_steals) / nodes, "count"},
      {"proto.peer.steal_success_ratio",
       attempts > 0 ? u(r.stats.successful_steals) / attempts : 0.0, "ratio"},
      {"proto.peer.chunks_per_steal",
       r.stats.successful_steals > 0
           ? u(r.stats.chunks_sent) / u(r.stats.successful_steals) : 0.0,
       "count"},
      {"proto.peer.steal_timeouts", u(r.stats.steal_timeouts), "count"},
      {"proto.peer.steal_retries", u(r.stats.steal_retries), "count"},
      {"proto.peer.token_regens", u(r.stats.token_regens), "count"},
      {"proto.peer.amount_switches", u(r.stats.amount_switches), "count"},
      {"sim.network.msgs_per_node", u(r.network.messages) / nodes, "count"},
      {"sim.network.bytes_per_node", u(r.network.bytes) / nodes, "B"},
      {"sim.network.peak_channels", u(r.network.peak_channels), "count"},
      {"sim.network.max_load_hops", r.network.max_load_hops, "hops"},
      {"sim.network.intra_node_share",
       r.network.messages > 0
           ? u(r.network.intra_node_messages) / u(r.network.messages) : 0.0,
       "ratio"},
      {"sim.network.ns_per_msg", ns_per_msg, "ns"},
      {"sim.network.share", network_share, "ratio"},
      {"sim.engine.events", u(r.engine_events), "count"},
      {"sim.engine.events_per_node", u(r.engine_events) / nodes, "count"},
      {"sim.engine.peak_pending", u(r.engine_peak_pending), "count"},
      {"sim.engine.events_per_s", u(r.engine_events) / wall, "1/s"},
      {"sim.engine.ns_per_event", ns_per_event, "ns"},
      {"sim.engine.share", engine_share, "ratio"},
      {"topo.build_s", std::max(0.0, s->topo_s - jobs_s), "s"},
      {"fault.dropped_messages", u(r.faults.dropped_messages), "count"},
      {"fault.duplicated_messages", u(r.faults.duplicated_messages), "count"},
      {"shard.used", u(shards_used), "count"},
      {"shard.merge_ambiguities", u(merge_ambiguities), "count"},
      {"shard.speedup", wall / wall_sharded, "ratio"},
      {"svc.jobs", u(std::max<std::size_t>(r.jobs.size(), 1)), "count"},
      {"svc.queue_wait_p50_ms", tails.queue_wait.p50, "ms"},
      {"svc.sched_latency_p50_ms", tails.sched_latency.p50, "ms"},
      {"residual.share",
       1.0 - uts_share - victim_share - network_share - engine_share, "ratio"},
      {"trace.overhead", wall_traced / wall - 1.0, "ratio"},
  });
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string build_type = DWS_PERFBENCH_BUILD_TYPE;
  bool sanitized = false;
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  sanitized = true;
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
  sanitized = true;
#endif
#endif
  if (build_type != "Release" || sanitized) {
    die("refusing to time a '" + build_type + "'" +
        (sanitized ? " sanitizer" : "") + " build; configure with "
        "-DCMAKE_BUILD_TYPE=Release");
  }

  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--ws-seed") o.ws_seed = std::stoull(value());
    else if (a == "--svc-seed") o.svc_seed = std::stoull(value());
    else if (a == "--fault-seed") o.fault_seed = std::stoull(value());
    else if (a == "--tree-seed") o.tree_seed = static_cast<std::uint32_t>(std::stoul(value()));
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--smoke") o.smoke = true;
    else die("unknown argument '" + a + "'");
  }
  std::printf("host %s\n",
              json_object({{"nproc", std::to_string(sysconf(_SC_NPROCESSORS_ONLN))},
                           {"compiler", quoted(DWS_PERFBENCH_COMPILER)},
                           {"build_type", quoted(build_type)}})
                  .c_str());
  return o.trace ? traced(o, make_config(o)) : measured(o);
}
