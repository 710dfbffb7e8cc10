#include "rt/runtime.hpp"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "proto/observer.hpp"
#include "proto/payload_store.hpp"
#include "proto/peer.hpp"
#include "proto/replay.hpp"
#include "rt/channel.hpp"
#include "support/check.hpp"
#include "uts/tree.hpp"

namespace dws::rt {
namespace {

/// Serializes observer hooks arriving concurrently from rank threads, so the
/// user's observer (the dws::audit ledger in particular) sees the same
/// single-threaded calling convention the simulator gives it. The lock also
/// makes each hook a synchronization point: an auditor reading causally
/// related events (a send, then its receive) observes them in a consistent
/// order.
class LockedObserver final : public proto::HookRecorder {
 public:
  explicit LockedObserver(proto::RunObserver& inner) : inner_(inner) {}

  void on_hook(const proto::HookRecord& record) override {
    std::lock_guard<std::mutex> lock(mu_);
    proto::replay(record, inner_);
  }

 private:
  std::mutex mu_;
  proto::RunObserver& inner_;
};

class RankExecutor;

/// Shared state of one native run: the geometry (same JobLayout/LatencyModel
/// objects the simulator builds, so victim selectors and steal-distance
/// metrics see identical topology), the store every rank thread parks stolen
/// chunks in while their batch crosses a channel, the wall-clock epoch, and
/// the global termination record.
class Runtime {
 public:
  Runtime(const ws::RunConfig& config, proto::RunObserver* observer);
  ~Runtime();

  void run();
  ws::RunResult result() const;

  const ws::RunConfig& config() const noexcept { return config_; }
  const topo::LatencyModel& latency() const noexcept { return latency_; }
  proto::RunObserver* observer() const noexcept { return observer_; }
  proto::PayloadStore& payloads() noexcept { return payloads_; }
  bool same_node(topo::Rank a, topo::Rank b) const {
    return layout_.same_node(a, b);
  }

  /// Nanoseconds since the run's epoch (set just before threads spawn).
  support::SimTime now() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
  }

  RankExecutor& executor(topo::Rank r) { return *executors_[r]; }

  /// Rank 0's peer proved global quiescence. Exactly once per run.
  void declare_terminated(support::SimTime at) {
    DWS_CHECK(!terminated_);
    terminated_ = true;
    termination_time_ = at;
  }

 private:
  const ws::RunConfig& config_;
  topo::JobLayout layout_;
  topo::LatencyModel latency_;
  proto::RunObserver* observer_;
  proto::PayloadStore payloads_;  // before executors_: their peers park here

  std::vector<std::unique_ptr<RankExecutor>> executors_;
  std::chrono::steady_clock::time_point epoch_;

  // Written by rank 0's thread inside declare_terminated, read by the main
  // thread after join() — the join is the synchronization edge.
  bool terminated_ = false;
  support::SimTime termination_time_ = 0;
};

/// One rank of the native runtime: an OS thread running the proto::Peer
/// protocol loop against an MPSC inbox. The thread structure mirrors the
/// paper's MPI ranks — expand up to poll_interval nodes, then poll for steal
/// requests / responses / tokens — except that "the network" is other
/// threads pushing into our channel.
class RankExecutor final : public proto::Transport {
 public:
  RankExecutor(Runtime& rt, topo::Rank rank)
      : rt_(rt),
        rank_(rank),
        peer_(rt.config().ws,
              proto::Peer::Params{rank, rt.config().num_ranks,
                                  /*lossy_transport=*/false, &rt.payloads()},
              &rt.latency(), *this, rt.observer()) {}

  /// Thread body: the Fig. 1 loop, driven by real time.
  void thread_main() {
    if (rank_ == 0) {
      peer_.seed_root(uts::root_node(rt_.config().tree));
    } else {
      peer_.on_out_of_work(rt_.now());
    }

    std::uint32_t idle_spins = 0;
    while (!peer_.done()) {
      bool progressed = drain_inbox();
      if (peer_.done()) break;
      progressed |= fire_timers();

      if (peer_.active()) {
        idle_spins = 0;
        if (peer_.stack().empty()) {
          // The last expansion drained us: start a work-discovery session.
          peer_.on_out_of_work(rt_.now());
          continue;
        }
        expand_batch();
        if (peer_.has_dependents()) {
          peer_.feed_lifeline_dependents(rt_.now());
        }
      } else if (!progressed && ++idle_spins >= kSpinsBeforeYield) {
        // Idle with nothing delivered: give victims (possibly oversubscribed
        // on this core) a chance to run and answer us.
        idle_spins = 0;
        std::this_thread::yield();
      }
    }
  }

  proto::Peer& peer() noexcept { return peer_; }
  MpscChannel<proto::Message>& inbox() noexcept { return inbox_; }
  std::uint64_t messages_sent() const noexcept { return msgs_sent_; }
  std::uint64_t bytes_sent() const noexcept { return bytes_sent_; }
  std::uint64_t intra_node_sent() const noexcept { return intra_sent_; }
  std::int64_t busy_ns() const noexcept { return busy_ns_; }

 private:
  static constexpr std::uint32_t kSpinsBeforeYield = 64;

  // ---- proto::Transport ----

  void send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
            fault::MsgClass cls) override {
    (void)cls;  // in-process channels are reliable; no drop/dup classes
    ++msgs_sent_;
    bytes_sent_ += bytes;
    if (rt_.same_node(rank_, to)) ++intra_sent_;
    rt_.executor(to).inbox().push(msg);
  }

  void send_deferred(support::SimTime delay, topo::Rank to,
                     proto::StealResponse resp, std::uint32_t bytes,
                     fault::MsgClass cls) override {
    // The simulator charges `delay` of victim-side packaging time before a
    // response enters the network; on real threads that time has genuinely
    // elapsed (we did the work of splitting the stack), so ship now.
    (void)delay;
    send(to, resp, bytes, cls);
  }

  void arm_steal_timer(support::SimTime delay,
                       std::uint32_t request_id) override {
    steal_deadline_ = rt_.now() + delay;
    steal_timer_id_ = request_id;
    steal_armed_ = true;
  }

  void arm_token_timer(support::SimTime delay,
                       std::uint32_t generation) override {
    token_deadline_ = rt_.now() + delay;
    token_timer_gen_ = generation;
    token_armed_ = true;
  }

  void activated() override {
    // Nothing to schedule: the rank loop reads peer_.active() on its next
    // iteration and resumes expanding.
  }

  void terminated(support::SimTime at) override { rt_.declare_terminated(at); }

  // ---- Rank loop pieces ----

  bool drain_inbox() {
    bool any = false;
    proto::Message msg;
    while (!peer_.done() && inbox_.pop(msg)) {
      any = true;
      // Zero packaging delay: real packaging time passes on this thread
      // inside the peer's response path (see send_deferred above).
      peer_.on_message(msg, rt_.now());
    }
    return any;
  }

  /// Polled timers. One slot per timer kind is enough: the peer only ever
  /// cares about its newest steal request id and newest token generation —
  /// re-arming overwrites, and the peer discards stale firings itself.
  bool fire_timers() {
    bool fired = false;
    if (steal_armed_) {
      const support::SimTime t = rt_.now();
      if (t >= steal_deadline_) {
        steal_armed_ = false;
        peer_.on_steal_timeout(steal_timer_id_, t);
        fired = true;
      }
    }
    if (token_armed_ && !peer_.done()) {
      const support::SimTime t = rt_.now();
      if (t >= token_deadline_) {
        token_armed_ = false;
        peer_.on_token_timeout(token_timer_gen_, t);
        fired = true;
      }
    }
    return fired;
  }

  /// Expand up to poll_interval nodes, accumulating real busy time — the
  /// source of the run's measured per_node_cost (and hence of efficiency()
  /// denominators that reflect this machine, not the simulator's constants).
  void expand_batch() {
    proto::ChunkStack& stack = peer_.stack();
    metrics::RankStats& stats = peer_.stats();
    proto::RunObserver* obs = rt_.observer();
    const uts::TreeParams& tree = rt_.config().tree;

    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint32_t i = 0; i < rt_.config().ws.poll_interval; ++i) {
      const auto node = stack.pop();
      if (!node.has_value()) break;
      ++stats.nodes_processed;
      const std::uint32_t n = uts::num_children(tree, *node);
      if (obs != nullptr) obs->on_node_expanded(rank_, *node, n);
      if (n == 0) {
        ++stats.leaves_seen;
      } else {
        for (std::uint32_t c = 0; c < n; ++c) {
          stack.push(uts::child_node(*node, c));
        }
      }
    }
    busy_ns_ += std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
  }

  Runtime& rt_;
  topo::Rank rank_;
  proto::Peer peer_;
  MpscChannel<proto::Message> inbox_;

  // Single-slot polled timers (this thread only).
  bool steal_armed_ = false;
  support::SimTime steal_deadline_ = 0;
  std::uint32_t steal_timer_id_ = 0;
  bool token_armed_ = false;
  support::SimTime token_deadline_ = 0;
  std::uint32_t token_timer_gen_ = 0;

  // Traffic accounting (this thread writes, main thread reads after join).
  std::uint64_t msgs_sent_ = 0;
  std::uint64_t bytes_sent_ = 0;
  std::uint64_t intra_sent_ = 0;
  std::int64_t busy_ns_ = 0;
};

Runtime::Runtime(const ws::RunConfig& config, proto::RunObserver* observer)
    : config_(config),
      layout_(config.machine, config.num_ranks, config.placement,
              config.procs_per_node, config.origin_cube),
      latency_(layout_, config.latency),
      observer_(observer) {
  executors_.reserve(config.num_ranks);
  for (topo::Rank r = 0; r < config.num_ranks; ++r) {
    executors_.push_back(std::make_unique<RankExecutor>(*this, r));
  }
}

Runtime::~Runtime() = default;

void Runtime::run() {
  epoch_ = std::chrono::steady_clock::now();
  std::vector<std::thread> threads;
  threads.reserve(executors_.size());
  for (auto& ex : executors_) {
    threads.emplace_back([&ex] { ex->thread_main(); });
  }
  for (auto& t : threads) t.join();
}

ws::RunResult Runtime::result() const {
  // Same post-run invariants as run_simulation: the token protocol fired,
  // every rank drained its stack, every shipped chunk landed and left the
  // payload store.
  DWS_CHECK(terminated_);
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_received = 0;
  for (const auto& ex : executors_) {
    DWS_CHECK(ex->peer().done());
    DWS_CHECK(ex->peer().stack().size() == 0);
    chunks_sent += ex->peer().stats().chunks_sent;
    chunks_received += ex->peer().stats().chunks_received;
  }
  DWS_CHECK(chunks_sent == chunks_received);
  DWS_CHECK(payloads_.in_use() == 0);

  ws::RunResult result;
  result.runtime = termination_time_;
  result.num_ranks = config_.num_ranks;
  result.per_rank.reserve(config_.num_ranks);
  std::int64_t busy_ns = 0;
  for (const auto& ex : executors_) {
    result.nodes += ex->peer().stats().nodes_processed;
    result.leaves += ex->peer().stats().leaves_seen;
    result.per_rank.push_back(ex->peer().stats());
    result.network.messages += ex->messages_sent();
    result.network.bytes += ex->bytes_sent();
    result.network.intra_node_messages += ex->intra_node_sent();
    busy_ns += ex->busy_ns();
  }
  result.stats = metrics::aggregate(result.per_rank);
  // Measured mean expansion cost: sequential_time() and efficiency() then
  // compare the run against this machine's real single-thread speed, which
  // is what bench/sim_vs_rt feeds back into the simulator's cost model.
  result.per_node_cost =
      result.nodes > 0
          ? std::max<support::SimTime>(
                1, busy_ns / static_cast<std::int64_t>(result.nodes))
          : config_.ws.node_cost();

  if (config_.ws.record_trace) {
    result.trace.total_time = termination_time_;
    result.trace.ranks.reserve(config_.num_ranks);
    for (const auto& ex : executors_) {
      result.trace.ranks.push_back(ex->peer().trace());
    }
  }
  return result;
}

}  // namespace

ws::RunResult run_native(const ws::RunConfig& config,
                         proto::RunObserver* observer) {
  DWS_CHECK(config.num_ranks >= 1);
  // Simulator-only features (validate() rejects these for Backend::kRt; the
  // checks also guard direct callers).
  DWS_CHECK(!config.fault.enabled());
  DWS_CHECK(!config.ws.one_sided_steals);

  if (observer == nullptr) {
    Runtime rt(config, nullptr);
    rt.run();
    return rt.result();
  }
  LockedObserver locked(*observer);
  Runtime rt(config, &locked);
  rt.run();
  return rt.result();
}

}  // namespace dws::rt
