#pragma once

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdint>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "proto/payload_store.hpp"
#include "sim/engine.hpp"
#include "sim/network.hpp"
#include "support/check.hpp"
#include "topo/partition.hpp"
#include "ws/scheduler.hpp"

/// The one run driver of the simulator (DESIGN.md §12). ws::run_simulation
/// and svc::run_service both run through run_windowed, which owns the
/// engines, networks, fault injectors, shard partition, window loop and
/// statistics merge. Each passes a *binding* B that owns only its per-rank
/// executors and post-run checks, and provides:
///
///   using Payload = ...;   // what travels through the network
///   using Deliver = ...;   // direct-call delivery functor for Payload
///   struct Local { ... };  // one shard's executors and context
///   Deliver deliver(Local&);
///   // Build the executors of `ranks` (ascending) on `shard` and schedule
///   // their bootstrap events. `sharded` is false on the serial path.
///   void populate(Shard<B>& shard, const std::vector<topo::Rank>& ranks,
///                 bool sharded);
///   // Sharded runs only: called on shard 0's thread at every window
///   // boundary, while no shard is executing.
///   void on_window();
///   // After the run: check the binding's invariants and assemble the
///   // result. `locals` is indexed by shard, `shard_of_rank` by rank.
///   RunResult finish(const std::vector<const Local*>& locals,
///                    const std::vector<std::uint32_t>& shard_of_rank);
namespace dws::ws {

template <typename Binding>
using BindingNetwork =
    sim::Network<typename Binding::Payload, typename Binding::Deliver>;

/// One cross-shard message parked between the sender's window and the
/// receiver's drain: the precomputed (clamped) arrival time, the sender's
/// virtual time at the send (the injected event's t_sched), the sending rank
/// (the event's ordering-refinement `src` field), and the payload.
template <typename Payload>
struct MailEntry {
  support::SimTime arrival = 0;
  support::SimTime t_sched = 0;
  topo::Rank src = 0;
  topo::Rank dst = 0;
  Payload msg;
};

/// One (src shard, dst shard) mailbox. Written only by the src thread during
/// its execution phase, read and cleared only by the dst thread during its
/// drain phase; the window barriers separate the two, so no atomics are
/// needed — the alignment just keeps neighbouring slots off one cache line.
template <typename Payload>
struct alignas(64) MailSlot {
  std::vector<MailEntry<Payload>> entries;
};

/// The sending side of the mailbox fabric: classifies destination ranks and
/// appends cross-shard sends to this shard's outbound row.
template <typename Binding>
class ShardRouter final : public BindingNetwork<Binding>::Router {
 public:
  using Payload = typename Binding::Payload;

  ShardRouter(const std::vector<std::uint32_t>& shard_of_rank,
              std::uint32_t my_shard, MailSlot<Payload>* row)
      : shard_of_rank_(&shard_of_rank), my_shard_(my_shard), row_(row) {}

  bool is_remote(topo::Rank dst) const override {
    return (*shard_of_rank_)[dst] != my_shard_;
  }
  void post(topo::Rank dst, support::SimTime arrival, support::SimTime t_sched,
            topo::Rank src, Payload msg) override {
    row_[(*shard_of_rank_)[dst]].entries.push_back(
        MailEntry<Payload>{arrival, t_sched, src, dst, std::move(msg)});
  }

 private:
  const std::vector<std::uint32_t>* shard_of_rank_;
  std::uint32_t my_shard_;
  MailSlot<Payload>* row_;  // this shard's S outbound slots
};

/// Everything one shard owns: its engine, network and fault injector, the
/// binding's executors, and the per-window published next-event time; plus
/// the run's one PayloadStore, which every shard shares. A serial run is one
/// Shard with no router.
template <typename Binding>
struct Shard {
  Shard(std::uint32_t id, const RunConfig& config,
        proto::PayloadStore& payload_store)
      : engine(id),
        injector(config.fault, config.num_ranks),
        faults(injector.enabled() ? &injector : nullptr),
        payloads(&payload_store) {}
  Shard(const Shard&) = delete;
  Shard& operator=(const Shard&) = delete;

  sim::Engine engine;
  /// Shard-private injector. Message draws are keyed per channel and a
  /// channel's sends all happen on the sending rank's shard, so S private
  /// injectors make exactly the serial injector's decisions; straggler and
  /// pause assignments are pure functions of (seed, num_ranks) every copy
  /// agrees on.
  fault::Injector injector;
  /// What the network and executors get: null without faults, which keeps
  /// the hot paths on their zero-cost branch.
  fault::Injector* const faults;
  /// Chunks in transit, run-wide: a batch parked on one shard may be taken
  /// on another after crossing a mailbox.
  proto::PayloadStore* const payloads;
  typename Binding::Local local;
  std::unique_ptr<BindingNetwork<Binding>> network;
  std::unique_ptr<ShardRouter<Binding>> router;  ///< sharded runs only
  support::SimTime next_time = std::numeric_limits<support::SimTime>::max();
};

namespace detail {

/// The conservative window loop: one thread per shard until every engine is
/// drained, or until a shard throws — then every thread finishes its window,
/// joins, and the first exception is rethrown.
///
/// Per window, every shard thread:
///   1. (thread 0 only) calls the binding's on_window hook;
///   2. drains its inbound mailboxes into its engine (Engine::inject with
///      the sender's ordering key), in ascending source-shard order — the
///      deterministic global merge rule;
///   3. publishes its next event time and arrives at the sync barrier,
///      whose completion computes the window end
///      w_end = min(next times) + lookahead (or declares the run done);
///   4. executes every local event with time < w_end;
///   5. arrives at the exec barrier, which makes this window's mailbox
///      writes visible to the next drain.
///
/// Any message sent during a window arrives at or after w_end (the
/// lookahead is a static lower bound on cut latency), so drains at window
/// granularity can never deliver into a shard's past — the conservative
/// property that replaces null messages (DESIGN.md §12).
template <typename Binding>
void run_windows(std::vector<std::unique_ptr<Shard<Binding>>>& shards,
                 std::vector<MailSlot<typename Binding::Payload>>& mail,
                 sim::CongestionLedger* ledger, support::SimTime lookahead,
                 Binding& binding) {
  constexpr support::SimTime kInf =
      std::numeric_limits<support::SimTime>::max();
  const auto num_shards = static_cast<std::uint32_t>(shards.size());

  std::atomic<bool> failed{false};
  std::mutex error_mu;
  std::exception_ptr error;  // guarded by error_mu
  auto record_error = [&]() {
    std::lock_guard<std::mutex> lock(error_mu);
    if (!error) error = std::current_exception();
    failed.store(true, std::memory_order_release);
  };

  support::SimTime w_end = 0;
  bool done = false;
  std::barrier sync(num_shards, [&]() noexcept {
    // Fold every shard's congestion flight loads into the shared ledger
    // first — in ascending shard order, so the double sums are folded in one
    // deterministic sequence — and before the done check, so the final
    // window's flights still reach max_boundary_load.
    if (ledger != nullptr) {
      for (const auto& s : shards) s->network->drain_pending_flights(*ledger);
    }
    support::SimTime t_min = kInf;
    for (const auto& s : shards) t_min = std::min(t_min, s->next_time);
    if (t_min == kInf || failed.load(std::memory_order_acquire)) {
      done = true;
      return;
    }
    // No event, hence no send, is earlier than t_min: every flight that
    // can load a boundary at or before t_min / window is in the ledger, and
    // those are the only boundaries the coming window reads (its sends are
    // before t_min + lookahead <= t_min + window).
    if (ledger != nullptr) {
      ledger->seal_through(static_cast<std::uint64_t>(t_min) /
                           static_cast<std::uint64_t>(ledger->window()));
    }
    w_end = t_min > kInf - lookahead ? kInf : t_min + lookahead;
  });
  std::barrier exec_done(num_shards);

  auto shard_main = [&](std::uint32_t me) {
    Shard<Binding>& sh = *shards[me];
    while (true) {
      try {
        if (!failed.load(std::memory_order_acquire)) {
          // Runs concurrently with the other shards' drains, which is safe
          // as long as the hook touches nothing a drain does (ws replays
          // hook buffers written during execution phases). The sync barrier
          // below keeps the next execution phase from starting until the
          // hook has returned.
          if (me == 0) binding.on_window();
          for (std::uint32_t src = 0; src < num_shards; ++src) {
            if (src == me) continue;
            auto& slot = mail[static_cast<std::size_t>(src) * num_shards + me];
            for (auto& entry : slot.entries) {
              sh.network->accept_remote(entry.arrival, entry.t_sched, src,
                                        entry.src, entry.dst,
                                        std::move(entry.msg));
            }
            slot.entries.clear();
          }
          sh.next_time = sh.engine.next_event_time(kInf);
        } else {
          sh.next_time = kInf;
        }
      } catch (...) {
        record_error();
        sh.next_time = kInf;
      }
      sync.arrive_and_wait();
      if (done) break;
      try {
        sh.engine.run_until(w_end);
      } catch (...) {
        record_error();
      }
      exec_done.arrive_and_wait();
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    threads.emplace_back(shard_main, s);
  }
  for (auto& t : threads) t.join();
  if (error) std::rethrow_exception(error);

  for (const auto& slot : mail) DWS_CHECK(slot.entries.empty());
}

}  // namespace detail

/// Executes one run of `binding` on the simulator. With config.sim_shards
/// > 1 the ranks are partitioned over that many shards (capped at the job's
/// node count), each with its own engine, network and fault injector,
/// advancing on real threads under barrier-synchronized conservative
/// windows of width part.lookahead; cross-shard messages travel through
/// per-shard-pair mailboxes drained at window boundaries. With congestion
/// enabled, all shards share one CongestionLedger: flight loads are drained
/// into it at the sync barrier in ascending shard order, and the lookahead
/// is clamped to the congestion window so reads only ever hit sealed
/// boundaries. For every configuration validate() admits, the RunResult is
/// byte-identical to the one-shard run — the differential suites in
/// tests/audit enforce this at shard counts {1, 2, 4, 8}.
///
/// One shard (the default, and any one-node job) is the serial path: one
/// engine, network and injector, no router, threads, barriers or ledger,
/// and a plain Engine::run.
///
/// `layout` and `latency` are the run's shared immutable geometry; shard
/// threads only read them. An exception thrown on any shard is rethrown
/// here once every shard thread has joined.
template <typename Binding>
RunResult run_windowed(const RunConfig& config, const topo::JobLayout& layout,
                       const topo::LatencyModel& latency, Binding& binding) {
  topo::ShardPartition part = topo::partition_ranks(
      layout, config.latency, std::max(config.sim_shards, 1u));
  const std::uint32_t num_shards = part.num_shards;
  const bool sharded = num_shards > 1;
  DWS_CHECK(part.shard_of_rank.size() == config.num_ranks);
  // Partitions are contiguous in rank order, so rank 0 — which owns ws'
  // termination flag and hosts svc's controller — always lives on shard 0.
  DWS_CHECK(part.shard_of_rank[0] == 0);

  const sim::CongestionParams congestion = config.run_congestion();
  // Shared congestion ledger: one per sharded run, read lock-free by every
  // shard (reads target boundaries at least one window old) and written only
  // inside the sync barrier. Clamping the lookahead to the window is what
  // guarantees that staleness bound — with the default window (one
  // network_base) the clamp is a no-op, since every partition's lookahead
  // is a min over cut latencies that include network_base.
  std::unique_ptr<sim::CongestionLedger> ledger;
  if (sharded) {
    DWS_CHECK(part.lookahead > 0);
    if (congestion.enabled) {
      const support::SimTime window =
          sim::congestion_window(congestion, latency.params());
      ledger = std::make_unique<sim::CongestionLedger>(window);
      part.lookahead = std::min(part.lookahead, window);
      DWS_CHECK(part.lookahead > 0);
    }
  }

  // Declared before the shards, so it outlives every executor that parks
  // into it; whatever an aborted run leaves parked is freed with it.
  proto::PayloadStore payloads;
  std::vector<MailSlot<typename Binding::Payload>> mail(
      static_cast<std::size_t>(num_shards) * num_shards);
  std::vector<std::unique_ptr<Shard<Binding>>> shards;
  shards.reserve(num_shards);
  for (std::uint32_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard<Binding>>(s, config, payloads);
    shard->network = std::make_unique<BindingNetwork<Binding>>(
        shard->engine, latency, binding.deliver(shard->local), congestion,
        shard->faults);
    if (sharded) {
      shard->router = std::make_unique<ShardRouter<Binding>>(
          part.shard_of_rank, s,
          &mail[static_cast<std::size_t>(s) * num_shards]);
      shard->network->set_router(shard->router.get());
      if (ledger) shard->network->set_shared_ledger(ledger.get());
    }
    binding.populate(*shard, part.shard_ranks[s], sharded);
    shards.push_back(std::move(shard));
  }

  if (sharded) {
    detail::run_windows(shards, mail, ledger.get(), part.lookahead, binding);
  } else {
    shards[0]->engine.run();
  }

  std::vector<const typename Binding::Local*> locals;
  locals.reserve(num_shards);
  for (const auto& sh : shards) locals.push_back(&sh->local);
  RunResult result = binding.finish(locals, part.shard_of_rank);

  result.shards_used = num_shards;
  for (const auto& sh : shards) {
    const sim::NetworkStats& ns = sh->network->stats();
    result.network.messages += ns.messages;
    result.network.bytes += ns.bytes;
    result.network.intra_node_messages += ns.intra_node_messages;
    result.network.max_load_hops =
        std::max(result.network.max_load_hops, ns.max_load_hops);
    result.network.peak_channels += ns.peak_channels;
    // Channels are sender-owned and disjoint across shards, so summing the
    // per-shard injectors reproduces the serial injector's totals exactly.
    const fault::FaultStats& fs = sh->injector.stats();
    result.faults.dropped_messages += fs.dropped_messages;
    result.faults.dropped_bytes += fs.dropped_bytes;
    result.faults.duplicated_messages += fs.duplicated_messages;
    result.faults.duplicated_bytes += fs.duplicated_bytes;
    result.engine_events += sh->engine.events_executed();
    result.engine_peak_pending = std::max<std::uint64_t>(
        result.engine_peak_pending, sh->engine.max_pending());
    result.merge_ambiguities += sh->engine.merge_ambiguities();
  }
  if (ledger) {
    // Deferred mode leaves per-shard NetworkStats::max_load_hops at 0; the
    // run-wide peak lives in the shared ledger.
    result.network.max_load_hops = ledger->max_boundary_load();
  }
  return result;
}

}  // namespace dws::ws
