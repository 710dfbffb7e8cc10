#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "fault/fault.hpp"
#include "sim/engine.hpp"
#include "sim/pool.hpp"
#include "support/open_table.hpp"
#include "support/sim_time.hpp"
#include "topo/latency.hpp"

namespace dws::sim {

/// Aggregate traffic counters, reported by the bench harness.
struct NetworkStats {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  std::uint64_t intra_node_messages = 0;
  /// Peak per-window congestion load: max over window boundaries of the
  /// hop-units of flights crossing that boundary (see CongestionLedger).
  double max_load_hops = 0.0;
  /// Peak number of (src, dst) channels with a delivery in flight. Channel
  /// ordering state is retired as soon as its last delivery fires, so this
  /// bounds the non-overtaking map instead of the all-pairs worst case.
  std::uint64_t peak_channels = 0;
};

/// Fluid-approximation congestion model, windowed for determinism. Time is
/// cut into fixed windows of length `window` (ns). Every inter-node flight
/// contributes its `hops` link-units to each window *boundary* j·window that
/// falls strictly after its send and at-or-before its arrival; a send in
/// window k reads the load folded at boundary k — i.e. the hop-units of
/// flights that were in the air as window k opened — and scales the
/// network-portion of its latency by (1 + load / capacity_hops). This
/// captures the effect the paper attributes to the physical scale of the
/// K Computer: uniform random steal traffic crosses many links and
/// saturates the fabric, while distance-skewed traffic stays local and
/// cheap. Intra-node messages are unaffected.
///
/// The one-window lag is what makes the model shard-deterministic: a send at
/// time t only ever reads boundary loads at or before t - window, and the
/// sharded run loop clamps its conservative lookahead to the window, so
/// every contribution a send can observe was folded at a past barrier —
/// identical at any shard count (DESIGN.md §12). Loads are integer hop sums
/// accumulated in doubles, so folding order cannot perturb them.
///
/// Disabled by default (tests exercise raw latencies); the bench harness
/// enables it with a capacity derived from the allocation's link count (see
/// ws::RunConfig::enable_congestion).
struct CongestionParams {
  bool enabled = false;
  /// Boundary hop-units at which the network latency doubles. A reasonable
  /// physical anchor is the number of links inside the job's allocation
  /// (~6 links/node in a 6D torus).
  double capacity_hops = 1.0;
  /// Window length in ns; 0 (the default) resolves to the latency model's
  /// network_base — the natural "one network traversal" granularity, and
  /// never below the sharded lookahead, so the default costs sharded runs
  /// no window shrinkage. See congestion_window().
  support::SimTime window = 0;
};

/// The per-boundary congestion ledger: load[j] is the hop-units of flights
/// crossing window boundary j·window. Serial runs fold into a private
/// ledger as they send; sharded runs fold each shard's flights into one
/// shared ledger at the barrier (deterministic ascending-shard order), and
/// shards read it without locks — reads target boundaries at least one full
/// window old, which the barrier has already sealed.
class CongestionLedger {
 public:
  explicit CongestionLedger(support::SimTime window) : window_(window) {
    DWS_CHECK(window_ > 0);
  }

  support::SimTime window() const noexcept { return window_; }

  /// Adds `hops` to boundary j (time j·window_).
  void add(std::uint64_t boundary, double hops) {
    if (boundary >= load_.size()) load_.resize(boundary + 1, 0.0);
    load_[boundary] += hops;
    max_load_ = std::max(max_load_, load_[boundary]);
  }

  /// Load folded at boundary j; 0 for boundaries no flight has reached.
  double boundary_load(std::uint64_t boundary) const noexcept {
    return boundary < load_.size() ? load_[boundary] : 0.0;
  }

  /// Max over boundaries of boundary_load — the run's max_load_hops.
  double max_boundary_load() const noexcept { return max_load_; }

 private:
  support::SimTime window_;
  std::vector<double> load_;
  double max_load_ = 0.0;
};

/// Resolves the effective congestion window: an explicit positive window
/// wins; the 0 default means one network_base. Single source of truth for
/// the serial Network and the sharded run loop, which must agree on it.
inline support::SimTime congestion_window(const CongestionParams& congestion,
                                          const topo::LatencyParams& latency) {
  return congestion.window > 0 ? congestion.window : latency.network_base;
}

/// Per-channel ordering state of a Network: for every (src, dst) channel
/// with a delivery in flight, the channel's latest arrival time and its count
/// of in-flight deliveries, held in one support::OpenTable. A send and a
/// retirement each cost expected O(1) probes (a broadcast from one rank to
/// every rank included), the last retirement frees the channel's slot by
/// backward shift, and the storage grows only to the peak live channel
/// count: steady-state churn allocates nothing.
class ChannelTable {
  struct State {
    support::SimTime last_arrival = 0;
    std::uint32_t in_flight = 0;
  };
  using Table = support::OpenTable<State>;

 public:
  /// Key of the channel from src to dst. Ranks are 32-bit and src != dst,
  /// so no live key equals kNoKey.
  static std::uint64_t key(topo::Rank src, topo::Rank dst) noexcept {
    return (static_cast<std::uint64_t>(src) << 32) | dst;
  }
  static constexpr std::uint64_t kNoKey = Table::kNoKey;

  /// Opens one more in-flight delivery on channel `key` with raw arrival
  /// time `arrival`, and returns it clamped to the channel's previous
  /// arrival (MPI non-overtaking), which it then becomes. A channel with
  /// no delivery in flight has no previous arrival to clamp to.
  support::SimTime admit(std::uint64_t key, support::SimTime arrival) {
    State& ch = table_[key];
    if (ch.in_flight != 0 && arrival < ch.last_arrival) {
      arrival = ch.last_arrival;
    }
    ch.last_arrival = arrival;
    ++ch.in_flight;
    return arrival;
  }

  /// Closes one in-flight delivery on channel `key`; the last one frees
  /// the channel's slot.
  void retire(std::uint64_t key) {
    Table::Slot* slot = table_.find(key);
    DWS_CHECK(slot != nullptr);  // retiring an unknown channel
    DWS_DCHECK(slot->value.in_flight > 0);
    if (--slot->value.in_flight == 0) table_.erase(*slot);
  }

  /// Channels with at least one delivery in flight.
  std::size_t size() const noexcept { return table_.size(); }

 private:
  Table table_;
};

/// Point-to-point message transport between simulated ranks.
///
/// Models what the paper's UTS implementation gets from MPI two-sided
/// messaging: asynchronous sends whose delivery delay comes from the physical
/// distance between ranks (LatencyModel), with per-channel non-overtaking
/// (MPI's ordering guarantee for a (source, dest) pair). Delivery invokes
/// `Deliver(dst, msg)` at the arrival time; the work-stealing worker layered
/// above decides what "receiving" means (it polls between node expansions,
/// like the reference implementation polls MPI).
///
/// Event-core integration: a send parks the message in a slab pool and
/// schedules one typed kNetworkDeliver event carrying the pool handle — no
/// per-message closure and no per-message allocation. The steal protocol's
/// messages are trivially copyable (stolen chunks stay in the run's
/// proto::PayloadStore), so each hop through here is a plain copy. `Deliver`
/// is a concrete functor, `void(topo::Rank dst, Message)`, so delivery is a
/// direct call.
///
/// Channel lifecycle: the non-overtaking clamp needs a channel's previous
/// arrival time only while a delivery is still in flight — once the last one
/// fires, any later send on that channel arrives at now + latency >= every
/// past arrival, so the channel's slot in the ChannelTable is freed. A send
/// admits one delivery (clamp and count) and its kNetworkDeliver event
/// retires it; both are expected O(1) and allocation-free once the table has
/// grown to the run's peak. NetworkStats::peak_channels records that peak of
/// live channels. Each send resolves its latency, hops and same-node flag
/// with one LatencyModel::route call, shared by a duplicated copy.
///
/// Fault injection (DESIGN.md §10): with a fault::Injector attached, each
/// send first asks the injector for a plan. A dropped message is still
/// counted in NetworkStats (the send happened; only delivery is lost) but
/// schedules nothing and adds no congestion load. A duplicated message is
/// delivered twice — the copy gets its own jitter draw but both obey the
/// channel clamp — and counted twice. The copy is a byte copy: a duplicated
/// work-carrying response shares its payload handle with the original, and
/// only the copy the thief accepts takes the payload (proto::ChunkBatch). Latency multipliers (jitter, degraded
/// links) scale the full congested latency of each delivery.
///
/// Sharded runs (DESIGN.md §12): each shard owns one Network over the same
/// global latency model. A Router attached with set_router diverts sends to
/// ranks outside the shard: the channel clamp still runs here (the sender's
/// shard owns all (src, dst) ordering state — a destination rank lives in
/// exactly one shard, so a channel is either always-local or always-remote),
/// but instead of a local delivery event the message is posted to a shard
/// mailbox together with its arrival time and the sender's clock. The
/// destination shard re-materializes it with accept_remote. Because no local
/// delivery fires for a remote send, its channel retirement is lazy: the
/// (arrival, channel) pair waits in a min-heap until flush_retirements sees
/// the local clock pass the arrival — at which point any future send on the
/// channel arrives later anyway, so dropping the clamp state cannot reorder
/// deliveries.
///
/// Congestion under sharding: each shard's Network reads boundary loads from
/// one *shared* CongestionLedger (set_shared_ledger) and defers its own
/// flights' contributions to pending_loads; the run loop drains every
/// shard's pending loads into the ledger inside the barrier, in ascending
/// shard order, before computing the next window. A send at time t reads
/// only boundaries at or before t - window <= t - lookahead, all sealed by
/// past barriers, so the loads it sees — and hence every latency — are
/// identical to the serial run's.
template <typename Message, typename Deliver>
class Network final : public EventSink {
 public:
  /// Shard routing seam. `is_remote` classifies a destination rank;
  /// `post` hands a cross-shard message (plus the precomputed arrival time,
  /// the sender's current virtual time — the injected event's t_sched — and
  /// the sending rank `src`, the ordering-refinement field) to the run
  /// loop's mailbox fabric.
  class Router {
   public:
    virtual bool is_remote(topo::Rank dst) const = 0;
    virtual void post(topo::Rank dst, support::SimTime arrival,
                      support::SimTime t_sched, topo::Rank src,
                      Message msg) = 0;

   protected:
    ~Router() = default;
  };

  Network(Engine& engine, const topo::LatencyModel& latency, Deliver deliver,
          CongestionParams congestion = {},
          fault::Injector* faults = nullptr)
      : engine_(&engine),
        latency_(&latency),
        deliver_(std::move(deliver)),
        congestion_(congestion),
        faults_(faults) {
    DWS_CHECK(!congestion_.enabled || congestion_.capacity_hops > 0.0);
    if (congestion_.enabled) {
      window_ = congestion_window(congestion_, latency_->params());
      // Immediate mode: this network owns the ledger and folds flights as
      // they are sent. A sharded run swaps in the shared ledger below.
      own_ledger_ = std::make_unique<CongestionLedger>(window_);
      read_ledger_ = own_ledger_.get();
    }
  }

  /// Sharded-run congestion wiring: read boundary loads from `ledger`
  /// (owned by the run loop, shared by all shards) and defer this shard's
  /// own contributions until drain_pending_loads. Must happen before any
  /// send; the ledger must outlive the network.
  void set_shared_ledger(const CongestionLedger* ledger) {
    DWS_CHECK(congestion_.enabled);
    DWS_CHECK(ledger != nullptr && ledger->window() == window_);
    own_ledger_.reset();
    read_ledger_ = ledger;
    deferred_loads_ = true;
  }

  /// Folds this shard's pending flight contributions into the shared
  /// ledger. Called inside the window barrier in ascending shard order, so
  /// the fold sequence — and every double sum — is deterministic.
  void drain_pending_loads(CongestionLedger& ledger) {
    for (const auto& [boundary, hops] : pending_loads_) {
      ledger.add(boundary, hops);
    }
    pending_loads_.clear();
  }

  /// Send `msg` of `bytes` payload bytes from `src` to `dst` (src != dst).
  /// `cls` declares the message's loss semantics to the fault injector; it
  /// is ignored when no injector is attached.
  void send(topo::Rank src, topo::Rank dst, Message msg, std::uint32_t bytes,
            fault::MsgClass cls = fault::MsgClass::kReliable) {
    DWS_CHECK(src != dst);
    const topo::Route route = latency_->route(src, dst, bytes, engine_->now());
    if (faults_ != nullptr && faults_->enabled()) {
      const fault::SendPlan plan =
          faults_->plan_send(ChannelTable::key(src, dst), cls, bytes);
      if (plan.drop) {
        // The send still happened from the sender's point of view: count it
        // so send-side ledgers (audit) and NetworkStats agree, but schedule
        // no delivery and load no links.
        count_message(route, bytes);
        return;
      }
      if (plan.duplicate) {
        enqueue(src, dst, Message(msg), bytes, route, plan.dup_latency_mult);
      }
      enqueue(src, dst, std::move(msg), bytes, route, plan.latency_mult);
      return;
    }
    enqueue(src, dst, std::move(msg), bytes, route, 1.0);
  }

  /// kNetworkDeliver dispatch: unparks the message, retires the channel if
  /// this was its last in-flight delivery, and hands the message to the
  /// receiver. Flights accepted from another shard carry the sentinel
  /// channel — their ordering state lives (and retires) on the sending
  /// shard. Congestion needs no work here: a flight's boundary
  /// contributions were recorded at send time.
  void on_event(const Event& ev) override {
    InFlight flight = in_flight_.take(ev.payload);
    if (flight.channel != kRemoteChannel) channels_.retire(flight.channel);
    deliver_(static_cast<topo::Rank>(ev.rank), std::move(flight.msg));
  }

  /// Attach (or detach, with nullptr) the shard router. Must happen before
  /// any send; the router must outlive the network.
  void set_router(Router* router) noexcept { router_ = router; }

  /// Destination side of a cross-shard send: parks `msg` and schedules its
  /// delivery through Engine::inject with the *sender's* ordering key
  /// (t_sched, src) so the merged event order matches an unsharded run. The
  /// channel clamp already ran on the sending shard, so the flight gets the
  /// sentinel channel and skips retirement here. Exactly one kNetworkDeliver
  /// fires per message in sharded and unsharded runs alike, keeping engine
  /// event counts shard-invariant.
  void accept_remote(support::SimTime arrival, support::SimTime t_sched,
                     std::uint32_t origin, topo::Rank src, topo::Rank dst,
                     Message msg) {
    const std::uint32_t handle =
        in_flight_.acquire(InFlight{std::move(msg), kRemoteChannel});
    engine_->inject(arrival, t_sched, origin, src, *this,
                    EventKind::kNetworkDeliver, dst, handle);
  }

  /// Retire channels whose cross-shard deliveries the local clock has
  /// passed. Called by the sharded run loop at window boundaries. Holding an
  /// entry longer is always safe — once now >= arrival, clamping a future
  /// send against that arrival is a no-op — so laziness affects only the
  /// channel table's size, never an arrival time.
  void flush_retirements() {
    while (!retire_heap_.empty() &&
           retire_heap_.front().first <= engine_->now()) {
      std::pop_heap(retire_heap_.begin(), retire_heap_.end(), RetireLater{});
      channels_.retire(retire_heap_.back().second);
      retire_heap_.pop_back();
    }
  }

  const NetworkStats& stats() const noexcept { return stats_; }
  /// Channels with at least one delivery currently in flight.
  std::size_t active_channels() const noexcept { return channels_.size(); }

 private:
  struct InFlight {
    Message msg;
    std::uint64_t channel = 0;
  };

  /// Channel key of a flight accepted from another shard: never live.
  static constexpr std::uint64_t kRemoteChannel = ChannelTable::kNoKey;

  /// Most window boundaries one flight may load. A saturated (clamped)
  /// latency spans ~4e18 ns; without a cap that single flight would fold
  /// into ~1e12 boundaries. 4096 windows ≈ 4 µs of sustained load at the
  /// default window — far past any real flight's influence.
  static constexpr std::uint64_t kMaxEpochsPerFlight = 4096;

  /// Min-heap order by arrival time for the lazy retirement heap.
  struct RetireLater {
    bool operator()(const std::pair<support::SimTime, std::uint64_t>& a,
                    const std::pair<support::SimTime, std::uint64_t>& b)
        const noexcept {
      return a.first > b.first;
    }
  };

  /// Converts a scaled latency from the double domain back to SimTime,
  /// saturating far below the wrap point: a huge congestion or fault
  /// multiplier clamps to max/2 instead of overflowing the double→int cast
  /// (UB) or tripping the absolute-time guard. max/2 stays safely under the
  /// sharded run loop's kInf window sentinel.
  static support::SimTime scale_to_sim_time(double scaled) {
    constexpr double kCap = static_cast<double>(
        std::numeric_limits<support::SimTime>::max() / 2);
    if (!(scaled < kCap)) return std::numeric_limits<support::SimTime>::max() / 2;
    return static_cast<support::SimTime>(scaled);
  }

  /// Folds one inter-node flight [send, arrival] into the congestion
  /// ledger: `hops` units at every boundary j·window in (send, arrival],
  /// capped at kMaxEpochsPerFlight boundaries so a saturated latency cannot
  /// make a single flight unboundedly expensive (the cap applies identically
  /// in serial and sharded runs, preserving their identity).
  void record_flight(support::SimTime send, support::SimTime arrival,
                     double hops) {
    const auto w = static_cast<std::uint64_t>(window_);
    const std::uint64_t first = static_cast<std::uint64_t>(send) / w + 1;
    std::uint64_t last = static_cast<std::uint64_t>(arrival) / w;
    if (last >= first + kMaxEpochsPerFlight) {
      last = first + kMaxEpochsPerFlight - 1;
    }
    if (deferred_loads_) {
      for (std::uint64_t j = first; j <= last; ++j) {
        pending_loads_.emplace_back(j, hops);
      }
      return;
    }
    for (std::uint64_t j = first; j <= last; ++j) own_ledger_->add(j, hops);
    stats_.max_load_hops = own_ledger_->max_boundary_load();
  }

  /// One actual delivery: congested latency, fault latency multiplier,
  /// channel clamp, stats, and the kNetworkDeliver event.
  void enqueue(topo::Rank src, topo::Rank dst, Message msg,
               std::uint32_t bytes, const topo::Route& route,
               double latency_mult) {
    support::SimTime latency = route.latency;
    const bool congested = congestion_.enabled && !route.same_node;
    if (congested || latency_mult != 1.0) {
      double scaled = static_cast<double>(latency);
      if (congested) {
        // The send reads the load folded at its own window's opening
        // boundary — flights in the air as the window began. Window 0 has
        // no prior boundary and runs at raw latency.
        const auto epoch = static_cast<std::uint64_t>(engine_->now()) /
                           static_cast<std::uint64_t>(window_);
        const double load =
            epoch == 0 ? 0.0 : read_ledger_->boundary_load(epoch - 1);
        scaled *= 1.0 + load / congestion_.capacity_hops;
      }
      scaled *= latency_mult;
      latency = scale_to_sim_time(scaled);
    }
    // Guard the absolute-time arithmetic the way Engine::schedule_after
    // guards its delay: a negative or overflowing latency would wrap the
    // virtual clock — signed overflow is UB and the schedule corrupts
    // silently. scale_to_sim_time saturates at max/2, so the only way to
    // trip this is a clock already past max/2.
    DWS_CHECK(latency >= 0);
    DWS_CHECK(latency <=
              std::numeric_limits<support::SimTime>::max() - engine_->now());

    // MPI non-overtaking: a later send on the same channel may not arrive
    // before an earlier one (possible here when a small message chases a
    // large one). The table clamps to the channel's previous arrival time.
    const std::uint64_t key = ChannelTable::key(src, dst);
    const support::SimTime arrival =
        channels_.admit(key, engine_->now() + latency);
    stats_.peak_channels = std::max(
        stats_.peak_channels, static_cast<std::uint64_t>(channels_.size()));

    count_message(route, bytes);
    if (congested) {
      // Record against the clamped arrival: the flight occupies links until
      // it actually lands.
      record_flight(engine_->now(), arrival, static_cast<double>(route.hops));
    }

    if (router_ != nullptr && router_->is_remote(dst)) {
      // Cross-shard send: the clamp above ran on the owning (source) side;
      // no local delivery event will fire, so queue the lazy retirement and
      // hand the message to the mailbox fabric with the sender's clock.
      retire_heap_.emplace_back(arrival, key);
      std::push_heap(retire_heap_.begin(), retire_heap_.end(), RetireLater{});
      router_->post(dst, arrival, engine_->now(), src, std::move(msg));
      return;
    }

    const std::uint32_t handle =
        in_flight_.acquire(InFlight{std::move(msg), key});
    engine_->schedule_at(arrival, *this, EventKind::kNetworkDeliver, dst,
                         handle, src);
  }

  void count_message(const topo::Route& route, std::uint32_t bytes) {
    ++stats_.messages;
    stats_.bytes += bytes;
    if (route.same_node) ++stats_.intra_node_messages;
  }

  Engine* engine_;
  const topo::LatencyModel* latency_;
  Deliver deliver_;
  CongestionParams congestion_;
  fault::Injector* faults_;
  Router* router_ = nullptr;
  /// Resolved congestion window (congestion_window()); 0 when disabled.
  support::SimTime window_ = 0;
  /// Immediate mode owns its ledger; sharded mode reads the shared one and
  /// parks contributions in pending_loads_ until the barrier drains them.
  std::unique_ptr<CongestionLedger> own_ledger_;
  const CongestionLedger* read_ledger_ = nullptr;
  bool deferred_loads_ = false;
  std::vector<std::pair<std::uint64_t, double>> pending_loads_;
  NetworkStats stats_;
  ChannelTable channels_;
  // (arrival, channel) of remote sends awaiting lazy retirement.
  std::vector<std::pair<support::SimTime, std::uint64_t>> retire_heap_;
  SlabPool<InFlight> in_flight_;
};

}  // namespace dws::sim
