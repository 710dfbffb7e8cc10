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
  /// Peak entry count of the channel-ordering overflow table: channels a
  /// sender opened while its ChannelRows row was full of live ones (rank
  /// 0's Terminate broadcast, hot victims). Entries leave only when the
  /// table prunes its dead ones, so this bounds the peak of live spilled
  /// channels from above.
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

/// The per-boundary congestion ledger: the load of boundary j (time
/// j·window) is the hop-units of flights crossing it. A flight costs O(1)
/// however many boundaries it spans: it adds +hops at its first boundary
/// and −hops after its last, and boundaries are *sealed* into loads — a
/// running prefix sum — once the clock has passed them, so no later flight
/// can reach them. One vector holds the sealed loads below the cursor and
/// the pending differences above it. Every partial sum is an integer held
/// exactly in a double, so each load and the maximum are bit-identical to
/// a per-boundary fold in any order.
///
/// Serial runs seal on read; sharded runs fold every shard's flights into
/// one shared ledger at the barrier (ascending shard order) and then seal
/// through the window's start, and shards read it without locks — reads
/// target boundaries at least one full window old, which the barrier has
/// already sealed.
class CongestionLedger {
 public:
  /// Most window boundaries one flight may load. A saturated (clamped)
  /// latency spans ~4e18 ns; without a cap that single flight would reach
  /// ~1e12 boundaries and the ledger would grow to match. 4096 windows ≈
  /// 4 µs of sustained load at the default window — far past any real
  /// flight's influence. The cap applies identically in serial and sharded
  /// runs, preserving their identity.
  static constexpr std::uint64_t kMaxEpochsPerFlight = 4096;

  explicit CongestionLedger(support::SimTime window) : window_(window) {
    DWS_CHECK(window_ > 0);
  }

  support::SimTime window() const noexcept { return window_; }

  /// Folds one flight [send, arrival] carrying `hops` link-units: it loads
  /// every boundary in (send, arrival], at most kMaxEpochsPerFlight of
  /// them. The flight's boundaries must not be sealed yet, which holds for
  /// any send at or after the clock the ledger was last sealed at.
  void add_flight(support::SimTime send, support::SimTime arrival,
                  double hops) {
    const auto w = static_cast<std::uint64_t>(window_);
    const std::uint64_t first = static_cast<std::uint64_t>(send) / w + 1;
    std::uint64_t last = static_cast<std::uint64_t>(arrival) / w;
    if (last < first) return;
    last = std::min(last, first + kMaxEpochsPerFlight - 1);
    DWS_DCHECK(first >= sealed_);
    if (last + 1 >= cells_.size()) cells_.resize(last + 2, 0.0);
    cells_[first] += hops;
    cells_[last + 1] -= hops;
  }

  /// Seals every boundary up to and including `boundary`. Sound once no
  /// flight still to be added can start at or before it: every future send
  /// is at or after time boundary·window.
  void seal_through(std::uint64_t boundary) {
    const std::uint64_t end =
        std::min<std::uint64_t>(boundary + 1, cells_.size());
    for (; sealed_ < end; ++sealed_) {
      running_ += cells_[sealed_];
      cells_[sealed_] = running_;
      max_load_ = std::max(max_load_, running_);
    }
  }

  /// Load of boundary j, which must be sealed; 0 past every flight.
  double boundary_load(std::uint64_t boundary) const noexcept {
    DWS_DCHECK(boundary < sealed_ || sealed_ == cells_.size());
    return boundary < sealed_ ? cells_[boundary] : 0.0;
  }

  /// Max over boundaries of the load, sealed or not — the run's
  /// max_load_hops once every flight is in.
  double max_boundary_load() const noexcept {
    double max_load = max_load_;
    double running = running_;
    for (std::size_t j = sealed_; j < cells_.size(); ++j) {
      running += cells_[j];
      max_load = std::max(max_load, running);
    }
    return max_load;
  }

 private:
  support::SimTime window_;
  /// [0, sealed_): loads; [sealed_, size): differences.
  std::vector<double> cells_;
  std::uint64_t sealed_ = 0;
  /// Load of boundary sealed_ − 1 (0 before the first).
  double running_ = 0.0;
  double max_load_ = 0.0;
};

/// Resolves the effective congestion window: an explicit positive window
/// wins; the 0 default means one network_base. Single source of truth for
/// the serial Network and the sharded run loop, which must agree on it.
inline support::SimTime congestion_window(const CongestionParams& congestion,
                                          const topo::LatencyParams& latency) {
  return congestion.window > 0 ? congestion.window : latency.network_base;
}

/// Key of the channel from src to dst, as the fault injector and the
/// overflow table name it. Ranks are 32-bit and src != dst, so no key
/// equals support::OpenTable's kNoKey.
inline std::uint64_t channel_key(topo::Rank src, topo::Rank dst) noexcept {
  return (static_cast<std::uint64_t>(src) << 32) | dst;
}

/// Per-channel ordering state of a Network: for each (src, dst) channel,
/// the latest arrival time of its deliveries, kept only while that arrival
/// is still ahead of the sender's clock.
///
/// Time rule: a channel's entry is dead once its last arrival is at or
/// before the sender's `now`. Any later send arrives at now + latency ≥
/// that arrival (latency ≥ 0), so the non-overtaking clamp would do
/// nothing; a dead entry is simply overwritten, and delivery does no
/// channel work at all.
///
/// Storage: one 64-byte row per sending rank, sized once, holding kWays
/// (dst, last arrival) entries and `overflow_until`. A send looks for a
/// live entry for dst in its row; failing that, if the row has spilled
/// channels still in flight (overflow_until > now), in the shared overflow
/// support::OpenTable; failing that, it takes a dead slot of its row, or
/// spills when every slot is live. A live channel sits in exactly one of
/// the two places. The overflow table drops its dead entries instead of
/// growing, so rank 0's Terminate broadcast — every rank but four spilled —
/// costs O(1) per send and steady-state churn allocates nothing.
///
/// Why rows and not the overflow table alone: random-victim traffic opens
/// a new channel on almost every send, so one table holding every channel
/// fills with dead entries, probes past them and rebuilds often; on the
/// 512-rank reference run it was slower than the per-delivery erase that
/// rows replaced (EXPERIMENTS.md, "O(1) network bookkeeping").
class ChannelRows {
 public:
  static constexpr int kWays = 4;

  explicit ChannelRows(topo::Rank num_ranks) : rows_(num_ranks) {}

  /// Clamps `arrival`, the raw arrival of a send from src to dst at `now`,
  /// to the channel's live last arrival (MPI non-overtaking), records the
  /// result as the channel's last arrival and returns it.
  support::SimTime admit(topo::Rank src, topo::Rank dst, support::SimTime now,
                         support::SimTime arrival) {
    DWS_DCHECK(src < rows_.size());
    Row& row = rows_[src];
    int dead = -1;
    for (int i = 0; i < kWays; ++i) {
      if (row.last[i] <= now) {
        if (dead < 0) dead = i;
      } else if (row.dst[i] == dst) {
        arrival = std::max(arrival, row.last[i]);
        row.last[i] = arrival;
        return arrival;
      }
    }
    const std::uint64_t key = channel_key(src, dst);
    if (row.overflow_until > now) {
      Overflow::Slot* slot = overflow_.find(key);
      if (slot != nullptr && slot->value > now) {
        arrival = std::max(arrival, slot->value);
        slot->value = arrival;
        row.overflow_until = std::max(row.overflow_until, arrival);
        return arrival;
      }
    }
    if (dead >= 0) {
      row.dst[dead] = dst;
      row.last[dead] = arrival;
      return arrival;
    }
    if (overflow_.full()) {
      overflow_.retain([now](support::SimTime last) { return last > now; });
    }
    overflow_[key] = arrival;
    row.overflow_until = std::max(row.overflow_until, arrival);
    peak_overflow_ = std::max<std::uint64_t>(peak_overflow_, overflow_.size());
    return arrival;
  }

  /// Peak entry count of the overflow table (NetworkStats::peak_channels).
  std::uint64_t peak_overflow() const noexcept { return peak_overflow_; }

 private:
  struct alignas(64) Row {
    topo::Rank dst[kWays] = {};
    support::SimTime last[kWays] = {};
    /// Latest arrival of the row's spilled channels.
    support::SimTime overflow_until = 0;
  };
  static_assert(sizeof(Row) == 64);
  using Overflow = support::OpenTable<support::SimTime>;

  std::vector<Row> rows_;
  Overflow overflow_;
  std::uint64_t peak_overflow_ = 0;
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
/// Channel ordering state lives in ChannelRows, keyed by time: a send
/// clamps against its channel's last arrival only while that arrival is
/// still ahead of the clock, so delivery does no channel work. Each send
/// resolves its latency, hops and same-node flag with one
/// LatencyModel::route call, shared by a duplicated copy.
///
/// Fault injection (DESIGN.md §10): with a fault::Injector attached, each
/// send first asks the injector for a plan. A dropped message is still
/// counted in NetworkStats (the send happened; only delivery is lost) but
/// schedules nothing and adds no congestion load. A duplicated message is
/// delivered twice — the copy gets its own jitter draw but both obey the
/// channel clamp — and counted twice. The copy is a byte copy: a duplicated
/// work-carrying response shares its payload handle with the original, and
/// only the copy the thief accepts takes the payload (proto::ChunkBatch).
/// Latency multipliers (jitter, degraded links) scale the full congested
/// latency of each delivery.
///
/// Sharded runs (DESIGN.md §12): each shard owns one Network over the same
/// global latency model. A Router attached with set_router diverts sends to
/// ranks outside the shard: the channel clamp still runs here (the sender's
/// shard owns all (src, dst) ordering state, and the time rule needs only
/// the sender's clock), but instead of a local delivery event the message
/// is posted to a shard mailbox together with its arrival time and the
/// sender's clock. The destination shard re-materializes it with
/// accept_remote.
///
/// Congestion under sharding: each shard's Network reads boundary loads from
/// one *shared* CongestionLedger (set_shared_ledger) and defers its own
/// flights to pending_flights_; the run loop drains every shard's pending
/// flights into the ledger inside the barrier, in ascending shard order, and
/// then seals it through the next window's start. A send at time t reads
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
        faults_(faults),
        channels_(latency.layout().num_ranks()) {
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
  /// own flights until drain_pending_flights. Must happen before any send;
  /// the ledger must outlive the network.
  void set_shared_ledger(const CongestionLedger* ledger) {
    DWS_CHECK(congestion_.enabled);
    DWS_CHECK(ledger != nullptr && ledger->window() == window_);
    own_ledger_.reset();
    read_ledger_ = ledger;
  }

  /// Folds this shard's pending flights into the shared ledger. Called
  /// inside the window barrier in ascending shard order, before the ledger
  /// is sealed for the next window.
  void drain_pending_flights(CongestionLedger& ledger) {
    for (const PendingFlight& f : pending_flights_) {
      ledger.add_flight(f.send, f.arrival, f.hops);
    }
    pending_flights_.clear();
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
          faults_->plan_send(channel_key(src, dst), cls, bytes);
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

  /// kNetworkDeliver dispatch: unparks the message and hands it to the
  /// receiver. Neither the channel state nor the congestion ledger needs
  /// work here: both were settled at send time.
  void on_event(const Event& ev) override {
    deliver_(static_cast<topo::Rank>(ev.rank), in_flight_.take(ev.payload));
  }

  /// Attach (or detach, with nullptr) the shard router. Must happen before
  /// any send; the router must outlive the network.
  void set_router(Router* router) noexcept { router_ = router; }

  /// Destination side of a cross-shard send: parks `msg` and schedules its
  /// delivery through Engine::inject with the *sender's* ordering key
  /// (t_sched, src) so the merged event order matches an unsharded run. The
  /// channel clamp already ran on the sending shard. Exactly one
  /// kNetworkDeliver fires per message in sharded and unsharded runs alike,
  /// keeping engine event counts shard-invariant.
  void accept_remote(support::SimTime arrival, support::SimTime t_sched,
                     std::uint32_t origin, topo::Rank src, topo::Rank dst,
                     Message msg) {
    const std::uint32_t handle = in_flight_.acquire(std::move(msg));
    engine_->inject(arrival, t_sched, origin, src, *this,
                    EventKind::kNetworkDeliver, dst, handle);
  }

  /// Traffic counters; max_load_hops is this network's own ledger peak
  /// (0 for a shard reading a shared ledger, whose peak the run loop
  /// reports).
  NetworkStats stats() const noexcept {
    NetworkStats out = stats_;
    if (own_ledger_) out.max_load_hops = own_ledger_->max_boundary_load();
    out.peak_channels = channels_.peak_overflow();
    return out;
  }

 private:
  /// A sharded run's flight, held until the barrier folds it.
  struct PendingFlight {
    support::SimTime send;
    support::SimTime arrival;
    double hops;
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

  /// One actual delivery: congested latency, fault latency multiplier,
  /// channel clamp, stats, and the kNetworkDeliver event.
  void enqueue(topo::Rank src, topo::Rank dst, Message msg,
               std::uint32_t bytes, const topo::Route& route,
               double latency_mult) {
    const support::SimTime now = engine_->now();
    support::SimTime latency = route.latency;
    const bool congested = congestion_.enabled && !route.same_node;
    if (congested || latency_mult != 1.0) {
      double scaled = static_cast<double>(latency);
      if (congested) {
        // The send reads the load folded at its own window's opening
        // boundary — flights in the air as the window began. Window 0 has
        // no prior boundary and runs at raw latency. Every flight that can
        // load that boundary was sent before the window opened, so an
        // owned ledger may seal it here.
        const auto epoch = static_cast<std::uint64_t>(now) /
                           static_cast<std::uint64_t>(window_);
        double load = 0.0;
        if (epoch != 0) {
          if (own_ledger_) own_ledger_->seal_through(epoch - 1);
          load = read_ledger_->boundary_load(epoch - 1);
        }
        scaled *= 1.0 + load / congestion_.capacity_hops;
      }
      scaled *= latency_mult;
      latency = scale_to_sim_time(scaled);
    }
    // Guard the absolute-time arithmetic the way Engine::schedule_after
    // guards its delay: a negative or overflowing latency would wrap the
    // virtual clock — signed overflow is UB and the schedule corrupts
    // silently. scale_to_sim_time saturates at max/2, so the only way to
    // trip this is a clock already past max/2. latency >= 0 is also what
    // makes ChannelRows' time rule sound.
    DWS_CHECK(latency >= 0);
    DWS_CHECK(latency <= std::numeric_limits<support::SimTime>::max() - now);

    // MPI non-overtaking: a later send on the same channel may not arrive
    // before an earlier one (possible here when a small message chases a
    // large one).
    const support::SimTime arrival =
        channels_.admit(src, dst, now, now + latency);

    count_message(route, bytes);
    if (congested) {
      // Record against the clamped arrival: the flight occupies links until
      // it actually lands.
      const auto hops = static_cast<double>(route.hops);
      if (own_ledger_) {
        own_ledger_->add_flight(now, arrival, hops);
      } else {
        pending_flights_.push_back({now, arrival, hops});
      }
    }

    if (router_ != nullptr && router_->is_remote(dst)) {
      // Cross-shard send: hand the message to the mailbox fabric with the
      // sender's clock.
      router_->post(dst, arrival, now, src, std::move(msg));
      return;
    }

    const std::uint32_t handle = in_flight_.acquire(std::move(msg));
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
  /// parks its flights in pending_flights_ until the barrier drains them.
  std::unique_ptr<CongestionLedger> own_ledger_;
  const CongestionLedger* read_ledger_ = nullptr;
  std::vector<PendingFlight> pending_flights_;
  NetworkStats stats_;
  ChannelRows channels_;
  SlabPool<Message> in_flight_;
};

}  // namespace dws::sim
