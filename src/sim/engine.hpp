#pragma once

#include <cstdint>
#include <limits>

#include "sim/event.hpp"
#include "sim/queue.hpp"
#include "support/check.hpp"
#include "support/sim_time.hpp"

namespace dws::sim {

/// Deterministic discrete-event engine.
///
/// This is the substrate that replaces the K Computer in our reproduction:
/// all simulated MPI ranks live in one address space and advance a shared
/// virtual clock. Events fire in the (time, t_sched, kind, rank, src, seq)
/// total order of sim/event.hpp — deterministic, bit-reproducible, and (the
/// point of the structural key fields) independent of how the ranks are
/// sharded across engines, which the whole test suite leans on.
///
/// Sharded parallel runs (DESIGN.md §12) build one Engine per shard
/// (`shard_id` names it) and feed cross-shard deliveries in through
/// inject(), which preserves the *sender's* schedule time, rank and shard in
/// the ordering key instead of stamping the local clock. run_until()
/// executes exactly the events that fall inside one conservative
/// synchronization window.
///
/// Every event is typed: a fixed-size POD record dispatched with a single
/// indirect call to the scheduling EventSink — no per-event allocation, no
/// type erasure (sim::Network, ws::Worker and svc::Controller enumerate
/// their continuations as EventKinds).
class Engine {
 public:
  explicit Engine(std::uint32_t shard_id = 0) : shard_id_(shard_id) {}

  support::SimTime now() const noexcept { return now_; }
  std::uint32_t shard_id() const noexcept { return shard_id_; }

  /// Schedule a typed event for `sink` at absolute virtual time `t` (>= now).
  /// `rank` and `payload` travel in the event record, interpreted per kind.
  /// `src` is the ordering-refinement field of sim/event.hpp: the sending
  /// rank for kNetworkDeliver events, 0 (the default) for everything else.
  void schedule_at(support::SimTime t, EventSink& sink, EventKind kind,
                   std::uint32_t rank = 0, std::uint32_t payload = 0,
                   std::uint32_t src = 0) {
    DWS_CHECK(t >= now_);
    queue_.push(Event{t, now_, next_seq_++, &sink, kind, rank, shard_id_,
                      payload, src});
  }

  /// Typed event `delay` ns after the current virtual time. Negative delays
  /// and delays that would overflow SimTime fail a DWS_CHECK instead of
  /// wrapping the clock (signed overflow would otherwise be UB *and* a
  /// silently corrupted schedule).
  void schedule_after(support::SimTime delay, EventSink& sink, EventKind kind,
                      std::uint32_t rank = 0, std::uint32_t payload = 0,
                      std::uint32_t src = 0) {
    check_delay(delay);
    schedule_at(now_ + delay, sink, kind, rank, payload, src);
  }

  /// Cross-shard injection (the mailbox drain path of the sharded core):
  /// schedules a typed event whose ordering key carries the *sender's*
  /// schedule time `t_sched` and rank `src` — exactly the key the event
  /// would have had in an unsharded run — while the seq is assigned locally
  /// in deterministic drain order. `origin` (the sending shard) rides along
  /// for ambiguity accounting. Injection is only legal at a window boundary,
  /// when `t` is at or past the window end and therefore >= now.
  void inject(support::SimTime t, support::SimTime t_sched,
              std::uint32_t origin, std::uint32_t src, EventSink& sink,
              EventKind kind, std::uint32_t rank = 0,
              std::uint32_t payload = 0) {
    DWS_CHECK(t >= now_);
    DWS_CHECK(t_sched <= t);
    queue_.push(Event{t, t_sched, next_seq_++, &sink, kind, rank, origin,
                      payload, src});
  }

  /// Execute the earliest pending event. Returns false when none remain.
  bool step();

  /// Run until the queue drains or `max_events` fire.
  /// Returns the number of events executed by this call.
  std::uint64_t run(std::uint64_t max_events = UINT64_MAX);

  /// Execute every pending event with time < `limit` (one conservative
  /// synchronization window), leaving later events queued. Returns the
  /// number of events executed.
  std::uint64_t run_until(support::SimTime limit);

  /// Time of the earliest pending event; `horizon` when the queue is empty.
  support::SimTime next_event_time(support::SimTime horizon) {
    return queue_.empty() ? horizon : queue_.peek_time();
  }

  std::uint64_t events_executed() const noexcept { return executed_; }
  std::size_t pending() const noexcept { return queue_.size(); }
  /// High-water mark of pending() over the engine's lifetime — how deep the
  /// calendar queue got (reported through ws::RunResult and the exp schema).
  std::size_t max_pending() const noexcept { return queue_.max_size(); }

  /// Consecutive executed events that tied on the full structural key
  /// (time, t_sched, kind, rank, src) while coming from different shards.
  /// Such a pair would fall through to the local-seq tiebreak, whose order a
  /// serial run need not share — but for the ws sharded core it is
  /// structurally impossible (only kNetworkDeliver crosses shards, and equal
  /// (rank, src) means equal sending shard; see sim/event.hpp). A nonzero
  /// count therefore flags a protocol bug, and the differential suite
  /// asserts it stays zero.
  std::uint64_t merge_ambiguities() const noexcept {
    return merge_ambiguities_;
  }

 private:
  void check_delay(support::SimTime delay) const {
    DWS_CHECK(delay >= 0);
    DWS_CHECK(delay <= std::numeric_limits<support::SimTime>::max() - now_);
  }

  void execute(const Event& ev);

  CalendarQueue queue_;
  support::SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint32_t shard_id_ = 0;
  // Ambiguity detection: the previous executed event's structural key.
  // Equal-key runs pop contiguously, so an adjacent comparison catches every
  // mixed-origin tie group; prev_time_ = -1 matches no first event.
  support::SimTime prev_time_ = -1;
  support::SimTime prev_t_sched_ = -1;
  EventKind prev_kind_ = EventKind::kNetworkDeliver;
  std::uint32_t prev_rank_ = 0;
  std::uint32_t prev_src_ = 0;
  std::uint32_t prev_origin_ = 0;
  std::uint64_t merge_ambiguities_ = 0;
};

}  // namespace dws::sim
