#pragma once

#include <cstdint>

#include "support/sim_time.hpp"

namespace dws::sim {

class EventSink;

/// Typed event vocabulary of the simulator (see DESIGN.md §9). The engine
/// interprets no kind itself: each belongs to the EventSink that scheduled
/// it, which decodes `rank`/`payload` accordingly. Keeping the full table in
/// one place documents the event model and keeps kinds unique across
/// layers, even though sim/ never dispatches the ws/svc ones. The order of
/// the kinds is part of the event ordering key below.
enum class EventKind : std::uint32_t {
  kNetworkDeliver,    ///< sim::Network: rank = dst, payload = in-flight handle
  kWorkerStart,       ///< ws::Worker t = 0 bootstrap; rank = worker rank
  kWorkerStep,        ///< ws::Worker poll/expand boundary; rank = worker rank
  kDeferredResponse,  ///< ws::Worker packaged steal response leaving the rank;
                      ///< payload = ExecContext deferred-send pool handle
  kStealTimeout,      ///< ws::Worker steal-request timer; payload = request id
  kTokenTimeout,      ///< ws::Worker rank-0 token timer; payload = generation
  kSvcArrival,        ///< svc::Controller job arrival; payload = job id. Lives
                      ///< only on the controller's shard (never crosses
                      ///< shards) and, being the largest kind, sorts after
                      ///< every other event at the same instant.
};

/// One scheduled event: a fixed-size POD record. The hot path never
/// allocates — a typed event is 56 bytes copied into the calendar queue, and
/// dispatch is a single indirect call through `sink`. Payload data larger
/// than the inline `payload` handle lives in a SlabPool owned by whoever
/// scheduled the event (the network's in-flight messages, the worker's
/// packaged responses).
///
/// Ordering (DESIGN.md §12): events fire in
///     (time, t_sched, kind, rank, src, seq)
/// order, in serial and sharded runs alike. `seq` is the local insertion
/// order, so events whose structural key ties fire FIFO.
///
/// Why this key and not plain (time, seq): the sharded core merges each
/// shard's local stream with deliveries injected from other shards, and a
/// cross-shard delivery's serial `seq` — its global insertion rank — is
/// unknowable without serializing the run. The structural fields close that
/// gap by making every cross-shard tie resolvable without seq:
///
///  - the only event kind that crosses shards is kNetworkDeliver, so `kind`
///    separates deliveries from everything else;
///  - two deliveries that still tie share (rank = destination, src =
///    sender); same sender means same sending shard, and same-shard events
///    keep their sender-side order through the FIFO mailbox drain.
///
/// Hence `seq` only ever breaks ties between events from the *same* shard,
/// where local insertion order equals serial insertion order — the merged
/// stream is a deterministic total order independent of the shard count.
/// Engine::merge_ambiguities() counts (structurally impossible) violations.
struct Event {
  support::SimTime time = 0;
  support::SimTime t_sched = 0;    ///< virtual time the schedule call ran at
  std::uint64_t seq = 0;           ///< local insertion order; final tiebreak
  EventSink* sink = nullptr;       ///< receiver, called by Engine::execute
  EventKind kind = EventKind::kNetworkDeliver;
  std::uint32_t rank = 0;          ///< kind-defined (usually the target rank)
  std::uint32_t origin = 0;        ///< scheduling shard (0 when unsharded)
  std::uint32_t payload = 0;       ///< kind-defined pool handle / small value
  std::uint32_t src = 0;           ///< ordering refinement: sending rank for
                                   ///< kNetworkDeliver, 0 for every other kind
};

/// Receiver of typed events. Implemented by sim::Network, ws::Worker and
/// svc::Controller; the engine performs exactly one indirect call per typed
/// event. Sinks are non-owning and must outlive every event they scheduled.
class EventSink {
 public:
  virtual void on_event(const Event& ev) = 0;

 protected:
  ~EventSink() = default;
};

}  // namespace dws::sim
