#pragma once

#include <cstdint>
#include <memory>
#include <utility>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/rank_stats.hpp"
#include "metrics/trace.hpp"
#include "proto/chunk_stack.hpp"
#include "proto/config.hpp"
#include "proto/message.hpp"
#include "proto/observer.hpp"
#include "proto/peer.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "support/check.hpp"
#include "topo/latency.hpp"
#include "uts/tree.hpp"

namespace dws::ws {

/// A packaged steal response waiting out its victim-side handling delay
/// before entering the network (EventKind::kDeferredResponse). Plain bytes:
/// a work-carrying response's chunks are already parked in the run's
/// proto::PayloadStore.
struct PendingSend {
  proto::StealResponse resp;
  topo::Rank thief = 0;  ///< job-local
  std::uint32_t bytes = 0;
  /// Loss class for the eventual network send: work-carrying responses are
  /// kDupOnly (never dropped), refusals kDroppable.
  fault::MsgClass cls = fault::MsgClass::kDroppable;
};

/// What every Worker on one shard shares, whichever binding it serves.
struct ExecContext {
  sim::Engine* engine = nullptr;
  const proto::WsConfig* config = nullptr;
  /// Non-null iff fault injection is active for this run (DESIGN.md §10):
  /// workers consult it for straggler slowdowns and transient pauses.
  fault::Injector* faults = nullptr;
  /// The run's store for chunks in transit; one per run, shared by every
  /// shard (proto::PayloadStore).
  proto::PayloadStore* payloads = nullptr;
  /// Deferred steal responses in flight between packaging and send; shared
  /// across the shard's workers so slots recycle shard-wide.
  sim::SlabPool<PendingSend> deferred;
};

/// A physical rank's one-shot transient pause (fault injection): the rank
/// stalls once, at the first step boundary past the pause's scheduled start.
/// Idle ranks are already stalled from the work's point of view, so only
/// active time is charged.
struct RankPause {
  bool taken = false;

  bool take(const fault::Injector& faults, topo::Rank rank,
            support::SimTime now) {
    if (taken) return false;
    const auto at = faults.pause_start(rank);
    if (!at.has_value() || now < *at) return false;
    taken = true;
    return true;
  }
};

/// One job's presence on one simulated MPI rank: a thin discrete-event
/// binding over the transport-agnostic proto::Peer, which owns ALL protocol
/// decisions — steal request/response handling, timeout/retry/backoff,
/// lifelines, and token termination (DESIGN.md §11). What remains here is
/// strictly execution and delivery semantics:
///
///  - the node-expansion loop (kWorkerStep events), charging virtual compute
///    time per node and fault-injected pauses/slowdowns;
///  - MPI-style polling: messages arriving mid-expansion queue in an inbox
///    and are drained at the next poll boundary, each steal request charging
///    steal_handling_cost of victim time (one-sided steals bypass this);
///  - the proto::Transport surface: deferred responses park in the shard's
///    SlabPool until their packaging delay elapses, timers become
///    kStealTimeout/kTokenTimeout events.
///
/// The single-job run (WsPort) and every resident job of a service rank
/// (svc::SvcPort) run this one loop. The compile-time `Port` supplies what
/// differs where a job meets the outside:
///
///   // Put a job-local message from global rank `from` on the network.
///   void send(topo::Rank from, topo::Rank to, proto::Message msg,
///             std::uint32_t bytes, fault::MsgClass cls);
///   // The job's token proved quiescence at `at` (job-local rank 0 only).
///   void terminated(topo::Rank rank, support::SimTime at);
///   // The physical rank's one-shot pause.
///   RankPause& pause();
///
/// Event-core integration: the worker's continuations are typed events
/// (kWorkerStart, kWorkerStep, kDeferredResponse, kStealTimeout,
/// kTokenTimeout) dispatched through on_event — the simulation's hot loop
/// schedules POD records, never closures.
///
/// Faithfulness notes (matching §II-A):
///  - no continuations: workers exchange plain tree nodes in chunks;
///  - the victim services steal requests *between* node expansions;
///  - no work-first: the thief blocks on its outstanding request and retries
///    (with a new victim) on refusal;
///  - victim selection is pluggable (the paper's experimental axis).
template <typename Port>
class Worker final : public sim::EventSink, private proto::Transport {
 public:
  /// `rank` is the global rank (event key, fault lookups); the peer runs
  /// over the job's ring as rank `local` of `width`.
  Worker(ExecContext& ctx, Port port, topo::Rank rank, topo::Rank local,
         topo::Rank width, const uts::TreeParams& tree,
         const topo::LatencyModel* latency, proto::RunObserver* observer)
      : ctx_(ctx),
        port_(std::move(port)),
        rank_(rank),
        tree_(tree),
        observer_(observer),
        peer_(*ctx.config,
              proto::Peer::Params{local, width, ctx.faults != nullptr,
                                  ctx.payloads},
              latency, *this, observer),
        per_node_cost_(ctx.faults != nullptr
                           ? ctx.faults->scaled_node_cost(
                                 rank, ctx.config->node_cost())
                           : ctx.config->node_cost()) {}

  /// Job-local rank 0 seeds the tree root and starts expanding; everyone
  /// else starts a work-discovery session.
  void start() {
    if (peer_.rank() == 0) {
      peer_.seed_root(uts::root_node(tree_));
    } else {
      peer_.on_out_of_work(ctx_.engine->now());
    }
  }

  void on_event(const sim::Event& ev) override {
    switch (ev.kind) {
      case sim::EventKind::kWorkerStart:
        start();
        break;
      case sim::EventKind::kWorkerStep:
        step();
        break;
      case sim::EventKind::kDeferredResponse: {
        // Packaging delay served: the response enters the network now.
        const PendingSend p = ctx_.deferred.take(ev.payload);
        port_.send(rank_, p.thief, p.resp, p.bytes, p.cls);
        break;
      }
      case sim::EventKind::kStealTimeout:
        peer_.on_steal_timeout(ev.payload, ctx_.engine->now());
        break;
      case sim::EventKind::kTokenTimeout:
        peer_.on_token_timeout(ev.payload, ctx_.engine->now());
        break;
      default:
        DWS_CHECK(false);
    }
  }

  /// Network delivery entry point.
  void on_message(const proto::Message& msg) {
    if (peer_.done()) return;
    if (peer_.active()) {
      // One-sided steals bypass the victim's polling loop entirely: the
      // request is serviced at arrival, off the victim's critical path.
      if (ctx_.config->one_sided_steals) {
        if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
          peer_.on_steal_request(*req, ctx_.engine->now(), 0);
          return;
        }
      }
      // Mid-expansion: messages wait for the next poll boundary, exactly
      // like MPI messages wait for the reference implementation's next
      // MPI_Iprobe.
      inbox_.push_back(msg);
      return;
    }
    // Idle ranks sit in the steal/wait loop and react immediately.
    peer_.on_message(msg, ctx_.engine->now());
  }

  /// Service time sharing: this rank's lease on the job changed. A revoked
  /// rank parks and ships the work it holds to the job-local `handoff` rank,
  /// as it will any work it acquires later (see activated()).
  void set_lease(bool leased, topo::Rank handoff) {
    handoff_ = handoff;
    if (peer_.done()) return;  // a grant can race a Terminate
    const support::SimTime now = ctx_.engine->now();
    peer_.set_parked(!leased, now);
    if (!leased && !peer_.stack().empty()) peer_.relinquish(handoff_, now);
  }

  const metrics::RankStats& stats() const noexcept { return peer_.stats(); }
  const metrics::RankTrace& trace() const noexcept { return peer_.trace(); }

  /// True once this rank has learnt of its job's termination.
  bool done() const noexcept { return peer_.done(); }
  std::size_t stack_size() const noexcept { return peer_.stack().size(); }
  /// Virtual time of this worker's first node expansion; -1 if it never
  /// expanded one.
  support::SimTime first_compute() const noexcept { return first_compute_; }

 private:
  // proto::Transport — the simulator side of the protocol seam.
  void send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
            fault::MsgClass cls) override {
    port_.send(rank_, to, msg, bytes, cls);
  }

  void send_deferred(support::SimTime delay, topo::Rank to,
                     proto::StealResponse resp, std::uint32_t bytes,
                     fault::MsgClass cls) override {
    // Packaging happens at a poll boundary; the response enters the network
    // once this and the previously drained requests have been serviced.
    const std::uint32_t handle =
        ctx_.deferred.acquire(PendingSend{resp, to, bytes, cls});
    ctx_.engine->schedule_after(delay, *this,
                                sim::EventKind::kDeferredResponse, rank_,
                                handle);
  }

  void arm_steal_timer(support::SimTime delay,
                       std::uint32_t request_id) override {
    ctx_.engine->schedule_after(delay, *this, sim::EventKind::kStealTimeout,
                                rank_, request_id);
  }

  void arm_token_timer(support::SimTime delay,
                       std::uint32_t generation) override {
    ctx_.engine->schedule_after(delay, *this, sim::EventKind::kTokenTimeout,
                                rank_, generation);
  }

  void activated() override {
    if (peer_.parked()) {
      // Work landed on a parked rank (its lease was revoked before the work
      // arrived): ship everything to the job's current handoff. activated()
      // is a tail call inside the peer, so re-entering it here is safe. The
      // handoff chain terminates because every hop's target was leased when
      // the hop parked — parking epochs strictly increase along the chain.
      peer_.relinquish(handoff_, ctx_.engine->now());
      return;
    }
    schedule_step();
  }

  void terminated(support::SimTime at) override {
    port_.terminated(rank_, at);
  }

  void schedule_step() {
    if (step_scheduled_ || !peer_.active()) return;
    step_scheduled_ = true;
    // A step event fires at a node boundary; the work's cost is charged when
    // the next boundary is scheduled, so the first boundary is "now".
    ctx_.engine->schedule_after(0, *this, sim::EventKind::kWorkerStep, rank_);
  }

  void step() {
    step_scheduled_ = false;
    if (!peer_.active()) return;

    // Poll boundary: serve whatever arrived while we were expanding.
    const support::SimTime busy = drain_inbox();
    if (!peer_.active()) return;  // a drained Terminate ended the job

    const support::SimTime now = ctx_.engine->now();
    proto::ChunkStack& stack = peer_.stack();
    if (stack.empty()) {
      // The previous node's work ended exactly at this boundary.
      peer_.on_out_of_work(now);
      return;
    }
    if (peer_.parked()) {
      // The lease was revoked while this rank was mid-expansion with an
      // empty stack (nothing to relinquish then) and banked work arrived
      // since: a parked rank never expands nodes, so hand it off now.
      peer_.relinquish(handoff_, now);
      return;
    }
    // The loop below pops at least one node, all at this instant.
    if (first_compute_ < 0) first_compute_ = now;

    // Expand up to poll_interval nodes; their work occupies [now, now +
    // cost], so the next poll boundary lands at the end of it (plus time
    // spent packaging steal responses just now).
    metrics::RankStats& stats = peer_.stats();
    support::SimTime cost = 0;
    for (std::uint32_t i = 0; i < ctx_.config->poll_interval; ++i) {
      const auto node = stack.pop();
      if (!node.has_value()) break;
      ++stats.nodes_processed;
      const std::uint32_t n = uts::num_children(tree_, *node);
      if (observer_) observer_->on_node_expanded(rank_, *node, n);
      if (n == 0) {
        ++stats.leaves_seen;
      } else {
        for (std::uint32_t c = 0; c < n; ++c) {
          stack.push(uts::child_node(*node, c));
        }
      }
      cost += per_node_cost_;
    }

    // Transient pause (fault injection): once per physical rank.
    if (ctx_.faults != nullptr &&
        port_.pause().take(*ctx_.faults, rank_, now)) {
      cost += ctx_.faults->config().pause_duration;
    }

    // Lifeline extension: surplus generated by this expansion feeds dormant
    // dependents at the same poll boundary, charged like steal packaging.
    if (peer_.has_dependents()) {
      cost += ctx_.config->steal_handling_cost *
              static_cast<support::SimTime>(
                  peer_.feed_lifeline_dependents(now));
    }

    step_scheduled_ = true;
    ctx_.engine->schedule_after(busy + cost, *this,
                                sim::EventKind::kWorkerStep, rank_);
  }

  /// Serve queued messages at a poll boundary; returns virtual time spent.
  support::SimTime drain_inbox() {
    support::SimTime busy = 0;
    // Index-based iteration keeps us safe against vector reallocation.
    for (std::size_t i = 0; i < inbox_.size(); ++i) {
      if (peer_.done()) break;  // a drained Terminate ends everything
      const proto::Message msg = inbox_[i];
      if (const auto* req = std::get_if<proto::StealRequest>(&msg)) {
        busy += ctx_.config->steal_handling_cost;
        peer_.on_steal_request(*req, ctx_.engine->now(), busy);
      } else {
        peer_.on_message(msg, ctx_.engine->now());
      }
    }
    inbox_.clear();
    return busy;
  }

  ExecContext& ctx_;
  Port port_;
  topo::Rank rank_;
  const uts::TreeParams& tree_;
  proto::RunObserver* observer_;
  proto::Peer peer_;

  bool step_scheduled_ = false;
  std::vector<proto::Message> inbox_;  // arrived while expanding

  /// Fault-layer compute perturbation, resolved once at construction.
  support::SimTime per_node_cost_;
  support::SimTime first_compute_ = -1;
  topo::Rank handoff_ = 0;  ///< job-local relinquish target while parked
};

// ---- The single-job binding ------------------------------------------------

struct WsPort;
using WsWorker = Worker<WsPort>;

/// Routes a network delivery to the destination worker. A concrete functor
/// (not std::function) so Network's delivery dispatch is a direct call.
struct DeliverToWorkers {
  std::vector<std::unique_ptr<WsWorker>>* workers = nullptr;
  void operator()(topo::Rank dst, const proto::Message& msg) const;
};

/// The single-job run's transport, typed on the direct-call delivery functor.
using WsNetwork = sim::Network<proto::Message, DeliverToWorkers>;

/// A single-job shard's context: the shared executor state, the network,
/// and the one piece of cross-worker mutable state — the termination flag
/// that rank 0 sets when the token ring proves global quiescence.
struct RunContext : ExecContext {
  WsNetwork* network = nullptr;
  bool terminated = false;
  support::SimTime termination_time = 0;
};

/// The single-job Worker binding: the job owns every rank, so job-local
/// ranks are global ranks and messages travel untagged.
struct WsPort {
  RunContext* ctx = nullptr;
  RankPause rank_pause;

  void send(topo::Rank from, topo::Rank to, proto::Message msg,
            std::uint32_t bytes, fault::MsgClass cls) {
    ctx->network->send(from, to, msg, bytes, cls);
  }
  void terminated(topo::Rank /*rank*/, support::SimTime at) {
    DWS_CHECK(!ctx->terminated);
    ctx->terminated = true;
    ctx->termination_time = at;
  }
  RankPause& pause() noexcept { return rank_pause; }
};

}  // namespace dws::ws
