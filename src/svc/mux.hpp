#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <unordered_map>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/rank_stats.hpp"
#include "proto/peer.hpp"
#include "proto/transport.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "sim/pool.hpp"
#include "svc/arrival.hpp"
#include "svc/params.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "ws/scheduler.hpp"

/// Internal machinery of the service runtime (DESIGN.md §13). The shapes
/// deliberately mirror ws/worker.hpp — MuxWorker is to a multi-tenant rank
/// what ws::Worker is to a single-job rank — so the two executors stay
/// reviewable side by side. Only service.hpp is the public surface.
namespace dws::svc {

// ---- Control vocabulary ----------------------------------------------------

/// Controller -> rank: a job was admitted; create its binding. The tree is
/// looked up from the shared ServicePlan by job id — control messages carry
/// placement, never payload. Under time sharing every rank receives the
/// admit (the job's peer ring spans the whole pool) with `leased` saying
/// whether this rank starts leased to the job; under space sharing only the
/// block's ranks do, always leased.
struct JobAdmit {
  JobId job = 0;
  topo::Rank base = 0;   ///< first global rank of the job's block
  topo::Rank width = 0;  ///< peer-ring size (time sharing: the whole pool)
  bool leased = true;
  topo::Rank handoff = 0;  ///< job-local rank to relinquish work to if parked
};

/// Controller -> rank: this rank's lease on `job` changed (time sharing
/// only). A revoke (`leased == false`) carries the job's *current* handoff
/// rank so the parked binding knows where to ship any work it holds now or
/// acquires later; handoff chains formed by stale targets terminate because
/// every hop was parked strictly later than its sender (see
/// JobBinding::activated).
struct LeaseUpdate {
  JobId job = 0;
  bool leased = false;
  topo::Rank handoff = 0;
};

/// Job-local rank 0 -> controller (global rank 0): the job's Mattern token
/// proved per-job quiescence at `Peer::terminated` time.
struct JobDone {
  JobId job = 0;
};

/// Everything that travels between service ranks: the untouched steal
/// protocol vocabulary, multiplexed by job id, plus the control plane.
struct Envelope {
  JobId job = 0;
  std::variant<proto::Message, JobAdmit, LeaseUpdate, JobDone> body;
};

class MuxWorker;

/// Routes a network delivery to the destination rank's mux. Concrete functor
/// so delivery stays a direct call (same pattern as ws::DeliverToWorkers).
struct DeliverToMux {
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;
  void operator()(topo::Rank dst, Envelope env) const;
};

using SvcNetwork = sim::Network<Envelope, DeliverToMux>;

// ---- Shared immutable plan -------------------------------------------------

/// Everything decided before the run starts, shared read-only by every shard:
/// the resolved job stream, the global geometry, and (space sharing) the
/// per-block geometry slices. Heap/stack-pinned — the latency models point
/// at the layouts, so the plan must never move.
class ServicePlan {
 public:
  explicit ServicePlan(const ws::RunConfig& config);
  ServicePlan(const ServicePlan&) = delete;
  ServicePlan& operator=(const ServicePlan&) = delete;

  /// The latency model a job allocated at `base` selects victims with:
  /// its block slice under space sharing, the global model otherwise.
  const topo::LatencyModel& job_latency(topo::Rank base) const noexcept {
    return block_latency.empty() ? latency : block_latency[base / block_width];
  }

  std::vector<JobSpec> jobs;  ///< id-indexed, from generate_jobs
  topo::JobLayout layout;     ///< the whole pool's allocation
  topo::LatencyModel latency;
  /// Job block width: ranks_per_job under space sharing, num_ranks under
  /// time sharing (every job binds the whole pool).
  topo::Rank block_width = 0;
  std::uint32_t num_blocks = 0;  ///< space sharing: num_ranks / block_width
  /// Space sharing only: geometry slices per block, in block order. Sized
  /// exactly at construction — LatencyModel holds pointers into
  /// block_layouts, so neither vector may ever reallocate.
  std::vector<topo::JobLayout> block_layouts;
  std::vector<topo::LatencyModel> block_latency;
};

// ---- Shared mutable run state ----------------------------------------------

/// Per-job scheduling outcomes, id-indexed, shared across shards. Disjoint
/// single-writer fields: admit/base/width are written only by the controller
/// (shard 0) at admission; finish only by the shard owning the job's home
/// rank (job-local 0) at termination. Cross-shard reads happen after join.
struct JobRuntime {
  support::SimTime admit = -1;
  topo::Rank base = 0;
  topo::Rank width = 0;
  support::SimTime finish = -1;
  bool admitted() const noexcept { return admit >= 0; }
};

/// A packaged steal response waiting out its victim-side handling delay
/// (EventKind::kDeferredResponse; the svc twin of ws::PendingSend, with the
/// destination already translated to a global rank).
struct PendingEnvelope {
  JobId job = 0;
  topo::Rank dst = 0;  ///< global thief rank
  proto::StealResponse resp;
  std::uint32_t bytes = 0;
  fault::MsgClass cls = fault::MsgClass::kDroppable;
};

/// One armed protocol timer. Rank-level timer events carry a pool handle
/// because the payload must identify both the job and the peer's own value
/// (request id / token generation).
struct PendingTimer {
  JobId job = 0;
  std::uint32_t value = 0;
};

class Controller;

/// Per-shard execution context (serial runs are the one-shard case): the
/// engine/network pair, the shared plan, and the slab pools backing event
/// payloads. `controller` is non-null exactly on the shard owning global
/// rank 0.
struct ServiceContext {
  sim::Engine* engine = nullptr;
  SvcNetwork* network = nullptr;
  const ws::RunConfig* config = nullptr;
  const ServicePlan* plan = nullptr;
  fault::Injector* faults = nullptr;
  Controller* controller = nullptr;
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;
  JobRuntime* runtimes = nullptr;  ///< shared id-indexed array

  sim::SlabPool<PendingEnvelope> deferred;
  sim::SlabPool<PendingTimer> timers;
};

// ---- Per-(rank, job) protocol binding --------------------------------------

/// One job's presence on one rank: a proto::Peer over job-local ranks plus
/// the execution loop ws::Worker implements for the single-job case. The
/// binding translates local<->global ranks at the transport seam and keeps
/// per-job step scheduling state so concurrent jobs on a rank interleave
/// freely (step events carry the job id in the event payload).
class JobBinding final : private proto::Transport {
 public:
  JobBinding(MuxWorker& mux, const JobSpec& spec, const JobAdmit& admit,
             support::SimTime now);

  /// t = admit: job-local rank 0 seeds the tree root (then immediately
  /// relinquishes it if parked), everyone else starts a discovery session.
  void start(support::SimTime now);
  void step();
  void on_proto(proto::Message msg, support::SimTime now);
  void on_lease(bool leased, topo::Rank handoff, support::SimTime now);
  void on_steal_timeout(std::uint32_t request_id, support::SimTime now);
  void on_token_timeout(std::uint32_t generation, support::SimTime now);

  bool done() const noexcept { return peer_.done(); }
  std::size_t stack_size() const noexcept { return peer_.stack().size(); }
  const metrics::RankStats& stats() const noexcept { return peer_.stats(); }
  JobId job() const noexcept { return spec_.id; }
  /// Virtual time of this binding's first node expansion; -1 if it never
  /// expanded one (the job-level value is the min over its bindings).
  support::SimTime first_compute() const noexcept { return first_compute_; }

 private:
  // proto::Transport — local ranks in, global envelopes out.
  void send(topo::Rank to, proto::Message msg, std::uint32_t bytes,
            fault::MsgClass cls) override;
  void send_deferred(support::SimTime delay, topo::Rank to,
                     proto::StealResponse resp, std::uint32_t bytes,
                     fault::MsgClass cls) override;
  void arm_steal_timer(support::SimTime delay,
                       std::uint32_t request_id) override;
  void arm_token_timer(support::SimTime delay,
                       std::uint32_t generation) override;
  void activated() override;
  void terminated(support::SimTime at) override;

  void schedule_step();
  support::SimTime drain_inbox();

  MuxWorker& mux_;
  const JobSpec& spec_;
  topo::Rank base_ = 0;
  topo::Rank width_ = 0;
  topo::Rank local_ = 0;    ///< this rank's job-local id
  topo::Rank handoff_ = 0;  ///< job-local relinquish target while parked
  proto::Peer peer_;

  bool step_scheduled_ = false;
  std::vector<proto::Message> inbox_;
  support::SimTime per_node_cost_ = 0;
  support::SimTime first_compute_ = -1;
};

// ---- Per-rank multiplexer --------------------------------------------------

/// One global rank of the service pool: owns the rank's job bindings and
/// demultiplexes envelopes, typed events and fault perturbations onto them.
/// Bindings persist for the whole run once created (envelopes to done
/// bindings are dropped, exactly like ws::Worker drops post-termination
/// stragglers); proto traffic arriving before the job's admit — possible
/// under fault jitter, where a peer's first steal request can overtake the
/// controller's admit on a different channel — parks in a per-job pending
/// buffer drained at admission.
class MuxWorker final : public sim::EventSink {
 public:
  MuxWorker(topo::Rank rank, ServiceContext& ctx);

  void on_event(const sim::Event& ev) override;
  /// Network delivery entry point.
  void on_envelope(Envelope env);
  /// Direct-call twins of the control envelopes, used by the controller for
  /// its own rank (the network forbids self-sends).
  void admit(const JobAdmit& a, support::SimTime now);
  void lease(const LeaseUpdate& u, support::SimTime now);

  topo::Rank rank() const noexcept { return rank_; }
  ServiceContext& ctx() noexcept { return ctx_; }
  /// The rank's one-shot transient pause (fault layer): per *rank*, not per
  /// binding — the physical rank stalls once, whichever job's step boundary
  /// crosses the scheduled start first.
  bool take_pause(support::SimTime now);

  const std::unordered_map<JobId, std::unique_ptr<JobBinding>>& bindings()
      const noexcept {
    return bindings_;
  }
  std::size_t pending_messages() const noexcept;

 private:
  void route_proto(JobId job, proto::Message msg);

  topo::Rank rank_;
  ServiceContext& ctx_;
  std::unordered_map<JobId, std::unique_ptr<JobBinding>> bindings_;
  /// Proto messages that arrived before their job's admit.
  std::unordered_map<JobId, std::vector<proto::Message>> pending_;
  bool pause_taken_ = false;
};

// ---- Admission / allocation controller -------------------------------------

/// The scheduler-as-a-service brain, attached to global rank 0 (and thus
/// shard 0): turns kSvcArrival events into admissions, owns the allocation
/// policy (space-shared blocks or time-shared elastic leases), and retires
/// jobs on JobDone. All of its decisions flow from shard-0-local event order,
/// so they are shard-count invariant.
class Controller final : public sim::EventSink {
 public:
  explicit Controller(ServiceContext& ctx);

  /// Schedule every job's kSvcArrival on the controller's engine. Same-time
  /// arrivals fire in job-id order (they are scheduled in id order and the
  /// ordering key falls through to seq).
  void schedule_arrivals();

  void on_event(const sim::Event& ev) override;
  /// A job's home binding reported per-job termination.
  void on_job_done(JobId id, support::SimTime now);

  bool all_done() const noexcept {
    return done_count_ == ctx_.plan->jobs.size();
  }
  std::size_t queued() const noexcept { return queue_.size(); }

 private:
  static constexpr JobId kNoJob = ~JobId{0};

  void try_admit(JobId id, support::SimTime now);
  void admit_space(JobId id, std::uint32_t block, support::SimTime now);
  void admit_time(JobId id, support::SimTime now);
  /// Time sharing: recompute the equal contiguous lease slices over
  /// `active_` and send revokes-then-grants to every rank whose owner
  /// changed. `admitting` suppresses grants for the job whose JobAdmit
  /// (which carries its own lease bit) is being fanned out in this step.
  void rebalance(JobId admitting, support::SimTime now);
  /// Owner job of rank `r` under the current active_ slices; kNoJob if none.
  JobId owner_of(topo::Rank r) const;
  /// Job-local first rank of `id`'s current slice (its handoff target).
  topo::Rank handoff_of(JobId id) const;
  void send_admit(const JobAdmit& a, topo::Rank dst, support::SimTime now);
  void send_lease(const LeaseUpdate& u, topo::Rank dst, support::SimTime now);

  ServiceContext& ctx_;
  std::deque<JobId> queue_;  ///< admission FIFO when the pool is full
  std::vector<std::uint8_t> job_done_;
  std::uint32_t done_count_ = 0;

  // Space sharing.
  std::vector<std::uint8_t> block_free_;

  // Time sharing.
  std::vector<JobId> active_;         ///< sorted by id
  std::vector<JobId> lease_of_rank_;  ///< current owner per rank (kNoJob)
};

}  // namespace dws::svc
