#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <type_traits>
#include <utility>
#include <variant>
#include <vector>

#include "fault/fault.hpp"
#include "proto/message.hpp"
#include "sim/engine.hpp"
#include "sim/event.hpp"
#include "sim/network.hpp"
#include "svc/arrival.hpp"
#include "svc/params.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "ws/scheduler.hpp"
#include "ws/worker.hpp"

/// Internal machinery of the service runtime (DESIGN.md §13): each resident
/// job on a rank runs as one ws::Worker bound through SvcPort, and MuxWorker
/// demultiplexes the rank's envelopes onto them. Only service.hpp is the
/// public surface.
namespace dws::svc {

// ---- Control vocabulary ----------------------------------------------------

/// Controller -> rank: a job was admitted; create its worker. The tree is
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
/// rank so the parked worker knows where to ship any work it holds now or
/// acquires later; handoff chains formed by stale targets terminate because
/// every hop was parked strictly later than its sender (see
/// ws::Worker::activated).
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
static_assert(std::is_trivially_copyable_v<Envelope>);

class MuxWorker;

/// Routes a network delivery to the destination rank's mux. Concrete functor
/// so delivery stays a direct call (same pattern as ws::DeliverToWorkers).
struct DeliverToMux {
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;
  void operator()(topo::Rank dst, const Envelope& env) const;
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

class Controller;

/// Per-shard execution context (serial runs are the one-shard case): the
/// workers' shared state, the network, the shared plan and run outcomes.
/// `controller` is non-null exactly on the shard owning global rank 0.
struct ServiceContext : ws::ExecContext {
  SvcNetwork* network = nullptr;
  const ws::RunConfig* run = nullptr;
  const ServicePlan* plan = nullptr;
  Controller* controller = nullptr;
  std::vector<std::unique_ptr<MuxWorker>>* muxes = nullptr;
  JobRuntime* runtimes = nullptr;  ///< shared id-indexed array
};

/// The service Worker binding: one job's view of a service rank. Job-local
/// ranks are offset by the job's block base, and every message travels in an
/// Envelope tagged with the job id.
struct SvcPort {
  MuxWorker* mux = nullptr;
  JobId job = 0;
  topo::Rank base = 0;  ///< global rank of the job's local rank 0

  void send(topo::Rank from, topo::Rank to, proto::Message msg,
            std::uint32_t bytes, fault::MsgClass cls);
  /// Record the job's finish time and report JobDone to the controller.
  void terminated(topo::Rank rank, support::SimTime at);
  ws::RankPause& pause() noexcept;
};

using JobWorker = ws::Worker<SvcPort>;

// ---- Per-rank multiplexer --------------------------------------------------

/// One global rank of the service pool: owns one JobWorker per resident job
/// and demultiplexes envelopes onto them. Job ids index `plan->jobs`, so the
/// workers sit in an id-indexed table: 8 bytes per (rank, job) pair of the
/// whole stream, in place of a hash lookup per delivered message. Workers
/// persist for the whole run once created (envelopes to done workers are
/// dropped, exactly like a single-job Worker drops post-termination
/// stragglers); proto traffic arriving before the job's admit — possible
/// under fault jitter, where a peer's first steal request can overtake the
/// controller's admit on a different channel — parks in a pending list
/// drained at admission.
class MuxWorker final {
 public:
  MuxWorker(topo::Rank rank, ServiceContext& ctx);

  /// Network delivery entry point.
  void on_envelope(const Envelope& env);
  /// Direct-call twins of the control envelopes, used by the controller for
  /// its own rank (the network forbids self-sends).
  void admit(const JobAdmit& a);
  void lease(const LeaseUpdate& u);

  topo::Rank rank() const noexcept { return rank_; }
  ServiceContext& ctx() noexcept { return ctx_; }
  /// The rank's one-shot transient pause (fault layer): per *rank*, not per
  /// job — the physical rank stalls once, whichever job's step boundary
  /// crosses the scheduled start first.
  ws::RankPause& pause() noexcept { return pause_; }

  /// The rank's worker for `job`, or null before its admit.
  const JobWorker* worker(JobId job) const noexcept {
    return workers_[job].get();
  }
  std::size_t pending_messages() const noexcept { return pending_.size(); }

 private:
  void route_proto(JobId job, const proto::Message& msg);

  topo::Rank rank_;
  ServiceContext& ctx_;
  std::vector<std::unique_ptr<JobWorker>> workers_;  ///< index = job id
  /// Proto messages that arrived before their job's admit, in arrival order.
  std::vector<std::pair<JobId, proto::Message>> pending_;
  ws::RankPause pause_;
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
  /// A job's home worker reported per-job termination.
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
  void rebalance(JobId admitting);
  /// Owner job of rank `r` under the current active_ slices; kNoJob if none.
  JobId owner_of(topo::Rank r) const;
  /// Job-local first rank of `id`'s current slice (its handoff target).
  topo::Rank handoff_of(JobId id) const;
  void send_admit(const JobAdmit& a, topo::Rank dst);
  void send_lease(const LeaseUpdate& u, topo::Rank dst);

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
