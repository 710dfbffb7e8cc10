#include "ws/scheduler.hpp"

#include <memory>
#include <vector>

#include "proto/replay.hpp"
#include "support/check.hpp"
#include "ws/shard.hpp"
#include "ws/worker.hpp"

namespace dws::ws {

const char* to_string(Backend b) {
  switch (b) {
    case Backend::kSim: return "sim";
    case Backend::kRt: return "rt";
  }
  return "?";
}

support::Status RunConfig::validate() const {
  if (num_ranks < 1) return support::Status::error("num_ranks must be >= 1");
  if (procs_per_node < 1) {
    return support::Status::error("procs_per_node must be >= 1");
  }
  if (placement == topo::Placement::kOnePerNode && procs_per_node != 1) {
    return support::Status::error(
        "placement 1/N requires procs_per_node == 1 (got " +
        std::to_string(procs_per_node) + ")");
  }
  if (num_ranks % procs_per_node != 0) {
    return support::Status::error(
        "num_ranks (" + std::to_string(num_ranks) +
        ") must be a multiple of procs_per_node (" +
        std::to_string(procs_per_node) + ")");
  }
  if (num_ranks / procs_per_node > machine.node_count()) {
    return support::Status::error(
        "job needs " + std::to_string(num_ranks / procs_per_node) +
        " nodes but the machine has " + std::to_string(machine.node_count()));
  }
  if (origin_cube >= machine.cube_count()) {
    return support::Status::error(
        "origin_cube " + std::to_string(origin_cube) +
        " outside the machine's " + std::to_string(machine.cube_count()) +
        " cubes");
  }
  if (ws.chunk_size == 0) {
    return support::Status::error("chunk_size must be >= 1");
  }
  if (ws.poll_interval == 0) {
    return support::Status::error("poll_interval must be >= 1");
  }
  if (ws.alias_table_max_ranks == 0) {
    return support::Status::error(
        "alias_table_max_ranks must be >= 1 (the threshold picks the "
        "sampling backend; 0 would disable both)");
  }
  if (ws.idle_policy == IdlePolicy::kLifeline && ws.lifeline_tries == 0) {
    return support::Status::error(
        "lifeline_tries must be >= 1 under IdlePolicy::kLifeline");
  }
  if (tree.type == uts::TreeType::kBinomial &&
      static_cast<double>(tree.m) * tree.q >= 1.0) {
    return support::Status::error(
        "binomial tree with m*q >= 1 is (almost surely) infinite");
  }
  if (ws.steal_backoff < 1.0) {
    return support::Status::error("steal_backoff must be >= 1.0");
  }
  if (ws.victim_policy == VictimPolicy::kHierarchical &&
      ws.hierarchical_remote_tries == 0) {
    return support::Status::error(
        "hierarchical_remote_tries must be >= 1 (a schedule with no remote "
        "slot can never escape an empty local neighbourhood)");
  }
  if (ws.victim_policy == VictimPolicy::kAdaptive || ws.adaptive_steal_amount) {
    if (!(ws.adapt_decay > 0.0 && ws.adapt_decay <= 1.0)) {
      return support::Status::error(
          "adapt_decay must be in (0, 1] (0 would freeze the EWMAs, > 1 "
          "oscillates)");
    }
  }
  if (ws.victim_policy == VictimPolicy::kAdaptive) {
    if (!(ws.adapt_epsilon > 0.0 && ws.adapt_epsilon <= 1.0)) {
      return support::Status::error(
          "adapt_epsilon must be in (0, 1] under kAdaptive (zero exploration "
          "can starve a down-weighted victim's feedback forever)");
    }
    if (ws.adapt_refresh_interval == 0) {
      return support::Status::error(
          "adapt_refresh_interval must be >= 1 (alias rebuild cadence)");
    }
  }
  if (ws.steal_timeout < 0 || ws.token_timeout < 0) {
    return support::Status::error("timeouts must be >= 0");
  }
  if (fault.drop_prob < 0.0 || fault.drop_prob >= 1.0 ||
      fault.dup_prob < 0.0 || fault.dup_prob >= 1.0) {
    return support::Status::error("fault probabilities must be in [0, 1)");
  }
  if (fault.jitter_frac < 0.0) {
    return support::Status::error("fault.jitter_frac must be >= 0");
  }
  if (fault.degraded_frac < 0.0 || fault.degraded_frac > 1.0) {
    return support::Status::error("fault.degraded_frac must be in [0, 1]");
  }
  if (fault.degraded_mult < 1.0 || fault.straggler_factor < 1.0) {
    return support::Status::error(
        "fault.degraded_mult and fault.straggler_factor must be >= 1");
  }
  if (fault.straggler_ranks > num_ranks || fault.pause_ranks > num_ranks) {
    return support::Status::error(
        "fault straggler/pause rank counts exceed num_ranks");
  }
  if (fault.pause_duration < 0 || fault.pause_window < 0) {
    return support::Status::error("fault pause times must be >= 0");
  }
  if (backend == Backend::kRt) {
    // The native runtime runs real threads over reliable in-process
    // channels: there is no injector to drop/duplicate/perturb, and
    // one-sided steals would need cross-thread access to a private deque.
    if (fault.enabled()) {
      return support::Status::error(
          "fault injection is simulator-only (backend=rt has reliable "
          "in-process channels)");
    }
    if (ws.one_sided_steals) {
      return support::Status::error(
          "one_sided_steals is simulator-only (backend=rt serves requests "
          "at the victim's poll boundaries)");
    }
  }
  if (sim_shards < 1) {
    return support::Status::error("sim_shards must be >= 1");
  }
  if (congestion_scale > 0.0 && !congestion.enabled) {
    // Re-anchoring (run_congestion) only applies the scale when the model is
    // on; a scale without the model would be silently ignored.
    return support::Status::error(
        "congestion_scale > 0 requires congestion.enabled (use "
        "enable_congestion(); a bare scale is silently dead)");
  }
  if (congestion.window < 0) {
    return support::Status::error("congestion.window must be >= 0");
  }
  if (congestion.enabled && congestion.window == 0 &&
      latency.network_base <= 0) {
    return support::Status::error(
        "congestion with the default window needs network_base > 0 (the "
        "window resolves to one network_base)");
  }
  if (sim_shards > 1) {
    // Faults and congestion compose with sharding since their state was
    // de-globalized (per-channel fault keying, windowed congestion ledger —
    // DESIGN.md §12); the native backend stays out because it already runs
    // one real thread per rank.
    if (backend == Backend::kRt) {
      return support::Status::error(
          "sim_shards > 1 is simulator-only (backend=rt already runs one "
          "thread per rank)");
    }
    if (latency.same_blade <= 0 || latency.network_base <= 0) {
      return support::Status::error(
          "sim_shards > 1 needs positive same_blade/network_base latencies "
          "(the conservative lookahead window would be empty)");
    }
  }
  if (svc.enabled) {
    if (backend == Backend::kRt) {
      return support::Status::error(
          "the service layer is simulator-only (backend=rt runs one job)");
    }
    if (ws.one_sided_steals) {
      return support::Status::error(
          "svc rejects one_sided_steals (the job mux delivers everything "
          "through per-binding inboxes; there is no rank-level bypass)");
    }
    if (ws.idle_policy == IdlePolicy::kLifeline) {
      return support::Status::error(
          "svc rejects IdlePolicy::kLifeline (lifeline pushes are reserved "
          "for lease relinquish hand-offs)");
    }
    if (svc.alloc == svc::AllocPolicy::kTimeShare &&
        (ws.victim_policy == VictimPolicy::kAdaptive ||
         ws.adaptive_steal_amount)) {
      return support::Status::error(
          "svc time-sharing rejects adaptive selection/amount switching "
          "(parked ranks refuse every steal, poisoning the feedback EWMAs "
          "with lease noise)");
    }
    if (svc.arrival == svc::ArrivalKind::kPoisson) {
      if (svc.num_jobs < 1) {
        return support::Status::error("svc poisson arrivals need num_jobs >= 1");
      }
      if (svc.mean_interarrival <= 0) {
        return support::Status::error(
            "svc poisson arrivals need mean_interarrival > 0");
      }
    } else {
      if (svc.trace.empty()) {
        return support::Status::error("svc trace arrivals need a non-empty trace");
      }
      for (const auto t : svc.trace) {
        if (t < 0) return support::Status::error("svc trace times must be >= 0");
      }
      if (svc.num_jobs != 0 &&
          svc.num_jobs != static_cast<std::uint32_t>(svc.trace.size())) {
        return support::Status::error(
            "svc.num_jobs must be 0 or match the trace length");
      }
    }
    if (svc.alloc == svc::AllocPolicy::kSpaceShare) {
      if (svc.ranks_per_job < 1 || svc.ranks_per_job > num_ranks) {
        return support::Status::error(
            "svc space sharing needs 1 <= ranks_per_job <= num_ranks");
      }
      if (num_ranks % svc.ranks_per_job != 0) {
        return support::Status::error(
            "svc space sharing needs num_ranks divisible by ranks_per_job "
            "(blocks are fixed-width partitions)");
      }
    }
    for (const auto& entry : svc.mix) {
      if (entry.weight <= 0.0) {
        return support::Status::error("svc job-mix weights must be > 0");
      }
      if (uts::find_tree(entry.tree) == nullptr) {
        return support::Status::error("svc job-mix tree '" + entry.tree +
                                      "' is not in the uts catalogue");
      }
    }
  }
  if (fault.drop_prob > 0.0) {
    // Liveness: a lost steal request/refusal is only recovered by the steal
    // timer, a lost token only by regeneration. Without them a single drop
    // can hang the run.
    if (ws.steal_timeout == 0) {
      return support::Status::error(
          "fault.drop_prob > 0 requires ws.steal_timeout > 0 (lost requests "
          "are recovered by the steal timer)");
    }
    if (num_ranks > 1 && ws.token_timeout == 0) {
      return support::Status::error(
          "fault.drop_prob > 0 requires ws.token_timeout > 0 (a lost "
          "termination token is recovered by regeneration)");
    }
  }
  return support::Status::ok();
}

namespace {

/// run_windowed's single-job binding: one ws::Worker per rank, bootstrapped
/// by kWorkerStart at t = 0. An attached observer sees hooks directly on the
/// serial path; sharded, each shard buffers its hooks and on_window replays
/// them merged in time order.
struct WsBinding {
  using Payload = proto::Message;
  using Deliver = DeliverToWorkers;
  struct Local {
    /// num_ranks wide, so DeliverToWorkers can index by global rank; slots
    /// of ranks on other shards stay null.
    std::vector<std::unique_ptr<WsWorker>> workers;
    RunContext ctx;
    std::unique_ptr<proto::BufferedObserver> buffer;
  };

  const RunConfig& config;
  const topo::LatencyModel& latency;
  proto::RunObserver* observer = nullptr;
  std::vector<proto::BufferedObserver*> buffers;  ///< by shard; sharded only

  Deliver deliver(Local& local) { return DeliverToWorkers{&local.workers}; }

  void populate(Shard<WsBinding>& shard, const std::vector<topo::Rank>& ranks,
                bool sharded) {
    Local& local = shard.local;
    RunContext& ctx = local.ctx;
    ctx.engine = &shard.engine;
    ctx.config = &config.ws;
    ctx.faults = shard.faults;
    ctx.payloads = shard.payloads;
    ctx.network = shard.network.get();
    proto::RunObserver* shard_observer = observer;
    if (sharded && observer != nullptr) {
      sim::Engine* engine = &shard.engine;
      local.buffer = std::make_unique<proto::BufferedObserver>(
          [engine] { return engine->now(); });
      shard_observer = local.buffer.get();
      buffers.push_back(local.buffer.get());
    }

    local.workers.resize(config.num_ranks);
    // Ascending rank order on every shard: the kWorkerStart events get the
    // same relative seq order as in the serial run.
    for (topo::Rank r : ranks) {
      local.workers[r] = std::make_unique<WsWorker>(
          ctx, WsPort{&ctx, {}}, r, r, config.num_ranks, config.tree, &latency,
          shard_observer);
      shard.engine.schedule_at(0, *local.workers[r],
                               sim::EventKind::kWorkerStart, r);
    }
  }

  void on_window() {
    if (observer != nullptr) {
      proto::BufferedObserver::replay_merged(buffers, *observer);
    }
  }

  RunResult finish(const std::vector<const Local*>& locals,
                   const std::vector<std::uint32_t>& shard_of_rank) const {
    // Post-run invariants: the token protocol must have fired (rank 0 owns
    // the flag), every worker must have drained its stack, and every
    // shipped chunk must have landed and left the payload store.
    const RunContext& ctx0 = locals[0]->ctx;
    DWS_CHECK(ctx0.terminated);

    RunResult result;
    result.runtime = ctx0.termination_time;
    result.num_ranks = config.num_ranks;
    result.per_node_cost = config.ws.node_cost();
    result.per_rank.reserve(config.num_ranks);
    if (config.ws.record_trace) {
      result.trace.total_time = result.runtime;
      result.trace.ranks.reserve(config.num_ranks);
    }
    // Global rank order, so records and aggregates are byte-identical at
    // every shard count.
    std::uint64_t chunks_sent = 0;
    std::uint64_t chunks_received = 0;
    for (topo::Rank r = 0; r < config.num_ranks; ++r) {
      const WsWorker& w = *locals[shard_of_rank[r]]->workers[r];
      DWS_CHECK(w.done());
      DWS_CHECK(w.stack_size() == 0);
      chunks_sent += w.stats().chunks_sent;
      chunks_received += w.stats().chunks_received;
      result.nodes += w.stats().nodes_processed;
      result.leaves += w.stats().leaves_seen;
      result.per_rank.push_back(w.stats());
      if (config.ws.record_trace) result.trace.ranks.push_back(w.trace());
    }
    DWS_CHECK(chunks_sent == chunks_received);
    DWS_CHECK(ctx0.payloads->in_use() == 0);
    result.stats = metrics::aggregate(result.per_rank);
    return result;
  }
};

}  // namespace

RunResult run_simulation(const RunConfig& config,
                         proto::RunObserver* observer) {
  DWS_CHECK(config.num_ranks >= 1);
  DWS_CHECK(!config.svc.enabled &&
            "service configs run through svc::run_service");

  topo::JobLayout layout(config.machine, config.num_ranks, config.placement,
                         config.procs_per_node, config.origin_cube);
  topo::LatencyModel latency(layout, config.latency);
  WsBinding binding{config, latency, observer, {}};
  return run_windowed(config, layout, latency, binding);
}

}  // namespace dws::ws
