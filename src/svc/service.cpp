#include "svc/service.hpp"

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "support/check.hpp"
#include "svc/mux.hpp"
#include "uts/sequential.hpp"
#include "ws/shard.hpp"

namespace dws::svc {

namespace {

/// run_windowed's service binding: one MuxWorker per rank, plus the
/// controller on shard 0 (the shard owning global rank 0). Every admission
/// decision then flows from shard-0-local event order (kSvcArrival and
/// JobDone deliveries), which the merge rule makes shard-count invariant;
/// the control plane adds no new cross-shard edges — admits, leases and
/// dones are ordinary kReliable network sends and kSvcArrival never leaves
/// shard 0.
struct SvcBinding {
  using Payload = Envelope;
  using Deliver = DeliverToMux;
  struct Local {
    /// num_ranks wide, so DeliverToMux can index by global rank; slots of
    /// ranks on other shards stay null.
    std::vector<std::unique_ptr<MuxWorker>> muxes;
    ServiceContext ctx;
    std::unique_ptr<Controller> controller;  ///< shard 0 only
  };

  const ws::RunConfig& config;
  const ServicePlan& plan;
  std::vector<JobRuntime>& runtimes;

  Deliver deliver(Local& local) { return DeliverToMux{&local.muxes}; }

  void populate(ws::Shard<SvcBinding>& shard,
                const std::vector<topo::Rank>& ranks, bool /*sharded*/) {
    Local& local = shard.local;
    ServiceContext& ctx = local.ctx;
    ctx.engine = &shard.engine;
    ctx.config = &config.ws;
    ctx.faults = shard.faults;
    ctx.payloads = shard.payloads;
    ctx.network = shard.network.get();
    ctx.run = &config;
    ctx.plan = &plan;
    ctx.muxes = &local.muxes;
    ctx.runtimes = runtimes.data();

    local.muxes.resize(config.num_ranks);
    for (topo::Rank r : ranks) {
      local.muxes[r] = std::make_unique<MuxWorker>(r, ctx);
    }
    if (shard.engine.shard_id() == 0) {
      local.controller = std::make_unique<Controller>(ctx);
      ctx.controller = local.controller.get();
      // kSvcArrival events only ever live on this engine. No global
      // termination flag: the engines drain naturally once every job's
      // protocol went quiet (plus any stale timers, which no-op).
      local.controller->schedule_arrivals();
    }
  }

  void on_window() {}

  /// Checks the always-on service audit — every job admitted and retired,
  /// no deferred response leaked, every job worker done with an empty stack
  /// and no pre-admit messages parked, per-job chunks sent == received (work
  /// conservation under elastic grow/shrink) and every shipped payload
  /// taken from the run's store — and folds per-worker stats
  /// into per-rank and per-job results.
  ws::RunResult finish(const std::vector<const Local*>& locals,
                       const std::vector<std::uint32_t>& shard_of_rank) const {
    auto mux = [&](topo::Rank r) -> const MuxWorker& {
      return *locals[shard_of_rank[r]]->muxes[r];
    };
    DWS_CHECK(locals[0]->controller->all_done());
    DWS_CHECK(locals[0]->controller->queued() == 0);
    for (const Local* local : locals) {
      DWS_CHECK(local->ctx.deferred.in_use() == 0);
    }

    ws::RunResult result;
    result.num_ranks = config.num_ranks;
    result.per_node_cost = config.ws.node_cost();
    result.per_rank.assign(config.num_ranks, metrics::RankStats{});
    result.jobs.reserve(plan.jobs.size());

    // Per-job accumulation in job-id order keeps the double sums
    // deterministic.
    for (const JobSpec& spec : plan.jobs) {
      const JobRuntime& rt = runtimes[spec.id];
      DWS_CHECK(rt.admitted());
      DWS_CHECK(rt.finish >= rt.admit);

      metrics::JobOutcome out;
      out.job_id = spec.id;
      out.tree = spec.tree.name;
      out.root_seed = spec.tree.root_seed;
      out.base = rt.base;
      out.width = rt.width;
      out.arrival = spec.arrival;
      out.admit = rt.admit;
      out.finish = rt.finish;

      support::SimTime first = -1;
      for (topo::Rank r = rt.base; r < rt.base + rt.width; ++r) {
        const JobWorker* worker = mux(r).worker(spec.id);
        DWS_CHECK(worker != nullptr);
        const JobWorker& w = *worker;
        DWS_CHECK(w.done());
        DWS_CHECK(w.stack_size() == 0);
        const metrics::RankStats& s = w.stats();
        out.nodes += s.nodes_processed;
        out.leaves += s.leaves_seen;
        out.chunks_sent += s.chunks_sent;
        out.chunks_received += s.chunks_received;
        out.steal_attempts += s.steal_attempts;
        out.successful_steals += s.successful_steals;
        if (w.first_compute() >= 0) {
          first = first < 0 ? w.first_compute()
                            : std::min(first, w.first_compute());
        }
        metrics::accumulate(result.per_rank[r], s);
      }
      // Work conservation per job: every chunk a worker shipped — steals and
      // lease-relinquish pushes alike — landed at a worker of the same job.
      DWS_CHECK(out.chunks_sent == out.chunks_received);
      DWS_CHECK(out.nodes >= 1);  // at least the root was expanded
      DWS_CHECK(first >= out.admit);
      out.first_compute = first;
      DWS_CHECK(out.finish >= out.first_compute);

      result.nodes += out.nodes;
      result.leaves += out.leaves;
      result.runtime = std::max(result.runtime, out.finish);
      result.jobs.push_back(std::move(out));
    }

    for (topo::Rank r = 0; r < config.num_ranks; ++r) {
      DWS_CHECK(mux(r).pending_messages() == 0);
    }
    DWS_CHECK(locals[0]->ctx.payloads->in_use() == 0);
    result.stats = metrics::aggregate(result.per_rank);
    return result;
  }
};

}  // namespace

ws::RunResult run_service(const ws::RunConfig& config) {
  DWS_CHECK(config.svc.enabled);
  DWS_CHECK(config.num_ranks >= 1);

  const ServicePlan plan(config);
  std::vector<JobRuntime> runtimes(plan.jobs.size());
  SvcBinding binding{config, plan, runtimes};
  return ws::run_windowed(config, plan.layout, plan.latency, binding);
}

ws::RunResult checked_service_run(const ws::RunConfig& config) {
  ws::RunResult result = run_service(config);
  // Sequential oracle, per job: the parallel multi-tenant execution must
  // have expanded exactly the tree the job's (svc.seed, id)-derived root
  // seed defines — no lost or duplicated work through steals, parked-rank
  // refusals, or lease-relinquish hand-offs.
  const std::vector<JobSpec> jobs = generate_jobs(config.svc, config.tree);
  DWS_CHECK(jobs.size() == result.jobs.size());
  for (const metrics::JobOutcome& out : result.jobs) {
    const uts::TreeStats oracle =
        uts::enumerate_sequential(jobs[out.job_id].tree, out.nodes + 1);
    DWS_CHECK(!oracle.truncated);
    DWS_CHECK(oracle.nodes == out.nodes);
    DWS_CHECK(oracle.leaves == out.leaves);
  }
  return result;
}

}  // namespace dws::svc
