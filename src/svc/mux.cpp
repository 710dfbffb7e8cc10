#include "svc/mux.hpp"

#include <algorithm>
#include <utility>

#include "support/check.hpp"
#include "uts/tree.hpp"

namespace dws::svc {

// ---- DeliverToMux ----------------------------------------------------------

void DeliverToMux::operator()(topo::Rank dst, const Envelope& env) const {
  (*muxes)[dst]->on_envelope(env);
}

// ---- ServicePlan -----------------------------------------------------------

ServicePlan::ServicePlan(const ws::RunConfig& config)
    : jobs(generate_jobs(config.svc, config.tree)),
      layout(config.machine, config.num_ranks, config.placement,
             config.procs_per_node, config.origin_cube),
      latency(layout, config.latency) {
  if (config.svc.alloc == AllocPolicy::kSpaceShare) {
    block_width = config.svc.ranks_per_job;
    num_blocks = config.num_ranks / block_width;
    // Exact reservation: the latency models hold pointers into
    // block_layouts, so a reallocation after the first emplace would dangle.
    block_layouts.reserve(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      block_layouts.push_back(
          topo::JobLayout::slice(layout, b * block_width, block_width));
    }
    block_latency.reserve(num_blocks);
    for (std::uint32_t b = 0; b < num_blocks; ++b) {
      block_latency.emplace_back(block_layouts[b], config.latency);
    }
  } else {
    block_width = config.num_ranks;
    num_blocks = 1;
  }
}

// ---- SvcPort ---------------------------------------------------------------

void SvcPort::send(topo::Rank from, topo::Rank to, proto::Message msg,
                   std::uint32_t bytes, fault::MsgClass cls) {
  mux->ctx().network->send(from, base + to, Envelope{job, msg}, bytes, cls);
}

void SvcPort::terminated(topo::Rank rank, support::SimTime at) {
  ServiceContext& ctx = mux->ctx();
  JobRuntime& rt = ctx.runtimes[job];
  DWS_CHECK(rt.finish < 0);
  rt.finish = at;
  // Report per-job quiescence to the controller. Its own rank takes the
  // direct path (the network refuses self-sends); remote home ranks send a
  // reliable JobDone envelope that rank 0's mux routes to the controller.
  if (base == 0) {
    DWS_CHECK(ctx.controller != nullptr);
    ctx.controller->on_job_done(job, ctx.engine->now());
  } else {
    ctx.network->send(rank, 0, Envelope{job, JobDone{job}},
                      ctx.config->token_bytes, fault::MsgClass::kReliable);
  }
}

ws::RankPause& SvcPort::pause() noexcept { return mux->pause(); }

// ---- MuxWorker -------------------------------------------------------------

MuxWorker::MuxWorker(topo::Rank rank, ServiceContext& ctx)
    : rank_(rank),
      ctx_(ctx),
      workers_(ctx.plan->jobs.size()),
      pause_(ctx.faults, rank) {}

void MuxWorker::on_envelope(const Envelope& env) {
  if (const auto* msg = std::get_if<proto::Message>(&env.body)) {
    route_proto(env.job, *msg);
  } else if (const auto* a = std::get_if<JobAdmit>(&env.body)) {
    admit(*a);
  } else if (const auto* u = std::get_if<LeaseUpdate>(&env.body)) {
    lease(*u);
  } else {
    const auto& done = std::get<JobDone>(env.body);
    DWS_CHECK(rank_ == 0 && ctx_.controller != nullptr);
    ctx_.controller->on_job_done(done.job, ctx_.engine->now());
  }
}

void MuxWorker::route_proto(JobId job, const proto::Message& msg) {
  JobWorker* w = workers_[job].get();
  if (w == nullptr) {
    // Workers are never destroyed, so no worker means the admit has not
    // arrived yet (fault jitter can let a peer's first request overtake the
    // controller's admit — different channels). Park it until admission.
    pending_.emplace_back(job, msg);
    return;
  }
  w->on_message(msg);
}

void MuxWorker::admit(const JobAdmit& a) {
  DWS_CHECK(workers_[a.job] == nullptr);
  DWS_CHECK(rank_ >= a.base && rank_ - a.base < a.width);
  const JobSpec& spec = ctx_.plan->jobs[a.job];
  DWS_CHECK(spec.id == a.job);
  auto owned = std::make_unique<JobWorker>(
      ctx_, SvcPort{this, a.job, a.base}, rank_, rank_ - a.base, a.width,
      spec.tree, &ctx_.plan->job_latency(a.base), /*observer=*/nullptr);
  JobWorker& w = *owned;
  workers_[a.job] = std::move(owned);
  // Park before start(): a parked local rank 0 still seeds the root but
  // immediately relinquishes it to the handoff rank.
  if (!a.leased) w.set_lease(false, a.handoff);
  w.start();
  std::vector<proto::Message> msgs;
  std::erase_if(pending_, [&](const std::pair<JobId, proto::Message>& p) {
    if (p.first != a.job) return false;
    msgs.push_back(p.second);
    return true;
  });
  for (const proto::Message& m : msgs) {
    if (w.done()) break;
    w.on_message(m);
  }
}

void MuxWorker::lease(const LeaseUpdate& u) {
  // The admit precedes every lease on the controller's channel (reliable,
  // non-overtaking), so the worker must exist.
  JobWorker* w = workers_[u.job].get();
  DWS_CHECK(w != nullptr);
  w->set_lease(u.leased, u.handoff);
}

// ---- Controller ------------------------------------------------------------

Controller::Controller(ServiceContext& ctx) : ctx_(ctx) {
  job_done_.assign(ctx_.plan->jobs.size(), 0);
  if (ctx_.run->svc.alloc == AllocPolicy::kSpaceShare) {
    block_free_.assign(ctx_.plan->num_blocks, 1);
  } else {
    lease_of_rank_.assign(ctx_.run->num_ranks, kNoJob);
  }
}

void Controller::schedule_arrivals() {
  for (const JobSpec& spec : ctx_.plan->jobs) {
    ctx_.engine->schedule_at(spec.arrival, *this, sim::EventKind::kSvcArrival,
                             /*rank=*/0, /*payload=*/spec.id);
  }
}

void Controller::on_event(const sim::Event& ev) {
  DWS_CHECK(ev.kind == sim::EventKind::kSvcArrival);
  try_admit(ev.payload, ctx_.engine->now());
}

void Controller::try_admit(JobId id, support::SimTime now) {
  if (ctx_.run->svc.alloc == AllocPolicy::kSpaceShare) {
    for (std::uint32_t b = 0; b < block_free_.size(); ++b) {
      if (block_free_[b]) {
        admit_space(id, b, now);
        return;
      }
    }
  } else if (active_.size() <
             static_cast<std::size_t>(ctx_.run->num_ranks)) {
    admit_time(id, now);
    return;
  }
  queue_.push_back(id);
}

void Controller::admit_space(JobId id, std::uint32_t block,
                             support::SimTime now) {
  block_free_[block] = 0;
  const topo::Rank width = ctx_.plan->block_width;
  const topo::Rank base = static_cast<topo::Rank>(block) * width;
  JobRuntime& rt = ctx_.runtimes[id];
  rt.admit = now;
  rt.base = base;
  rt.width = width;
  const JobAdmit a{id, base, width, /*leased=*/true, /*handoff=*/0};
  for (topo::Rank r = base; r < base + width; ++r) send_admit(a, r);
}

void Controller::admit_time(JobId id, support::SimTime now) {
  active_.insert(std::lower_bound(active_.begin(), active_.end(), id), id);
  JobRuntime& rt = ctx_.runtimes[id];
  rt.admit = now;
  rt.base = 0;
  rt.width = ctx_.run->num_ranks;
  rebalance(id);
}

void Controller::on_job_done(JobId id, support::SimTime now) {
  DWS_CHECK(!job_done_[id]);
  job_done_[id] = 1;
  ++done_count_;
  if (ctx_.run->svc.alloc == AllocPolicy::kSpaceShare) {
    block_free_[ctx_.runtimes[id].base / ctx_.plan->block_width] = 1;
    while (!queue_.empty()) {
      std::uint32_t free_block = ~std::uint32_t{0};
      for (std::uint32_t b = 0; b < block_free_.size(); ++b) {
        if (block_free_[b]) {
          free_block = b;
          break;
        }
      }
      if (free_block == ~std::uint32_t{0}) break;
      const JobId next = queue_.front();
      queue_.pop_front();
      admit_space(next, free_block, now);
    }
  } else {
    active_.erase(std::lower_bound(active_.begin(), active_.end(), id));
    rebalance(kNoJob);
    while (!queue_.empty() &&
           active_.size() < static_cast<std::size_t>(ctx_.run->num_ranks)) {
      const JobId next = queue_.front();
      queue_.pop_front();
      admit_time(next, now);
    }
  }
}

JobId Controller::owner_of(topo::Rank r) const {
  const std::size_t k = active_.size();
  if (k == 0) return kNoJob;
  const topo::Rank n = ctx_.run->num_ranks;
  for (std::size_t i = 0; i < k; ++i) {
    const auto lo = static_cast<topo::Rank>(i * n / k);
    const auto hi = static_cast<topo::Rank>((i + 1) * n / k);
    if (r >= lo && r < hi) return active_[i];
  }
  DWS_CHECK(false);  // slices tile [0, n)
  return kNoJob;
}

topo::Rank Controller::handoff_of(JobId id) const {
  const auto it = std::lower_bound(active_.begin(), active_.end(), id);
  DWS_CHECK(it != active_.end() && *it == id);
  const auto i = static_cast<std::size_t>(it - active_.begin());
  return static_cast<topo::Rank>(i * ctx_.run->num_ranks /
                                 active_.size());
}

void Controller::rebalance(JobId admitting) {
  const topo::Rank n = ctx_.run->num_ranks;
  const topo::Rank handoff_admit =
      admitting != kNoJob ? handoff_of(admitting) : 0;
  // Per rank: revoke the old lease before anything else on the channel, so
  // the worker parks (and relinquishes) before the new owner's grant or
  // admit arrives. Ascending rank order keeps the send sequence — and with
  // it every fault draw and congestion fold — deterministic.
  for (topo::Rank r = 0; r < n; ++r) {
    const JobId oldj = lease_of_rank_[r];
    const JobId newj = owner_of(r);
    if (oldj != newj) {
      if (oldj != kNoJob && !job_done_[oldj]) {
        send_lease(LeaseUpdate{oldj, false, handoff_of(oldj)}, r);
      }
      lease_of_rank_[r] = newj;
    }
    if (admitting != kNoJob) {
      send_admit(JobAdmit{admitting, 0, n, newj == admitting, handoff_admit},
                 r);
    }
    if (oldj != newj && newj != kNoJob && newj != admitting) {
      send_lease(LeaseUpdate{newj, true, handoff_of(newj)}, r);
    }
  }
}

void Controller::send_admit(const JobAdmit& a, topo::Rank dst) {
  if (dst == 0) {
    (*ctx_.muxes)[0]->admit(a);
    return;
  }
  ctx_.network->send(0, dst, Envelope{a.job, a},
                     ctx_.config->steal_request_bytes,
                     fault::MsgClass::kReliable);
}

void Controller::send_lease(const LeaseUpdate& u, topo::Rank dst) {
  if (dst == 0) {
    (*ctx_.muxes)[0]->lease(u);
    return;
  }
  ctx_.network->send(0, dst, Envelope{u.job, u},
                     ctx_.config->steal_request_bytes,
                     fault::MsgClass::kReliable);
}

}  // namespace dws::svc
