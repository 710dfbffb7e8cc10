#include "dag/scheduler.hpp"

#include <deque>
#include <memory>
#include <variant>

#include "sim/engine.hpp"
#include "support/check.hpp"
#include "proto/victim.hpp"

namespace dws::dag {

namespace {

struct StealRequest {
  topo::Rank thief;
};
struct StealResponse {
  std::vector<TaskId> tasks;  // empty = refusal
};
using Message = std::variant<StealRequest, StealResponse>;

class DagWorker;

/// Direct-call delivery functor (mirrors ws::DeliverToWorkers).
struct DeliverToDagWorkers {
  std::vector<std::unique_ptr<DagWorker>>* workers = nullptr;
  void operator()(topo::Rank dst, Message msg) const;
};

using DagNetwork = sim::Network<Message, DeliverToDagWorkers>;

/// Whole-simulation shared state.
struct DagSim {
  const Dag* dag = nullptr;
  const DagRunConfig* config = nullptr;
  sim::Engine engine;
  std::unique_ptr<topo::JobLayout> layout;
  std::unique_ptr<topo::LatencyModel> latency;
  std::unique_ptr<DagNetwork> network;

  std::vector<std::uint32_t> remaining_preds;
  std::vector<topo::Rank> completion_rank;
  std::uint32_t completed = 0;
  support::SimTime finish_time = 0;
};

class DagWorker final : public sim::EventSink {
 public:
  DagWorker(topo::Rank rank, DagSim& sim)
      : rank_(rank), sim_(sim), trace_(metrics::Phase::kIdle, 0) {
    if (sim_.config->num_ranks > 1) {
      ws::WsConfig shim;
      shim.victim_policy = sim_.config->victim_policy;
      shim.seed = sim_.config->seed;
      selector_ = proto::make_selector(shim, rank_, *sim_.latency);
    }
  }

  void start() {
    if (!ready_.empty()) {
      activate(0);
    } else if (sim_.config->num_ranks > 1) {
      begin_session(0);
      try_steal();
    }
  }

  void seed_task(TaskId id) { ready_.push_back(id); }

  /// Typed-event dispatch (kDagStart / kDagTaskComplete).
  void on_event(const sim::Event& ev) override {
    switch (ev.kind) {
      case sim::EventKind::kDagStart:
        start();
        break;
      case sim::EventKind::kDagTaskComplete:
        complete(static_cast<TaskId>(ev.payload));
        break;
      default:
        DWS_CHECK(false);
    }
  }

  void on_message(Message msg) {
    if (done_) return;
    if (executing_) {
      inbox_.push_back(std::move(msg));  // polled at the next task boundary
      return;
    }
    handle(std::move(msg));
  }

  void finish_all(support::SimTime at) {
    if (done_) return;
    if (!executing_ && waiting_response_) {
      stats_.total_search_time += at - request_sent_;
    }
    if (!executing_ && session_open_) {
      stats_.total_session_time += at - session_start_;
    }
    done_ = true;
    stats_.finish_time = at;
  }

  const metrics::RankStats& stats() const noexcept { return stats_; }
  const metrics::RankTrace& trace() const noexcept { return trace_; }
  std::size_t ready_count() const noexcept { return ready_.size(); }

 private:
  void activate(support::SimTime now) {
    if (session_open_) {
      stats_.total_session_time += now - session_start_;
      session_open_ = false;
    }
    trace_.record(now, metrics::Phase::kActive);
    next_task();
  }

  void begin_session(support::SimTime now) {
    trace_.record(now, metrics::Phase::kIdle);
    ++stats_.sessions;
    session_start_ = now;
    session_open_ = true;
  }

  /// Pick up the next ready task (LIFO) and schedule its completion.
  void next_task() {
    DWS_CHECK(!executing_);
    // Task boundary: answer whatever queued up while we were busy. The
    // boundary flag stops a drained steal response from re-entering
    // next_task through activate() — its tasks just join ready_ and the
    // code below picks them up.
    in_boundary_ = true;
    support::SimTime busy = drain_inbox();
    in_boundary_ = false;
    if (done_) return;
    if (ready_.empty()) {
      const auto now = sim_.engine.now();
      begin_session(now);
      if (selector_ && !waiting_response_) try_steal();
      return;
    }
    const TaskId id = ready_.back();
    ready_.pop_back();
    executing_ = true;

    // Gather inputs from wherever the predecessors ran; the slowest fetch
    // bounds the start (fetches overlap).
    const Task& task = sim_.dag->task(id);
    support::SimTime gather = 0;
    for (const TaskId p : task.predecessors) {
      const topo::Rank producer = sim_.completion_rank[p];
      DWS_DCHECK(sim_.remaining_preds[id] == 0);
      if (producer == rank_) continue;
      ++stats_.remote_inputs;
      gather = std::max(gather, sim_.latency->message_latency(
                                    producer, rank_,
                                    sim_.dag->task(p).payload_bytes));
    }
    stats_.total_gather_time += gather;

    sim_.engine.schedule_after(busy + gather + task.cost, *this,
                               sim::EventKind::kDagTaskComplete, rank_, id);
  }

  void complete(TaskId id) {
    executing_ = false;
    ++stats_.nodes_processed;
    sim_.completion_rank[id] = rank_;
    for (const TaskId s : sim_.dag->task(id).successors) {
      DWS_CHECK(sim_.remaining_preds[s] > 0);
      if (--sim_.remaining_preds[s] == 0) ready_.push_back(s);
    }
    if (++sim_.completed == sim_.dag->task_count()) {
      sim_.finish_time = sim_.engine.now();
      sim_.engine.stop();
      return;
    }
    next_task();
  }

  support::SimTime drain_inbox() {
    support::SimTime busy = 0;
    for (std::size_t i = 0; i < inbox_.size(); ++i) {
      if (done_) break;
      Message msg = std::move(inbox_[i]);
      if (const auto* req = std::get_if<StealRequest>(&msg)) {
        busy += sim_.config->steal_handling_cost;
        serve_steal(*req);
      } else {
        handle(std::move(msg));
      }
    }
    inbox_.clear();
    return busy;
  }

  void handle(Message msg) {
    if (const auto* req = std::get_if<StealRequest>(&msg)) {
      serve_steal(*req);
      return;
    }
    auto& resp = std::get<StealResponse>(msg);
    DWS_CHECK(waiting_response_);
    waiting_response_ = false;
    stats_.total_search_time += sim_.engine.now() - request_sent_;
    if (resp.tasks.empty()) {
      ++stats_.failed_steals;
      if (!executing_ && !done_) try_steal();
      return;
    }
    ++stats_.successful_steals;
    stats_.chunks_received += resp.tasks.size();
    stats_.steal_distance_sum +=
        sim_.latency->euclidean(rank_, request_victim_);
    for (const TaskId t : resp.tasks) ready_.push_back(t);
    if (!executing_ && !in_boundary_) activate(sim_.engine.now());
  }

  void serve_steal(const StealRequest& req) {
    ++stats_.requests_served;
    StealResponse resp;
    // Keep at least one task for ourselves; ship half of the rest, oldest
    // first (they sit deepest in the dependency frontier).
    if (ready_.size() >= 2) {
      const std::size_t k = std::max<std::size_t>(1, (ready_.size() - 1) / 2);
      resp.tasks.assign(ready_.begin(),
                        ready_.begin() + static_cast<std::ptrdiff_t>(k));
      ready_.erase(ready_.begin(), ready_.begin() + static_cast<std::ptrdiff_t>(k));
      stats_.chunks_sent += k;
    }
    const auto bytes =
        sim_.config->descriptor_bytes *
        static_cast<std::uint32_t>(std::max<std::size_t>(resp.tasks.size(), 1));
    sim_.network->send(rank_, req.thief, std::move(resp), bytes);
  }

  void try_steal() {
    DWS_CHECK(!waiting_response_);
    const topo::Rank victim = selector_->next();
    ++stats_.steal_attempts;
    waiting_response_ = true;
    request_sent_ = sim_.engine.now();
    request_victim_ = victim;
    sim_.network->send(rank_, victim, StealRequest{rank_},
                       sim_.config->steal_request_bytes);
  }

  topo::Rank rank_;
  DagSim& sim_;
  std::deque<TaskId> ready_;
  std::unique_ptr<proto::VictimSelector> selector_;
  std::vector<Message> inbox_;
  bool executing_ = false;
  bool waiting_response_ = false;
  bool done_ = false;
  bool session_open_ = false;
  bool in_boundary_ = false;
  support::SimTime session_start_ = 0;
  support::SimTime request_sent_ = 0;
  topo::Rank request_victim_ = 0;
  metrics::RankStats stats_;
  metrics::RankTrace trace_;
};

void DeliverToDagWorkers::operator()(topo::Rank dst, Message msg) const {
  (*workers)[dst]->on_message(std::move(msg));
}

}  // namespace

DagRunResult run_dag_simulation(const Dag& dag, const DagRunConfig& config) {
  DWS_CHECK(config.num_ranks >= 1);

  DagSim sim;
  sim.dag = &dag;
  sim.config = &config;
  sim.layout = std::make_unique<topo::JobLayout>(
      config.machine, config.num_ranks, config.placement,
      config.procs_per_node, config.origin_cube);
  sim.latency = std::make_unique<topo::LatencyModel>(*sim.layout, config.latency);

  sim.remaining_preds.resize(dag.task_count());
  sim.completion_rank.assign(dag.task_count(), 0);
  for (TaskId id = 0; id < dag.task_count(); ++id) {
    sim.remaining_preds[id] =
        static_cast<std::uint32_t>(dag.task(id).predecessors.size());
  }

  std::vector<std::unique_ptr<DagWorker>> workers;
  workers.reserve(config.num_ranks);
  sim.network = std::make_unique<DagNetwork>(
      sim.engine, *sim.latency, DeliverToDagWorkers{&workers},
      config.congestion);

  for (topo::Rank r = 0; r < config.num_ranks; ++r) {
    workers.push_back(std::make_unique<DagWorker>(r, sim));
  }
  // All sources start on rank 0, like UTS's root — distribution is the
  // scheduler's problem.
  for (const TaskId s : dag.sources()) workers[0]->seed_task(s);

  for (topo::Rank r = 0; r < config.num_ranks; ++r) {
    sim.engine.schedule_at(0, *workers[r], sim::EventKind::kDagStart, r);
  }
  sim.engine.run();

  DWS_CHECK(sim.completed == dag.task_count());
  for (auto& w : workers) w->finish_all(sim.finish_time);

  DagRunResult result;
  result.runtime = sim.finish_time;
  result.total_cost = dag.total_cost();
  result.critical_path = dag.critical_path();
  result.per_rank.reserve(config.num_ranks);
  support::SimTime gather_total = 0;
  for (const auto& w : workers) {
    result.tasks_executed += w->stats().nodes_processed;
    gather_total += w->stats().total_gather_time;
    result.remote_inputs += w->stats().remote_inputs;
    result.per_rank.push_back(w->stats());
  }
  DWS_CHECK(result.tasks_executed == dag.task_count());
  result.stats = metrics::aggregate(result.per_rank);
  result.network = sim.network->stats();
  result.mean_gather_ms =
      result.tasks_executed > 0
          ? support::to_millis(gather_total) /
                static_cast<double>(result.tasks_executed)
          : 0.0;
  if (config.record_trace) {
    result.trace.total_time = sim.finish_time;
    for (const auto& w : workers) result.trace.ranks.push_back(w->trace());
  }
  return result;
}

}  // namespace dws::dag
