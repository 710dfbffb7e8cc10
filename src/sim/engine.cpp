#include "sim/engine.hpp"

namespace dws::sim {

void Engine::execute(const Event& ev) {
  if (ev.time == prev_time_ && ev.t_sched == prev_t_sched_ &&
      ev.kind == prev_kind_ && ev.rank == prev_rank_ && ev.src == prev_src_ &&
      ev.origin != prev_origin_) {
    // A full structural-key tie across shards: the local-seq tiebreak picked
    // an order a serial run is not guaranteed to share. Structurally
    // impossible for the ws sharded core (see merge_ambiguities()), so any
    // count is a protocol bug — counted here, asserted zero downstream.
    ++merge_ambiguities_;
  }
  prev_time_ = ev.time;
  prev_t_sched_ = ev.t_sched;
  prev_kind_ = ev.kind;
  prev_rank_ = ev.rank;
  prev_src_ = ev.src;
  prev_origin_ = ev.origin;

  now_ = ev.time;
  ++executed_;
  ev.sink->on_event(ev);
}

bool Engine::step() {
  Event ev;
  if (!queue_.pop(ev)) return false;
  execute(ev);
  return true;
}

std::uint64_t Engine::run(std::uint64_t max_events) {
  std::uint64_t n = 0;
  while (n < max_events && step()) ++n;
  return n;
}

std::uint64_t Engine::run_until(support::SimTime limit) {
  std::uint64_t n = 0;
  while (!queue_.empty() && queue_.peek_time() < limit) {
    Event ev;
    queue_.pop(ev);
    execute(ev);
    ++n;
  }
  return n;
}

}  // namespace dws::sim
