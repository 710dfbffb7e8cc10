#pragma once

#include "proto/observer.hpp"
#include "ws/scheduler.hpp"

/// dws::rt — the native shared-memory work-stealing runtime (DESIGN.md §11).
///
/// One OS thread per rank, each running the exact proto::Peer state machine
/// the simulator runs, with steal traffic flowing over per-rank MPSC
/// channels (tasking-2.0 style: work stacks stay private to their owner;
/// every cross-thread interaction is a message). The clock is a shared
/// steady_clock epoch, so RunResult::runtime is measured wall-clock
/// nanoseconds, directly comparable to the simulator's virtual-time
/// prediction for the same RunConfig (bench/sim_vs_rt).
namespace dws::rt {

/// Execute one UTS work-stealing run on real threads. Accepts the same
/// RunConfig as ws::run_simulation — tree, chunking, victim policy, idle
/// policy, steal/token timeouts — and produces the same RunResult shape:
/// per-rank RankStats, activity traces, message counts, and the paper's
/// speedup/efficiency derivations (with per_node_cost set to the *measured*
/// mean expansion cost, so efficiency() reflects real scaling).
///
/// config.validate() rules apply; in addition fault injection and one-sided
/// steals are rejected (simulator-only). The observer seam is identical to
/// the simulator's — hooks fire from rank threads, serialized through an
/// internal mutex, so dws::audit's conservation ledger works unchanged on
/// real runs. Unlike the simulator, results are NOT bit-reproducible: real
/// scheduling decides steal interleavings (victim *sequences* still come
/// from the same seeded selectors).
ws::RunResult run_native(const ws::RunConfig& config,
                         proto::RunObserver* observer = nullptr);

}  // namespace dws::rt
