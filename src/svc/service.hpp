#pragma once

#include "ws/scheduler.hpp"

namespace dws::svc {

/// Execute a multi-tenant service run (DESIGN.md §13): a stream of UTS jobs
/// arriving over virtual time (config.svc), sharing config.num_ranks ranks
/// under the configured allocation policy, each job running the unmodified
/// proto::Peer steal protocol over its own job-local rank ring with its own
/// Mattern termination token. Requires config.svc.enabled (single-job
/// configs run ws::run_simulation; the dispatch lives in exp::run_backend /
/// audit::checked_run).
///
/// Deterministic: equal configs produce bit-identical RunResults, at any
/// sim_shards count (the differential suite pins byte-identity at shards
/// {1, 2, 4, 8}). RunResult::jobs carries one JobOutcome per job in id
/// order; runtime is the last job's finish time; traces are never recorded.
/// Aborts (DWS_CHECK) on conservation violations: a job worker left
/// unterminated, stacks or pending buffers non-empty, or a job whose chunks
/// sent != chunks received across its workers.
ws::RunResult run_service(const ws::RunConfig& config);

/// run_service plus the per-job work-conservation oracle: every job's node
/// and leaf totals must equal its tree's sequential enumeration — the svc
/// twin of the audit harness's sequential oracle, covering elastic lease
/// grow/shrink hand-offs.
ws::RunResult checked_service_run(const ws::RunConfig& config);

}  // namespace dws::svc
