#pragma once

#include <cstdint>
#include <vector>

#include "fault/fault.hpp"
#include "metrics/rank_stats.hpp"
#include "metrics/service_stats.hpp"
#include "metrics/trace.hpp"
#include "sim/network.hpp"
#include "support/expected.hpp"
#include "svc/params.hpp"
#include "topo/allocation.hpp"
#include "topo/latency.hpp"
#include "topo/tofu.hpp"
#include "uts/params.hpp"
#include "ws/config.hpp"

namespace dws::ws {

/// Which engine executes a RunConfig: the discrete-event simulator (ws) or
/// the native thread-per-rank runtime (rt::run_native). Both speak the same
/// proto::Peer protocol; the backend picks the transport and the clock
/// (DESIGN.md §11). Dispatch lives above this layer (exp::run_backend /
/// audit) so ws itself never links rt.
enum class Backend {
  kSim,  ///< deterministic virtual-time simulation (run_simulation)
  kRt,   ///< real threads, real UTS work, wall-clock time (rt::run_native)
};

const char* to_string(Backend b);

/// Everything identifying one UTS work-stealing execution: the tree, the
/// scheduler knobs, and the machine/job geometry.
struct RunConfig {
  uts::TreeParams tree;
  WsConfig ws;

  topo::TofuMachine machine;  // defaults to the K Computer
  topo::Rank num_ranks = 2;
  topo::Placement placement = topo::Placement::kOnePerNode;
  std::uint32_t procs_per_node = 1;
  std::uint32_t origin_cube = 0;
  topo::LatencyParams latency;
  sim::CongestionParams congestion;

  /// Fault/perturbation model (DESIGN.md §10). Defaults to no faults; when
  /// any knob is active, run_simulation attaches a fault::Injector to the
  /// network and workers. validate() requires the protocol-recovery knobs
  /// (ws.steal_timeout, ws.token_timeout) whenever messages can be lost.
  fault::FaultConfig fault;

  /// Which engine runs this config (sweep axes flip it; the simulator is
  /// the default and fingerprint-neutral choice). run_simulation ignores it
  /// — callers route through exp::run_backend or audit::checked_run.
  Backend backend = Backend::kSim;

  /// Multi-tenant service layer (DESIGN.md §13): when enabled, the run is a
  /// *stream* of jobs arriving over virtual time and sharing the rank pool,
  /// executed by svc::run_service instead of run_simulation (the dispatch
  /// lives in exp::run_backend / audit::checked_run, like `backend`). The
  /// single-job path is the degenerate case and is completely untouched —
  /// svc.enabled==false keeps every golden byte-identical.
  svc::ServiceParams svc;

  /// Shard count for the conservative-parallel simulator core (DESIGN.md
  /// §12): 1 (the default) runs the classic single-engine path; N > 1
  /// partitions the ranks over N engines advancing on real threads under
  /// barrier-synchronized lookahead windows. This is execution strategy, not
  /// simulation identity — results, records and fingerprints are invariant
  /// in the shard count (the differential suite enforces byte-identity), so
  /// sim_shards is excluded from exp::canonical_config. The effective count
  /// is capped at the job's node count. Fault injection (per-channel draw
  /// keying) and congestion (windowed shared ledger) compose with sharding;
  /// validate() rejects the combinations the sharded core cannot split
  /// (backend=rt, zero-latency cross-node tiers).
  std::uint32_t sim_shards = 1;

  /// > 0 once enable_congestion(scale) was called: run_congestion() then
  /// re-anchors capacity_hops to the *current* ranks/procs at run time, so a
  /// sweep axis that changes num_ranks after the call gets the right capacity.
  double congestion_scale = 0.0;

  /// Enable the fluid congestion model with capacity anchored to the job's
  /// allocation size (~5 usable links per compute node in the 6D torus).
  /// `scale` > 1 models a fatter network, < 1 a more contended one.
  void enable_congestion(double scale = 1.0) {
    congestion_scale = scale;
    congestion.enabled = true;
    congestion.capacity_hops = anchored_capacity_hops(scale);
  }

  /// The congestion model a run executes: `congestion`, with capacity_hops
  /// re-anchored to the current allocation when enable_congestion(scale)
  /// asked for a scale of it.
  sim::CongestionParams run_congestion() const {
    sim::CongestionParams resolved = congestion;
    if (resolved.enabled && congestion_scale > 0.0) {
      resolved.capacity_hops = anchored_capacity_hops(congestion_scale);
    }
    return resolved;
  }

  /// Checks everything run_simulation would otherwise abort on mid-run via
  /// DWS_CHECK (plus a few cheap sanity screens): rank/placement mismatch,
  /// zero chunk size, zero alias-table threshold, out-of-machine origin,
  /// supercritical binomial trees, ... Returns the first problem found.
  support::Status validate() const;

 private:
  double anchored_capacity_hops(double scale) const {
    return scale * 5.0 * static_cast<double>(num_ranks / procs_per_node);
  }
};

/// Results of one run: timings, the paper's metrics inputs, and everything
/// the bench harness prints.
struct RunResult {
  support::SimTime runtime = 0;  ///< T: virtual time until global termination
  std::uint64_t nodes = 0;       ///< total tree nodes processed (oracle value)
  std::uint64_t leaves = 0;
  topo::Rank num_ranks = 0;      ///< ranks of the run that produced this

  metrics::JobStats stats;                    ///< aggregated counters
  std::vector<metrics::RankStats> per_rank;   ///< raw per-rank counters
  metrics::JobTrace trace;                    ///< activity trace (if recorded)
  sim::NetworkStats network;
  /// What the fault injector actually did (all zero without faults).
  fault::FaultStats faults;
  std::uint64_t engine_events = 0;
  /// High-water mark of the engine's pending-event queue (calendar depth;
  /// the max over shard engines in a sharded run). Diagnostic only: unlike
  /// every field above it this depends on the execution strategy, which is
  /// why records do not carry it.
  std::uint64_t engine_peak_pending = 0;
  /// Shard count the run actually executed with (partitioning caps the
  /// requested sim_shards at the node count).
  std::uint32_t shards_used = 1;
  /// Executed event pairs that tied on the full structural ordering key
  /// (time, t_sched, kind, rank, src) across different origin shards — see
  /// sim::Engine::merge_ambiguities. Structurally impossible by design;
  /// always 0 for single-engine runs and asserted 0 for sharded ones by the
  /// differential suite. Nonzero means a protocol bug.
  std::uint64_t merge_ambiguities = 0;

  support::SimTime per_node_cost = 0;  ///< ws.node_cost() used by the run

  /// Service runs only (svc.enabled): one outcome per job, in job-id order.
  /// `runtime` is then the finish time of the last job, `nodes`/`leaves`/
  /// `stats`/`per_rank` aggregate over the whole stream, and speedup()/
  /// efficiency() measure the stream as a whole.
  std::vector<metrics::JobOutcome> jobs;

  /// Virtual time a single process would need: nodes * per-node cost. This
  /// is the paper's extrapolated T(1) ("all single MPI process executions
  /// ... should have the same speed", §II-B).
  support::SimTime sequential_time() const noexcept {
    return static_cast<support::SimTime>(nodes) * per_node_cost;
  }
  double speedup() const noexcept {
    return runtime > 0 ? static_cast<double>(sequential_time()) /
                             static_cast<double>(runtime)
                       : 0.0;
  }
  double efficiency() const noexcept {
    return num_ranks > 0 ? speedup() / static_cast<double>(num_ranks) : 0.0;
  }
};

}  // namespace dws::ws

namespace dws::proto {
class RunObserver;
}

namespace dws::ws {

/// Execute one full UTS work-stealing run on the simulator. Deterministic:
/// equal RunConfigs produce bit-identical results — with or without an
/// `observer` attached (observers are passive; see proto/observer.hpp and the
/// dws::audit subsystem built on it). Aborts (DWS_CHECK) if the run violates
/// conservation — termination with unfinished work, lost chunks, or a worker
/// left in a non-terminated state.
RunResult run_simulation(const RunConfig& config,
                         proto::RunObserver* observer = nullptr);

}  // namespace dws::ws
