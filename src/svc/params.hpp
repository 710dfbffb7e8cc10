#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "support/sim_time.hpp"
#include "topo/allocation.hpp"

/// Service-layer parameters (DESIGN.md §13). Header-only POD so that
/// ws::RunConfig can embed it (like fault::FaultConfig) without dws_ws
/// depending on the dws_svc library — the service *runtime* lives above ws
/// and depends on it, not the other way round.
namespace dws::svc {

using JobId = std::uint32_t;

/// How job arrival times are generated.
enum class ArrivalKind : std::uint8_t {
  kPoisson,  ///< exponential inter-arrivals with mean `mean_interarrival`
  kTrace,    ///< explicit absolute arrival times from `trace`
};

/// How the rank pool is shared between concurrent jobs.
enum class AllocPolicy : std::uint8_t {
  /// Space sharing: each job gets an exclusive, contiguous block of
  /// `ranks_per_job` ranks for its whole lifetime (first-fit lowest base);
  /// jobs queue FIFO when no block is free.
  kSpaceShare,
  /// Time sharing: every job binds to ALL ranks, but at any instant each
  /// rank is *leased* to exactly one active job. Leases are equal contiguous
  /// slices recomputed on every arrival/completion — a job's rank set grows
  /// and shrinks elastically mid-flight (parked ranks relinquish their work;
  /// see proto::Peer::set_parked/relinquish).
  kTimeShare,
};

/// One entry of the job-size mix: a tree from uts::catalogue() drawn with
/// probability weight/Σweights. An empty mix runs every job on the config's
/// own `tree`.
struct JobMixEntry {
  std::string tree;
  double weight = 1.0;
};

/// The service layer's knobs. `enabled == false` leaves every existing
/// single-job code path untouched (and out of config fingerprints).
struct ServiceParams {
  bool enabled = false;

  /// Root of all service-side randomness: arrival draws and the per-job RNG
  /// streams hash(seed, job_id) — NOT the arrival interleaving — so a job's
  /// tree shape is invariant under admission reordering.
  std::uint64_t seed = 1;

  std::uint32_t num_jobs = 0;

  ArrivalKind arrival = ArrivalKind::kPoisson;
  /// kPoisson: mean inter-arrival gap in virtual ns.
  support::SimTime mean_interarrival = 0;
  /// kTrace: absolute arrival times in virtual ns, one per job (num_jobs is
  /// taken from its size). Need not be sorted: job ids follow trace order,
  /// admission follows time order.
  std::vector<support::SimTime> trace;

  AllocPolicy alloc = AllocPolicy::kSpaceShare;
  /// kSpaceShare: exclusive block width per job (1..num_ranks, dividing the
  /// pool into num_ranks/ranks_per_job blocks).
  topo::Rank ranks_per_job = 0;

  std::vector<JobMixEntry> mix;
};

inline const char* to_string(ArrivalKind k) {
  switch (k) {
    case ArrivalKind::kPoisson: return "poisson";
    case ArrivalKind::kTrace: return "trace";
  }
  return "?";
}

inline const char* to_string(AllocPolicy p) {
  switch (p) {
    case AllocPolicy::kSpaceShare: return "space";
    case AllocPolicy::kTimeShare: return "time";
  }
  return "?";
}

}  // namespace dws::svc
