#pragma once

#include <cstdint>
#include <vector>

#include "support/sim_time.hpp"

namespace dws::metrics {

/// Per-rank scheduler counters, filled by the work-stealing worker. Mirrors
/// the statistics the UTS benchmark reports (plus a few of our own):
/// search time, failed steals, work-discovery sessions (§V-A of the paper).
struct RankStats {
  std::uint64_t nodes_processed = 0;
  std::uint64_t leaves_seen = 0;

  std::uint64_t steal_attempts = 0;     ///< requests sent (retries included)
  std::uint64_t failed_steals = 0;      ///< responses carrying no work
  std::uint64_t successful_steals = 0;  ///< responses carrying work
  std::uint64_t requests_served = 0;    ///< requests answered (either way)
  std::uint64_t chunks_sent = 0;
  std::uint64_t chunks_received = 0;

  /// Steal-protocol robustness counters (WsConfig::steal_timeout /
  /// token_timeout; DESIGN.md §10).
  std::uint64_t steal_timeouts = 0;       ///< requests abandoned by the timer
  std::uint64_t steal_retries = 0;        ///< same-victim re-sends
  std::uint64_t duplicate_responses = 0;  ///< network-duplicated answers dropped
  std::uint64_t token_regens = 0;         ///< rank 0: probes given up on

  /// Adaptive steal amount (WsConfig::adaptive_steal_amount): times this
  /// thief's half<->one preference flipped on the yield EWMA.
  std::uint64_t amount_switches = 0;

  /// Sum over *successful* steals of the 6D Euclidean distance to the
  /// victim — mean distance is direct evidence of where a victim-selection
  /// policy actually sends its traffic (near for Tofu, uniform for Rand).
  double steal_distance_sum = 0.0;

  /// Lifeline extension (IdlePolicy::kLifeline): times this rank went
  /// dormant on its lifelines / times it pushed work to a dependent.
  std::uint64_t lifeline_registrations = 0;
  std::uint64_t lifeline_pushes = 0;

  /// Work-discovery sessions: from work exhaustion until either work is in
  /// the queue again or the application terminates (paper §IV-B).
  std::uint64_t sessions = 0;
  support::SimTime total_session_time = 0;

  /// Time spent waiting for steal answers (UTS's "search time", Fig. 14).
  support::SimTime total_search_time = 0;

  support::SimTime finish_time = 0;  ///< when this rank learnt of termination
};

/// Field-wise accumulation of `s` into `into`: finish_time is a max (the
/// later termination), every other field a sum. The service layer folds a
/// rank's per-job counters into the rank's row with it.
void accumulate(RankStats& into, const RankStats& s);

/// Job-wide aggregation of per-rank counters.
struct JobStats {
  std::uint64_t nodes_processed = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t successful_steals = 0;
  std::uint64_t chunks_sent = 0;
  std::uint64_t steal_timeouts = 0;
  std::uint64_t steal_retries = 0;
  std::uint64_t duplicate_responses = 0;
  std::uint64_t token_regens = 0;
  std::uint64_t amount_switches = 0;
  std::uint64_t sessions = 0;
  double mean_session_ms = 0.0;       ///< avg duration of a discovery session
  double mean_search_time_s = 0.0;    ///< avg per-rank total search time
  double max_search_time_s = 0.0;
  double mean_steal_distance = 0.0;   ///< avg victim distance of ok steals
};

JobStats aggregate(const std::vector<RankStats>& per_rank);

}  // namespace dws::metrics
