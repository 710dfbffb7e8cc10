#include "metrics/rank_stats.hpp"

#include <algorithm>

#include "support/check.hpp"

namespace dws::metrics {

// Every RankStats field is 8 bytes wide; a new one must join accumulate().
static_assert(sizeof(RankStats) == 20 * 8,
              "RankStats gained or lost a field: update accumulate()");

void accumulate(RankStats& into, const RankStats& s) {
  into.nodes_processed += s.nodes_processed;
  into.leaves_seen += s.leaves_seen;
  into.steal_attempts += s.steal_attempts;
  into.failed_steals += s.failed_steals;
  into.successful_steals += s.successful_steals;
  into.requests_served += s.requests_served;
  into.chunks_sent += s.chunks_sent;
  into.chunks_received += s.chunks_received;
  into.steal_timeouts += s.steal_timeouts;
  into.steal_retries += s.steal_retries;
  into.duplicate_responses += s.duplicate_responses;
  into.token_regens += s.token_regens;
  into.amount_switches += s.amount_switches;
  into.steal_distance_sum += s.steal_distance_sum;
  into.lifeline_registrations += s.lifeline_registrations;
  into.lifeline_pushes += s.lifeline_pushes;
  into.sessions += s.sessions;
  into.total_session_time += s.total_session_time;
  into.total_search_time += s.total_search_time;
  into.finish_time = std::max(into.finish_time, s.finish_time);
}

JobStats aggregate(const std::vector<RankStats>& per_rank) {
  DWS_CHECK(!per_rank.empty());
  JobStats job;
  support::SimTime session_time = 0;
  double search_total = 0.0;
  double distance_total = 0.0;
  for (const auto& r : per_rank) {
    job.nodes_processed += r.nodes_processed;
    job.steal_attempts += r.steal_attempts;
    job.failed_steals += r.failed_steals;
    job.successful_steals += r.successful_steals;
    job.chunks_sent += r.chunks_sent;
    job.steal_timeouts += r.steal_timeouts;
    job.steal_retries += r.steal_retries;
    job.duplicate_responses += r.duplicate_responses;
    job.token_regens += r.token_regens;
    job.amount_switches += r.amount_switches;
    job.sessions += r.sessions;
    distance_total += r.steal_distance_sum;
    session_time += r.total_session_time;
    const double search_s = support::to_seconds(r.total_search_time);
    search_total += search_s;
    job.max_search_time_s = std::max(job.max_search_time_s, search_s);
  }
  job.mean_session_ms =
      job.sessions > 0
          ? support::to_millis(session_time) / static_cast<double>(job.sessions)
          : 0.0;
  job.mean_search_time_s = search_total / static_cast<double>(per_rank.size());
  job.mean_steal_distance =
      job.successful_steals > 0
          ? distance_total / static_cast<double>(job.successful_steals)
          : 0.0;
  return job;
}

}  // namespace dws::metrics
