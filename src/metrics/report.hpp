#pragma once

#include <string>
#include <vector>

#include "metrics/imbalance.hpp"
#include "metrics/rank_stats.hpp"
#include "metrics/trace.hpp"
#include "support/sim_time.hpp"

namespace dws::metrics {

/// Everything needed to render a human-readable run summary, decoupled from
/// the scheduler types: a caller copies in the per-rank counters it has
/// (`ws::RunResult` carries all of them).
struct ReportInput {
  std::string title;
  std::uint32_t num_ranks = 0;
  support::SimTime runtime = 0;
  support::SimTime sequential_time = 0;
  std::vector<RankStats> per_rank;
  const JobTrace* trace = nullptr;  ///< optional; enables the occupancy block
};

/// Multi-section plain-text report: timing/speedup, steal statistics,
/// work-discovery sessions, load imbalance, and (when a trace is present)
/// the occupancy summary with SL/EL at standard levels. Handy for quick
/// copies into lab notes.
std::string render_report(const ReportInput& input);

}  // namespace dws::metrics
