#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "exp/sweep.hpp"
#include "ws/scheduler.hpp"

namespace dws::exp {

/// Outcome of one sweep point.
struct PointResult {
  std::size_t index = 0;
  bool ok = false;
  bool skipped = false;  ///< cancelled before it started
  std::string error;     ///< validation / DWS_CHECK message when !ok
  ws::RunResult result;  ///< valid only when ok
  double wall_seconds = 0.0;  ///< host time this point cost
};

/// Everything a sweep execution produced, results keyed by point index —
/// collection order is independent of which worker thread finished when, so
/// a parallel run is indistinguishable from the serial one (each simulation
/// is a pure function of its RunConfig).
struct SweepReport {
  std::vector<PointResult> points;
  bool cancelled = false;  ///< a point failed; later points were skipped
  double wall_seconds = 0.0;

  bool all_ok() const {
    for (const PointResult& p : points) {
      if (!p.ok) return false;
    }
    return !points.empty();
  }
  /// First failed (not skipped) point, if any.
  const PointResult* first_failure() const {
    for (const PointResult& p : points) {
      if (!p.ok && !p.skipped) return &p;
    }
    return nullptr;
  }
};

/// Dispatch one config to the engine its `backend` field names: the
/// discrete-event simulator (Backend::kSim, the default) or the native
/// thread-per-rank runtime (Backend::kRt). This is the only place outside
/// dws::audit that links the two engines together; ws itself never sees rt.
ws::RunResult run_backend(const ws::RunConfig& config);

struct RunnerOptions {
  /// Worker threads; 0 means hardware_concurrency (min 1). Simulator points
  /// are single-threaded and independent, so this is a pure fan-out over
  /// host cores. Backend::kRt points spawn num_ranks threads *each* — cap
  /// `threads` (usually to 1) when sweeping the native runtime.
  unsigned threads = 0;
  /// Live "done/total + ETA" lines on stderr as points complete.
  bool progress = true;
  /// The function executed per point. Defaults to run_backend — or, when the
  /// DWS_AUDIT environment variable is set, to audit::checked_run, which
  /// replays the dws::audit conservation ledger against every point and
  /// fails the point on any violation. Both honour RunConfig::backend.
  /// Tests substitute instrumented stand-ins.
  std::function<ws::RunResult(const ws::RunConfig&)> run;
};

/// Executes the points of a sweep on a thread pool.
///
/// Guarantees:
///  - results are keyed by point index and bit-identical to a 1-thread run
///    of the same spec (modulo PointResult::wall_seconds, which measures the
///    host, not the simulation);
///  - every config is validated (RunConfig::validate) before anything runs —
///    an invalid point fails the whole sweep up front;
///  - a DWS_CHECK failure inside a running simulation cancels the sweep: the
///    failing point records the message, queued points after it are marked
///    skipped, in-flight points finish. Points are claimed in index order,
///    so the lowest failing point always runs and first_failure() does not
///    depend on thread timing. The process survives (the runner scopes a
///    support check handler that throws instead of aborting).
class SweepRunner {
 public:
  explicit SweepRunner(RunnerOptions options = {});

  SweepReport run(const std::vector<SweepPoint>& points) const;
  /// Expands the spec first; expansion errors surface as a cancelled report
  /// with a single failed pseudo-point carrying the message.
  SweepReport run(const SweepSpec& spec) const;

  unsigned threads_for(std::size_t num_points) const;

 private:
  RunnerOptions options_;
};

}  // namespace dws::exp
