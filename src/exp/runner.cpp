#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>
#include <stdexcept>
#include <thread>

#include "audit/audit.hpp"
#include "rt/runtime.hpp"
#include "support/check.hpp"
#include "svc/service.hpp"

namespace dws::exp {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Thrown (via the support check handler) when a simulation violates an
/// invariant while a sweep is running, instead of aborting the process.
struct CheckFailure : std::runtime_error {
  using std::runtime_error::runtime_error;
};

[[noreturn]] void throwing_check_handler(const char* expr, const char* file,
                                         int line) {
  throw CheckFailure(std::string("DWS_CHECK failed: ") + expr + " at " + file +
                     ":" + std::to_string(line));
}

class ScopedCheckHandler {
 public:
  ScopedCheckHandler()
      : previous_(support::set_check_handler(&throwing_check_handler)) {}
  ~ScopedCheckHandler() { support::set_check_handler(previous_); }
  ScopedCheckHandler(const ScopedCheckHandler&) = delete;
  ScopedCheckHandler& operator=(const ScopedCheckHandler&) = delete;

 private:
  support::CheckHandler previous_;
};

}  // namespace

ws::RunResult run_backend(const ws::RunConfig& config) {
  // Service configs run the scheduler-as-a-service layer; validate() already
  // pinned them to the simulator backend (svc + rt is rejected).
  if (config.svc.enabled) return svc::run_service(config);
  return config.backend == ws::Backend::kRt ? rt::run_native(config)
                                            : ws::run_simulation(config);
}

SweepRunner::SweepRunner(RunnerOptions options) : options_(std::move(options)) {
  if (!options_.run) {
    // DWS_AUDIT=1 swaps in the fully audited run: every point replays the
    // dws::audit conservation ledger, and a violation fails the point (the
    // throw lands in the same catch as a DWS_CHECK failure). Sampled once
    // per runner so a sweep is all-audited or not at all. Both paths honour
    // RunConfig::backend.
    if (audit::env_enabled()) {
      options_.run = [](const ws::RunConfig& cfg) {
        return audit::checked_run(cfg);
      };
    } else {
      options_.run = [](const ws::RunConfig& cfg) { return run_backend(cfg); };
    }
  }
}

unsigned SweepRunner::threads_for(std::size_t num_points) const {
  unsigned t = options_.threads != 0 ? options_.threads
                                     : std::thread::hardware_concurrency();
  t = std::max(1u, t);
  return static_cast<unsigned>(
      std::min<std::size_t>(t, std::max<std::size_t>(num_points, 1)));
}

SweepReport SweepRunner::run(const SweepSpec& spec) const {
  auto expanded = spec.expand();
  if (!expanded) {
    SweepReport report;
    report.cancelled = true;
    PointResult failure;
    failure.error = expanded.error();
    report.points.push_back(std::move(failure));
    return report;
  }
  return run(expanded.value());
}

SweepReport SweepRunner::run(const std::vector<SweepPoint>& points) const {
  const auto sweep_start = Clock::now();
  const std::size_t n = points.size();

  SweepReport report;
  report.points.resize(n);
  for (std::size_t i = 0; i < n; ++i) report.points[i].index = points[i].index;
  if (n == 0) return report;

  // Validate everything before burning CPU: an invalid point fails the
  // sweep up front and nothing runs.
  bool invalid = false;
  for (std::size_t i = 0; i < n; ++i) {
    if (const auto status = points[i].config.validate(); !status) {
      report.points[i].error =
          "invalid config (" + points[i].label() + "): " + status.message();
      invalid = true;
    }
  }
  if (invalid) {
    for (PointResult& p : report.points) {
      if (p.error.empty()) {
        p.skipped = true;
        p.error = "skipped: sweep cancelled";
      }
    }
    report.cancelled = true;
    report.wall_seconds = seconds_since(sweep_start);
    return report;
  }

  ScopedCheckHandler scoped_handler;
  std::atomic<std::size_t> next{0};
  std::atomic<std::size_t> done{0};
  // Index of a failed point (n: none). Points are claimed in index order, so
  // every later claim lies past it and is skipped, while a point before the
  // lowest failing one never is, whatever the thread timing.
  std::atomic<std::size_t> failed_at{n};
  std::mutex progress_mutex;

  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= n) return;
      PointResult& out = report.points[i];
      if (i > failed_at.load()) {
        out.skipped = true;
        out.error = "skipped: sweep cancelled";
        continue;
      }
      const auto t0 = Clock::now();
      try {
        out.result = options_.run(points[i].config);
        out.ok = true;
      } catch (const std::exception& e) {
        out.error = e.what();
        failed_at.store(i);
      }
      out.wall_seconds = seconds_since(t0);
      const std::size_t completed = done.fetch_add(1) + 1;
      if (options_.progress) {
        const double elapsed = seconds_since(sweep_start);
        const double eta =
            elapsed / static_cast<double>(completed) *
            static_cast<double>(n - completed);
        std::lock_guard<std::mutex> lock(progress_mutex);
        std::fprintf(stderr,
                     "  [sweep] %3zu/%zu  %-40s %6.1fs  elapsed %5.1fs  "
                     "eta %5.1fs%s\n",
                     completed, n, points[i].label().c_str(), out.wall_seconds,
                     elapsed, eta, out.ok ? "" : "  FAILED");
      }
    }
  };

  const unsigned num_threads = threads_for(n);
  if (num_threads <= 1) {
    work();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(num_threads);
    for (unsigned t = 0; t < num_threads; ++t) pool.emplace_back(work);
    for (std::thread& t : pool) t.join();
  }

  report.cancelled = failed_at.load() < n;
  report.wall_seconds = seconds_since(sweep_start);
  return report;
}

}  // namespace dws::exp
