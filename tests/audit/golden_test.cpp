/// Committed-golden regression tests: record streams, run under the audit
/// observer (single-job points) or the service conservation oracle (service
/// points), must reproduce the files under tests/golden BYTE FOR BYTE.
///
///  - fig06_quick.jsonl was generated on the pre-refactor closure event core,
///    so it pins the typed event core (calendar queue, slab pools, EventSink
///    dispatch) to the exact (time, seq) schedule — and with it every
///    counter, trace, and metric — of the original engine. It was cut at
///    schema v1 and rewritten once at the current schema: a format-only
///    change that kept every v1 field of its 8 records equal.
///  - executor_quick.jsonl pins the per-rank executor paths fig06 leaves
///    untouched: one-sided steals, lifelines, adaptive selection and amount
///    switching under the full fault model, and the service layer's
///    space-shared, elastic time-shared and faulted streams.
///  - executor_quick.csv is the same sweep in the CSV wire format, which
///    pins the CSV bytes too, job rows' zero-filled cells included.
///
/// Every golden is written at the current schema.
///
/// To regenerate after an *intentional* semantic change, run this binary
/// with DWS_UPDATE_GOLDEN=1 in the environment and commit the diff with an
/// explanation of why the schedule legitimately changed.
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "audit/audit.hpp"
#include "exp/figures.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "svc/params.hpp"
#include "uts/params.hpp"

#ifndef DWS_GOLDEN_DIR
#error "DWS_GOLDEN_DIR must point at tests/golden (set by tests/audit/CMakeLists.txt)"
#endif

namespace dws::audit {
namespace {

std::string golden_path(const std::string& name) {
  return std::string(DWS_GOLDEN_DIR) + "/" + name;
}

/// A sweep run serially through checked_run.
struct Sweep {
  std::vector<exp::SweepPoint> points;
  exp::SweepReport report;
};

Sweep run_sweep(std::vector<exp::SweepPoint> points) {
  exp::RunnerOptions options;
  options.threads = 1;  // serial: the goldens were generated serially
  options.progress = false;
  options.run = [](const ws::RunConfig& cfg) { return checked_run(cfg); };
  exp::SweepReport report = exp::SweepRunner(options).run(points);
  EXPECT_TRUE(report.all_ok());
  return Sweep{std::move(points), std::move(report)};
}

/// Every record of `sweep` in `format`, without host wall-clock.
std::string render_records(const Sweep& sweep, exp::RecordFormat format) {
  std::ostringstream out;
  exp::RecordWriter writer(out, exp::RecordOptions{format,
                                                   /*wall_clock=*/false});
  writer.write_report(sweep.points, sweep.report);
  return out.str();
}

/// The fig06 --quick sweep: SIM200K, ranks {128, 256}, the paper's four
/// series, chunk 4, congestion on. Must match the generator exactly.
std::string fig06_records() {
  ws::RunConfig base;
  base.tree = uts::tree_by_name("SIM200K");
  base.ws.chunk_size = 4;
  base.enable_congestion(1.0);

  exp::SweepSpec spec(base);
  spec.axis(exp::ranks_axis({128, 256}))
      .axis(exp::series_axis({exp::make_series(exp::kReference, exp::kOneN),
                              exp::make_series(exp::kRand, exp::kOneN),
                              exp::make_series(exp::kRand, exp::k8RR),
                              exp::make_series(exp::kRand, exp::k8G)}));
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);
  return render_records(run_sweep(expanded.value()), exp::RecordFormat::kJsonl);
}

/// The executor points: TEST_BIN_SMALL at 64 ranks, one config each.
std::vector<exp::SweepPoint> executor_points() {
  ws::RunConfig base;
  base.tree = uts::tree_by_name("TEST_BIN_SMALL");
  base.num_ranks = 64;
  base.ws.chunk_size = 4;

  auto faulted = [](ws::RunConfig cfg) {
    cfg.fault.drop_prob = 0.02;
    cfg.fault.dup_prob = 0.02;
    cfg.fault.jitter_frac = 0.3;
    cfg.fault.straggler_ranks = 2;
    cfg.fault.pause_ranks = 2;
    cfg.fault.pause_duration = 50'000;
    cfg.fault.pause_window = 200'000;
    cfg.fault.seed = 5;
    cfg.ws.steal_timeout = 50'000;
    cfg.ws.token_timeout = 2'000'000;
    return cfg;
  };

  std::vector<ws::RunConfig> configs;
  {
    ws::RunConfig cfg = base;
    cfg.ws.one_sided_steals = true;
    configs.push_back(cfg);
  }
  {
    ws::RunConfig cfg = base;
    cfg.ws.idle_policy = ws::IdlePolicy::kLifeline;
    configs.push_back(cfg);
  }
  {
    ws::RunConfig cfg = faulted(base);
    cfg.ws.victim_policy = ws::VictimPolicy::kAdaptive;
    cfg.ws.steal_amount = ws::StealAmount::kHalf;
    cfg.ws.adaptive_steal_amount = true;
    configs.push_back(cfg);
  }

  // The three ServiceShard streams (tests/audit/service_shard_test.cpp).
  ws::RunConfig stream = base;
  stream.svc.enabled = true;
  stream.svc.seed = 4;
  {
    ws::RunConfig cfg = stream;
    cfg.svc.arrival = svc::ArrivalKind::kPoisson;
    cfg.svc.num_jobs = 6;
    cfg.svc.mean_interarrival = 300'000;
    cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
    cfg.svc.ranks_per_job = 16;
    configs.push_back(cfg);
  }
  {
    ws::RunConfig cfg = stream;
    cfg.svc.arrival = svc::ArrivalKind::kTrace;
    cfg.svc.trace = {0, 200'000, 400'000, 600'000, 800'000, 1'000'000};
    cfg.svc.alloc = svc::AllocPolicy::kTimeShare;
    configs.push_back(cfg);
  }
  {
    ws::RunConfig cfg = faulted(stream);
    cfg.svc.arrival = svc::ArrivalKind::kPoisson;
    cfg.svc.num_jobs = 4;
    cfg.svc.mean_interarrival = 400'000;
    cfg.svc.alloc = svc::AllocPolicy::kSpaceShare;
    cfg.svc.ranks_per_job = 32;
    configs.push_back(cfg);
  }

  std::vector<exp::SweepPoint> points;
  for (const ws::RunConfig& cfg : configs) {
    points.push_back(exp::SweepPoint{points.size(), {}, cfg});
  }
  return points;
}

/// The executor sweep, run once per process and shared by both wire
/// formats' goldens.
const Sweep& executor_sweep() {
  static const Sweep sweep = run_sweep(executor_points());
  return sweep;
}

/// Compares `generated` with the committed golden `name`, or rewrites the
/// golden under DWS_UPDATE_GOLDEN.
void expect_matches_golden(const std::string& name,
                           const std::string& generated) {
  ASSERT_FALSE(generated.empty());
  const std::string path = golden_path(name);

  if (std::getenv("DWS_UPDATE_GOLDEN") != nullptr) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.is_open()) << "cannot write " << path;
    out << generated;
    GTEST_SKIP() << "regenerated " << path;
  }

  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.is_open())
      << "missing " << path << " (run with DWS_UPDATE_GOLDEN=1 to create it)";
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string expected = buf.str();

  ASSERT_EQ(generated.size(), expected.size())
      << "record stream length changed — the event schedule is no longer "
         "identical to the committed golden";
  // Byte compare with a readable first-divergence report.
  if (generated != expected) {
    std::size_t line = 1, col = 1;
    for (std::size_t i = 0; i < generated.size(); ++i) {
      if (generated[i] != expected[i]) break;
      if (generated[i] == '\n') {
        ++line;
        col = 1;
      } else {
        ++col;
      }
    }
    FAIL() << "golden mismatch first diverges at line " << line << ", column "
           << col;
  }
}

TEST(GoldenFile, Fig06QuickIsByteIdenticalUnderAudit) {
  expect_matches_golden("fig06_quick.jsonl", fig06_records());
}

TEST(GoldenFile, ExecutorQuickIsByteIdenticalUnderAudit) {
  expect_matches_golden("executor_quick.jsonl",
                        render_records(executor_sweep(),
                                       exp::RecordFormat::kJsonl));
}

TEST(GoldenFile, ExecutorQuickCsvIsByteIdentical) {
  expect_matches_golden("executor_quick.csv",
                        render_records(executor_sweep(),
                                       exp::RecordFormat::kCsv));
}

}  // namespace
}  // namespace dws::audit
