#include "exp/runner.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "exp/record.hpp"
#include "exp/sweep.hpp"
#include "support/check.hpp"
#include "uts/params.hpp"

namespace dws::exp {
namespace {

ws::RunConfig base_config() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 4;
  return cfg;
}

/// The determinism contract from the header: records of a sweep are a pure
/// function of the spec, so 8 worker threads must produce byte-identical
/// output to 1 (wall-clock columns dropped — they are host noise).
std::string records_with_threads(const SweepSpec& spec, unsigned threads) {
  RunnerOptions options;
  options.threads = threads;
  options.progress = false;
  const auto expanded = spec.expand();
  EXPECT_TRUE(expanded);
  const SweepReport report = SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.all_ok());
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(expanded.value(), report);
  return out.str();
}

TEST(SweepRunner, ParallelRunIsByteIdenticalToSerial) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4})).axis(seed_axis(1, 8));  // 16 points
  ASSERT_EQ(spec.num_points(), 16u);
  const std::string serial = records_with_threads(spec, 1);
  const std::string parallel = records_with_threads(spec, 8);
  EXPECT_EQ(serial, parallel);
  // Sanity: a meta line plus one record per point actually got written.
  EXPECT_EQ(static_cast<std::size_t>(
                std::count(serial.begin(), serial.end(), '\n')),
            17u);
}

TEST(SweepRunner, ResultsAreKeyedByPointIndex) {
  SweepSpec spec(base_config());
  spec.axis(seed_axis(1, 12));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  RunnerOptions options;
  options.progress = false;
  options.threads = 4;
  options.run = [](const ws::RunConfig& cfg) {
    ws::RunResult r;
    r.nodes = cfg.ws.seed;  // marker: result carries its own point's config
    return r;
  };
  const SweepReport report = SweepRunner(options).run(expanded.value());
  ASSERT_EQ(report.points.size(), 12u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(report.points[i].index, i);
    EXPECT_EQ(report.points[i].result.nodes, i + 1);
  }
}

TEST(SweepRunner, CheckFailureCancelsTheSweep) {
  SweepSpec spec(base_config());
  spec.axis(seed_axis(1, 6));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  RunnerOptions options;
  options.progress = false;
  options.threads = 1;  // deterministic: point 2 fails, 3..5 are skipped
  options.run = [](const ws::RunConfig& cfg) {
    DWS_CHECK(cfg.ws.seed != 3);
    return ws::RunResult{};
  };
  const SweepReport report = SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.all_ok());
  EXPECT_TRUE(report.points[0].ok);
  EXPECT_TRUE(report.points[1].ok);
  ASSERT_NE(report.first_failure(), nullptr);
  EXPECT_EQ(report.first_failure()->index, 2u);
  EXPECT_NE(report.points[2].error.find("DWS_CHECK"), std::string::npos)
      << report.points[2].error;
  for (std::size_t i = 3; i < 6; ++i) {
    EXPECT_TRUE(report.points[i].skipped) << "point " << i;
    EXPECT_FALSE(report.points[i].ok);
  }
}

TEST(SweepRunner, CheckHandlerIsRestoredAfterTheSweep) {
  SweepSpec spec(base_config());
  SweepRunner(RunnerOptions{1, false, [](const ws::RunConfig&) {
                              return ws::RunResult{};
                            }})
      .run(spec);
  // Outside a sweep the default handler (abort) must be back, or death
  // tests and real invariant violations would be swallowed.
  EXPECT_EQ(support::set_check_handler(nullptr), nullptr);
}

TEST(SweepRunner, InvalidPointFailsTheSweepBeforeAnythingRuns) {
  auto bad = base_config();
  bad.ws.chunk_size = 0;
  SweepSpec spec(bad);
  spec.axis(seed_axis(1, 4));
  const auto expanded = spec.expand();
  ASSERT_TRUE(expanded);
  std::atomic<int> runs{0};
  RunnerOptions options;
  options.progress = false;
  options.run = [&runs](const ws::RunConfig&) {
    ++runs;
    return ws::RunResult{};
  };
  const SweepReport report = SweepRunner(options).run(expanded.value());
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(runs.load(), 0);
  for (const PointResult& p : report.points) {
    EXPECT_FALSE(p.ok);
    EXPECT_FALSE(p.error.empty());
  }
  EXPECT_NE(report.points[0].error.find("chunk_size"), std::string::npos);
}

TEST(SweepRunner, MalformedSpecReportsExpansionError) {
  SweepSpec spec(base_config(), SweepMode::kZip);
  spec.axis(ranks_axis({2, 4})).axis(chunk_size_axis({1}));
  RunnerOptions options;
  options.progress = false;
  const SweepReport report = SweepRunner(options).run(spec);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.all_ok());
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_FALSE(report.points[0].error.empty());
}

TEST(SweepRunner, EmptyPointListIsAnEmptyReport) {
  RunnerOptions options;
  options.progress = false;
  const SweepReport report = SweepRunner(options).run(
      std::vector<SweepPoint>{});
  EXPECT_TRUE(report.points.empty());
  EXPECT_FALSE(report.all_ok());  // nothing ran, nothing to trust
  EXPECT_FALSE(report.cancelled);
}

/// Cancellation at several pool sizes: whatever the thread timing, the
/// lowest failing point runs and is the reported failure, every point before
/// it runs, and only points after it may be skipped.
class SweepRunnerThreads : public ::testing::TestWithParam<unsigned> {
 protected:
  /// Seeds 1..n; the run fails a DWS_CHECK for every seed in `failing`.
  SweepReport run_failing(std::uint64_t n,
                          std::vector<std::uint64_t> failing) const {
    SweepSpec spec(base_config());
    spec.axis(seed_axis(1, n));
    const auto expanded = spec.expand();
    EXPECT_TRUE(expanded);
    RunnerOptions options;
    options.progress = false;
    options.threads = GetParam();
    options.run = [failing](const ws::RunConfig& cfg) {
      DWS_CHECK(std::find(failing.begin(), failing.end(), cfg.ws.seed) ==
                failing.end());
      return ws::RunResult{};
    };
    return SweepRunner(options).run(expanded.value());
  }
};

TEST_P(SweepRunnerThreads, FirstFailureIsTheLowestFailingPoint) {
  const SweepReport report = run_failing(16, {5, 11});
  ASSERT_EQ(report.points.size(), 16u);
  EXPECT_TRUE(report.cancelled);
  ASSERT_NE(report.first_failure(), nullptr);
  EXPECT_EQ(report.first_failure()->index, 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_TRUE(report.points[i].ok) << "point " << i;
    EXPECT_FALSE(report.points[i].skipped) << "point " << i;
  }
  EXPECT_FALSE(report.points[4].skipped);
  for (const PointResult& p : report.points) {
    if (!p.skipped) continue;
    EXPECT_GT(p.index, 4u);
    EXPECT_FALSE(p.ok);
    EXPECT_EQ(p.error, "skipped: sweep cancelled");
  }
}

TEST_P(SweepRunnerThreads, FailureInTheLastPointSkipsNothing) {
  const SweepReport report = run_failing(6, {6});
  ASSERT_EQ(report.points.size(), 6u);
  EXPECT_TRUE(report.cancelled);
  EXPECT_FALSE(report.all_ok());
  ASSERT_NE(report.first_failure(), nullptr);
  EXPECT_EQ(report.first_failure()->index, 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(report.points[i].ok) << "point " << i;
  }
  for (const PointResult& p : report.points) EXPECT_FALSE(p.skipped);
}

INSTANTIATE_TEST_SUITE_P(Pool, SweepRunnerThreads,
                         ::testing::Values(1u, 2u, 4u, 8u));

}  // namespace
}  // namespace dws::exp
