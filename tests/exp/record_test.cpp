#include "exp/record.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "uts/params.hpp"

namespace dws::exp {
namespace {

ws::RunConfig base_config() {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name("TEST_BIN_SMALL");
  cfg.num_ranks = 8;
  return cfg;
}

TEST(ConfigFingerprint, IsStableAndTwelveHexChars) {
  const auto cfg = base_config();
  const std::string fp = config_fingerprint(cfg);
  EXPECT_EQ(fp.size(), 12u);
  EXPECT_EQ(fp.find_first_not_of("0123456789abcdef"), std::string::npos);
  EXPECT_EQ(fp, config_fingerprint(cfg));  // pure function of the config
}

TEST(ConfigFingerprint, ListsTheModelConstantsInEveryConfig) {
  // The steal-handling cost and wire sizes are fixed by the model, but every
  // record's canonical config still names them with their values.
  const std::string canon = canonical_config(base_config());
  EXPECT_NE(canon.find("ws.steal_handling_cost=300"), std::string::npos);
  EXPECT_NE(canon.find("ws.steal_request_bytes=16"), std::string::npos);
  EXPECT_NE(canon.find("ws.response_header_bytes=16"), std::string::npos);
  EXPECT_NE(canon.find("ws.node_bytes=24"), std::string::npos);
  EXPECT_NE(canon.find("ws.token_bytes=8"), std::string::npos);
}

TEST(ConfigFingerprint, ChangesWithAnySemanticField) {
  const auto cfg = base_config();
  auto ranks = cfg;
  ranks.num_ranks = 16;
  auto seed = cfg;
  seed.ws.seed = 2;
  auto chunk = cfg;
  chunk.ws.chunk_size += 1;
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(ranks));
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(seed));
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(chunk));
}

TEST(ConfigFingerprint, TofuRecordsTheActiveSamplerBackend) {
  // The fingerprint must name the backend that actually runs (alias vs
  // rejection), not the raw threshold: thresholds resolving to the same
  // backend are the same experiment.
  auto cfg = base_config();
  cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  auto alias_lo = cfg;
  alias_lo.ws.alias_table_max_ranks = 16;  // 8 ranks -> alias
  auto alias_hi = cfg;
  alias_hi.ws.alias_table_max_ranks = 1024;  // still alias
  auto rejection = cfg;
  rejection.ws.alias_table_max_ranks = 4;  // 8 ranks -> rejection
  EXPECT_EQ(config_fingerprint(alias_lo), config_fingerprint(alias_hi));
  EXPECT_NE(config_fingerprint(alias_lo), config_fingerprint(rejection));
  EXPECT_NE(canonical_config(alias_lo).find("ws.tofu_sampler=alias"),
            std::string::npos);
  EXPECT_NE(canonical_config(rejection).find("ws.tofu_sampler=rejection"),
            std::string::npos);
}

TEST(ConfigFingerprint, AdaptiveKnobsKeyOnlyWhenAdaptationIsActive) {
  // Every pre-adaptive fingerprint must survive the new knobs: a static
  // policy ignores them entirely, and the adaptive keys appear only for the
  // configs they actually shape.
  auto off_a = base_config();
  auto off_b = base_config();
  off_b.ws.adapt_epsilon = 0.3;
  off_b.ws.adapt_decay = 0.5;
  off_b.ws.adapt_refresh_interval = 7;
  off_b.ws.adapt_yield_threshold = 9;
  EXPECT_EQ(config_fingerprint(off_a), config_fingerprint(off_b));
  EXPECT_EQ(canonical_config(off_a).find("adapt"), std::string::npos);

  auto adaptive = base_config();
  adaptive.ws.victim_policy = ws::VictimPolicy::kAdaptive;
  auto eps = adaptive;
  eps.ws.adapt_epsilon = 0.3;
  EXPECT_NE(config_fingerprint(adaptive), config_fingerprint(eps));
  EXPECT_NE(canonical_config(adaptive).find("ws.adapt_epsilon"),
            std::string::npos);

  auto amount = base_config();
  amount.ws.adaptive_steal_amount = true;
  EXPECT_NE(config_fingerprint(base_config()), config_fingerprint(amount));
  EXPECT_NE(canonical_config(amount).find("ws.adaptive_steal_amount"),
            std::string::npos);
}

TEST(ConfigFingerprint, RemoteTriesKeysOnlyOffItsDefault) {
  auto hier = base_config();
  hier.ws.victim_policy = ws::VictimPolicy::kHierarchical;
  EXPECT_EQ(canonical_config(hier).find("ws.hierarchical_remote_tries"),
            std::string::npos);
  auto wide = hier;
  wide.ws.hierarchical_remote_tries = 3;
  EXPECT_NE(config_fingerprint(hier), config_fingerprint(wide));
  EXPECT_NE(canonical_config(wide).find("ws.hierarchical_remote_tries=3"),
            std::string::npos);
}

TEST(ConfigFingerprint, NonTofuPoliciesIgnoreTheAliasThreshold) {
  auto a = base_config();
  a.ws.alias_table_max_ranks = 4;
  auto b = base_config();
  b.ws.alias_table_max_ranks = 1024;
  EXPECT_EQ(config_fingerprint(a), config_fingerprint(b));
  EXPECT_EQ(canonical_config(a).find("ws.tofu_sampler"), std::string::npos);
}

TEST(ConfigFingerprint, FaultAndTimeoutKeysAppearOnlyWhenActive) {
  // Pre-fault configs keep their established fingerprints: the new keys are
  // emitted only when the corresponding feature is on.
  const auto cfg = base_config();
  const std::string canon = canonical_config(cfg);
  EXPECT_EQ(canon.find("fault."), std::string::npos);
  EXPECT_EQ(canon.find("ws.steal_timeout"), std::string::npos);
  EXPECT_EQ(canon.find("ws.token_timeout"), std::string::npos);

  auto timed = cfg;
  timed.ws.steal_timeout = 1000;
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(timed));
  EXPECT_NE(canonical_config(timed).find("ws.steal_timeout=1000"),
            std::string::npos);

  auto faulted = cfg;
  faulted.fault.drop_prob = 0.01;
  faulted.fault.seed = 9;
  EXPECT_NE(config_fingerprint(cfg), config_fingerprint(faulted));
  const std::string fcanon = canonical_config(faulted);
  EXPECT_NE(fcanon.find("fault.drop_prob="), std::string::npos);
  EXPECT_NE(fcanon.find("fault.seed=9"), std::string::npos);

  auto reseeded = faulted;
  reseeded.fault.seed = 10;  // the fault stream is part of the experiment
  EXPECT_NE(config_fingerprint(faulted), config_fingerprint(reseeded));
}

TEST(CanonicalConfig, NamesTheKeyFields) {
  const std::string canon = canonical_config(base_config());
  for (const char* key : {"tree.name=", "num_ranks=8", "ws.seed=1",
                          "ws.chunk_size=", "ws.victim_policy=",
                          "ws.steal_amount="}) {
    EXPECT_NE(canon.find(key), std::string::npos) << key << " in " << canon;
  }
}

TEST(JsonEscape, HandlesQuotesBackslashesAndControls) {
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
  EXPECT_EQ(json_escape("a\nb"), "a\\nb");
  EXPECT_EQ(json_escape(std::string("a\x01") + "b"), "a\\u0001b");
}

SweepReport fake_report(const std::vector<SweepPoint>& points) {
  SweepReport report;
  for (const SweepPoint& p : points) {
    PointResult r;
    r.index = p.index;
    r.ok = true;
    r.result.num_ranks = p.config.num_ranks;
    r.result.nodes = 100;
    r.result.leaves = 50;
    r.result.engine_events = 4321;
    r.result.engine_peak_pending = 77;
    r.result.network.peak_channels = 13;
    r.result.stats.steal_timeouts = 5;
    r.result.stats.steal_retries = 4;
    r.result.stats.token_regens = 2;
    r.result.faults.dropped_messages = 9;
    r.result.faults.duplicated_messages = 3;
    r.wall_seconds = 1.25;  // must not leak into wall_clock=false output
    report.points.push_back(std::move(r));
  }
  return report;
}

TEST(RecordWriter, JsonlSchemaHeaderAndOneLinePerPoint) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(points, fake_report(points));
  const std::string text = out.str();
  EXPECT_NE(text.find("\"schema\":\"dws.exp.sweep\""), std::string::npos);
  EXPECT_NE(text.find("\"version\":6"), std::string::npos);
  EXPECT_NE(text.find("\"coords\":{\"ranks\":\"4\"}"), std::string::npos);
  EXPECT_EQ(text.find("wall_s"), std::string::npos);  // wall_clock=false
  EXPECT_EQ(text.find("peak"), std::string::npos);  // no occupancy column
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 3);
}

TEST(RecordWriter, WallClockColumnIsOptIn) {
  SweepSpec spec(base_config());
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, true});
  writer.write_report(points, fake_report(points));
  EXPECT_NE(out.str().find("\"wall_s\":1.25"), std::string::npos) << out.str();
}

TEST(RecordWriter, CsvHasSchemaCommentHeaderAndRows) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kCsv, false});
  writer.write_report(points, fake_report(points));
  const std::string text = out.str();
  EXPECT_NE(text.find("# schema=dws.exp.sweep version=6"), std::string::npos);
  EXPECT_NE(text.find("index,"), std::string::npos);
  EXPECT_EQ(text.find("peak"), std::string::npos);  // no occupancy column
  // comment + header + 2 rows
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
}

TEST(CanonicalConfig, BackendKeyAppearsOnlyForTheNativeRuntime) {
  ws::RunConfig sim = base_config();
  ws::RunConfig rt = base_config();
  rt.backend = ws::Backend::kRt;
  // Simulator fingerprints must not move when the backend field is added.
  EXPECT_EQ(canonical_config(sim).find("backend="), std::string::npos);
  EXPECT_NE(canonical_config(rt).find("backend=rt"), std::string::npos);
  EXPECT_NE(config_fingerprint(sim), config_fingerprint(rt));
}

TEST(RecordSchema, V4RoundTripsBackendAndMeasuredCost) {
  ws::RunConfig cfg = base_config();
  cfg.backend = ws::Backend::kRt;
  SweepSpec spec(cfg);
  const auto points = spec.expand().value();
  SweepReport report = fake_report(points);
  report.points[0].result.per_node_cost = 1234;
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(points, report);
  EXPECT_NE(out.str().find("\"backend\":\"rt\""), std::string::npos);

  std::istringstream in(out.str());
  const auto file = read_records(in);
  ASSERT_TRUE(file.has_value()) << file.error();
  ASSERT_EQ(file.value().records.size(), 1u);
  const SweepRecord& rec = file.value().records.front();
  EXPECT_EQ(rec.backend, "rt");
  EXPECT_EQ(rec.per_node_cost_ns, 1234u);
}

/// A fake service point: the fake report plus two JobOutcomes, enough for
/// the v6 writer to cut one run row and two job rows.
SweepReport fake_service_report(const std::vector<SweepPoint>& points) {
  SweepReport report = fake_report(points);
  for (PointResult& r : report.points) {
    metrics::JobOutcome a;
    a.job_id = 0;
    a.tree = "TEST_BIN_TINY";
    a.root_seed = 777;
    a.base = 0;
    a.width = 4;
    a.arrival = 0;
    a.admit = 1'000'000;
    a.first_compute = 2'000'000;
    a.finish = 10'000'000;
    a.nodes = 60;
    a.leaves = 30;
    a.steal_attempts = 12;
    a.successful_steals = 7;
    metrics::JobOutcome b = a;
    b.job_id = 1;
    b.base = 4;
    b.arrival = 3'000'000;
    b.admit = 5'000'000;
    b.first_compute = 5'500'000;
    b.finish = 23'000'000;
    b.nodes = 40;
    b.leaves = 20;
    r.result.jobs = {a, b};
  }
  return report;
}

TEST(RecordSchema, V6ServicePointEmitsRunAndJobRowsJsonl) {
  SweepSpec spec(base_config());
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(points, fake_service_report(points));
  const std::string text = out.str();
  // header + 1 run row + 2 job rows
  EXPECT_EQ(std::count(text.begin(), text.end(), '\n'), 4);
  EXPECT_NE(text.find("\"row\":\"run\""), std::string::npos);
  EXPECT_NE(text.find("\"row\":\"job\""), std::string::npos);
  EXPECT_NE(text.find("\"jobs\":2"), std::string::npos);

  std::istringstream in(text);
  const auto file = read_records(in);
  ASSERT_TRUE(file.has_value()) << file.error();
  ASSERT_EQ(file.value().records.size(), 3u);
  const SweepRecord& run = file.value().records[0];
  EXPECT_EQ(run.row, "run");
  EXPECT_FALSE(run.is_job_row());
  EXPECT_EQ(run.jobs, 2u);
  // Nearest-rank tails over {10, 20} ms makespans: p50 = 10, p99 = 20.
  EXPECT_DOUBLE_EQ(run.makespan_p50_ms, 10.0);
  EXPECT_DOUBLE_EQ(run.makespan_p99_ms, 20.0);
  EXPECT_DOUBLE_EQ(run.queue_wait_p50_ms, 1.0);
  EXPECT_DOUBLE_EQ(run.queue_wait_p99_ms, 2.0);

  const SweepRecord& job0 = file.value().records[1];
  EXPECT_TRUE(job0.is_job_row());
  EXPECT_EQ(job0.job_id, 0u);
  EXPECT_EQ(job0.job_tree, "TEST_BIN_TINY");
  EXPECT_EQ(job0.job_root_seed, 777u);
  EXPECT_EQ(job0.job_width, 4u);
  EXPECT_DOUBLE_EQ(job0.job_queue_wait_ms, 1.0);
  EXPECT_DOUBLE_EQ(job0.job_makespan_ms, 10.0);
  EXPECT_EQ(job0.job_nodes, 60u);
  EXPECT_EQ(job0.job_steal_attempts, 12u);
  EXPECT_EQ(job0.fingerprint, run.fingerprint);

  const SweepRecord& job1 = file.value().records[2];
  EXPECT_EQ(job1.job_id, 1u);
  EXPECT_EQ(job1.job_base, 4u);
  EXPECT_DOUBLE_EQ(job1.job_makespan_ms, 20.0);
}

TEST(RecordWriter, JobRowsRepeatTheirPointsFingerprintAndCoords) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  const SweepReport report = fake_service_report(points);
  for (const RecordFormat fmt : {RecordFormat::kJsonl, RecordFormat::kCsv}) {
    SCOPED_TRACE(fmt == RecordFormat::kCsv ? "csv" : "jsonl");
    std::ostringstream out;
    RecordWriter writer(out, RecordOptions{fmt, false});
    writer.write_report(points, report);
    std::istringstream in(out.str());
    const auto file = read_records(in);
    ASSERT_TRUE(file.has_value()) << file.error();
    ASSERT_EQ(file.value().records.size(), 6u);  // per point: run + 2 jobs
    for (std::size_t i = 0; i < file.value().records.size(); ++i) {
      const SweepRecord& rec = file.value().records[i];
      const SweepRecord& run = file.value().records[i - i % 3];
      const SweepPoint& point = points[i / 3];
      EXPECT_EQ(rec.is_job_row(), i % 3 != 0) << i;
      EXPECT_EQ(rec.index, point.index) << i;
      EXPECT_EQ(rec.fingerprint, config_fingerprint(point.config)) << i;
      EXPECT_EQ(rec.fingerprint, run.fingerprint) << i;
      if (fmt == RecordFormat::kJsonl) {
        ASSERT_EQ(rec.coords.size(), 1u) << i;
        EXPECT_EQ(rec.coords, point.coords) << i;
      } else {
        EXPECT_EQ(rec.label, point.label()) << i;
        EXPECT_EQ(rec.ranks, point.config.num_ranks) << i;
        EXPECT_EQ(rec.backend, "sim") << i;
      }
    }
    EXPECT_NE(file.value().records[0].fingerprint,
              file.value().records[3].fingerprint);
  }
}

TEST(RecordReader, JsonlAndCsvRunRowsReadBackAlike) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  SweepReport report = fake_service_report(points);
  report.points[1].ok = false;
  report.points[1].error = "boom,\n\"x\"";
  std::vector<SweepRecord> rows[2];  // [0] JSONL, [1] CSV
  for (const RecordFormat fmt : {RecordFormat::kJsonl, RecordFormat::kCsv}) {
    std::ostringstream out;
    RecordWriter writer(out, RecordOptions{fmt, true});
    writer.write_report(points, report);
    std::istringstream in(out.str());
    auto file = read_records(in);
    ASSERT_TRUE(file.has_value()) << file.error();
    rows[fmt == RecordFormat::kCsv] = std::move(file.value().records);
  }
  // Point 0: run + 2 job rows; point 1 failed, so it has its run row only.
  ASSERT_EQ(rows[0].size(), 4u);
  ASSERT_EQ(rows[1].size(), 4u);
  for (std::size_t i = 0; i < rows[0].size(); ++i) {
    SweepRecord jsonl = rows[0][i];
    SweepRecord csv = rows[1][i];
    EXPECT_EQ(jsonl.is_job_row(), csv.is_job_row()) << i;
    if (jsonl.is_job_row()) {
      // JSONL job rows carry only the job columns and the fingerprint.
      EXPECT_EQ(jsonl.fingerprint, csv.fingerprint) << i;
      EXPECT_EQ(jsonl.job_id, csv.job_id) << i;
      EXPECT_EQ(jsonl.job_tree, csv.job_tree) << i;
      EXPECT_DOUBLE_EQ(jsonl.job_makespan_ms, csv.job_makespan_ms) << i;
      EXPECT_EQ(jsonl.job_nodes, csv.job_nodes) << i;
      continue;
    }
    jsonl.coords.clear();  // the JSONL point identity
    csv.label.clear();     // the CSV point identity
    EXPECT_TRUE(jsonl == csv) << "run row " << i;
  }
  EXPECT_FALSE(rows[1][3].ok);
  EXPECT_EQ(rows[1][3].error, report.points[1].error);
  EXPECT_TRUE(rows[1][0].has_wall_s);
}

TEST(RecordSchema, V6ServicePointRoundTripsCsv) {
  SweepSpec spec(base_config());
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kCsv, false});
  writer.write_report(points, fake_service_report(points));
  const std::string text = out.str();
  EXPECT_NE(text.find(",row,"), std::string::npos);  // header names the column

  std::istringstream in(text);
  const auto file = read_records(in);
  ASSERT_TRUE(file.has_value()) << file.error();
  ASSERT_EQ(file.value().records.size(), 3u);
  EXPECT_EQ(file.value().records[0].row, "run");
  EXPECT_EQ(file.value().records[0].jobs, 2u);
  EXPECT_TRUE(file.value().records[1].is_job_row());
  EXPECT_EQ(file.value().records[1].job_nodes, 60u);
  EXPECT_EQ(file.value().records[2].job_id, 1u);
  EXPECT_DOUBLE_EQ(file.value().records[2].job_makespan_ms, 20.0);
}

TEST(RecordReader, RoundTripsJsonlCurrent) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(points, fake_report(points));

  std::istringstream in(out.str());
  const auto file = read_records(in);
  ASSERT_TRUE(file.has_value()) << file.error();
  EXPECT_EQ(file.value().version, kRecordSchemaVersion);
  EXPECT_EQ(file.value().format, RecordFormat::kJsonl);
  ASSERT_EQ(file.value().records.size(), 2u);
  const SweepRecord& rec = file.value().records[1];
  EXPECT_EQ(rec.index, 1u);
  EXPECT_EQ(rec.ranks, 4u);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.nodes, 100u);
  EXPECT_EQ(rec.engine_events, 4321u);
  EXPECT_EQ(rec.steal_timeouts, 5u);
  EXPECT_EQ(rec.steal_retries, 4u);
  EXPECT_EQ(rec.token_regens, 2u);
  EXPECT_EQ(rec.net_drops, 9u);
  EXPECT_EQ(rec.net_dups, 3u);
  EXPECT_FALSE(rec.has_wall_s);
  ASSERT_EQ(rec.coords.size(), 1u);
  EXPECT_EQ(rec.coords[0].first, "ranks");
  EXPECT_EQ(rec.coords[0].second, "4");
  EXPECT_EQ(rec.fingerprint, config_fingerprint(points[1].config));
}

TEST(RecordReader, RoundTripsCsvCurrent) {
  SweepSpec spec(base_config());
  spec.axis(ranks_axis({2, 4}));
  const auto points = spec.expand().value();
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kCsv, true});
  writer.write_report(points, fake_report(points));

  std::istringstream in(out.str());
  const auto file = read_records(in);
  ASSERT_TRUE(file.has_value()) << file.error();
  EXPECT_EQ(file.value().version, kRecordSchemaVersion);
  EXPECT_EQ(file.value().format, RecordFormat::kCsv);
  ASSERT_EQ(file.value().records.size(), 2u);
  const SweepRecord& rec = file.value().records[0];
  EXPECT_EQ(rec.ranks, 2u);
  EXPECT_TRUE(rec.ok);
  EXPECT_EQ(rec.steal_timeouts, 5u);
  EXPECT_EQ(rec.net_dups, 3u);
  EXPECT_TRUE(rec.has_wall_s);
  EXPECT_DOUBLE_EQ(rec.wall_s, 1.25);
}

TEST(RecordReader, RejectsUnsupportedVersionsAndGarbage) {
  {
    std::istringstream in("{\"schema\":\"dws.exp.sweep\",\"version\":99}\n");
    const auto file = read_records(in);
    ASSERT_FALSE(file.has_value());
    EXPECT_NE(file.error().find("unsupported schema version"),
              std::string::npos);
  }
  // Retired versions are refused in both wire formats, rows and all.
  for (const int v : {1, 5}) {
    const std::string want = "unsupported schema version " +
                             std::to_string(v) + " (this build reads 6)";
    for (const std::string& text :
         {"{\"schema\":\"dws.exp.sweep\",\"version\":" + std::to_string(v) +
              "}\n{\"index\":0,\"nodes\":100}\n",
          "# schema=dws.exp.sweep version=" + std::to_string(v) +
              "\nindex,nodes\n0,100\n"}) {
      std::istringstream in(text);
      const auto file = read_records(in);
      ASSERT_FALSE(file.has_value()) << text;
      EXPECT_NE(file.error().find(want), std::string::npos) << file.error();
    }
  }
  {
    std::istringstream in("not a record stream\n");
    EXPECT_FALSE(read_records(in).has_value());
  }
  {
    std::istringstream in("");
    EXPECT_FALSE(read_records(in).has_value());
  }
  {
    // A \u escape takes exactly four hex digits.
    std::istringstream in(
        "{\"schema\":\"dws.exp.sweep\",\"version\":6}\n"
        "{\"index\":0,\"error\":\"\\uzzzz\"}\n");
    const auto file = read_records(in);
    ASSERT_FALSE(file.has_value());
    EXPECT_NE(file.error().find("bad string value"), std::string::npos);
  }
  {
    std::istringstream in(
        "# schema=dws.exp.sweep version=6\nindex,error\n0,\"unterminated\n");
    const auto file = read_records(in);
    ASSERT_FALSE(file.has_value());
    EXPECT_NE(file.error().find("unterminated"), std::string::npos);
  }
  // A numeric cell must be one whole number that fits its member: trailing
  // junk, a value past uint32_t and a word are errors in both formats, as
  // is a bool that is not true/false/1/0.
  const std::pair<std::string, std::string> bad_cells[] = {
      {"nodes", "12abc"},
      {"ranks", "4294967297"},
      {"runtime_ms", "fast"},
      {"ok", "yes"}};
  for (const auto& [column, cell] : bad_cells) {
    {
      std::istringstream in("{\"schema\":\"dws.exp.sweep\",\"version\":6}\n"
                            "{\"index\":0,\"" +
                            column + "\":" + cell + "}\n");
      const auto file = read_records(in);
      ASSERT_FALSE(file.has_value()) << column << "=" << cell;
      EXPECT_NE(file.error().find("bad value '" + cell + "' for " + column),
                std::string::npos)
          << file.error();
    }
    {
      std::istringstream in("# schema=dws.exp.sweep version=6\nindex," +
                            column + "\n0," + cell + "\n");
      const auto file = read_records(in);
      ASSERT_FALSE(file.has_value()) << column << "=" << cell;
      EXPECT_NE(file.error().find("bad value '" + cell + "' for " + column),
                std::string::npos)
          << file.error();
    }
  }
}

TEST(RecordReader, ReadsErrorRecordsWithEscapes) {
  // An audit summary spans lines; the CSV cell is quoted across them.
  const std::string error = "line1\nline2 \"quoted\", \x01";
  SweepSpec spec(base_config());
  const auto points = spec.expand().value();
  SweepReport report;
  PointResult r;
  r.index = 0;
  r.ok = false;
  r.error = error;
  report.points.push_back(std::move(r));
  for (const RecordFormat fmt : {RecordFormat::kJsonl, RecordFormat::kCsv}) {
    SCOPED_TRACE(fmt == RecordFormat::kCsv ? "csv" : "jsonl");
    std::ostringstream out;
    RecordWriter writer(out, RecordOptions{fmt, false});
    writer.write_report(points, report);

    std::istringstream in(out.str());
    const auto file = read_records(in);
    ASSERT_TRUE(file.has_value()) << file.error();
    ASSERT_EQ(file.value().records.size(), 1u);
    EXPECT_FALSE(file.value().records[0].ok);
    EXPECT_EQ(file.value().records[0].error, error);
  }
}

TEST(RecordWriter, FailedPointsRecordTheError) {
  SweepSpec spec(base_config());
  const auto points = spec.expand().value();
  SweepReport report;
  PointResult r;
  r.index = 0;
  r.ok = false;
  r.error = "DWS_CHECK failed: boom";
  report.points.push_back(std::move(r));
  std::ostringstream out;
  RecordWriter writer(out, RecordOptions{RecordFormat::kJsonl, false});
  writer.write_report(points, report);
  EXPECT_NE(out.str().find("\"ok\":false"), std::string::npos);
  EXPECT_NE(out.str().find("boom"), std::string::npos);
}

}  // namespace
}  // namespace dws::exp
