#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "support/expected.hpp"

namespace dws::exp {

/// Structured result sink: one schema-versioned record row per sweep point
/// (plus one per job of a service point), replacing the per-figure printf
/// dialects. Two wire formats, same fields:
///
///   JSONL — a meta line `{"schema":"dws.exp.sweep","version":6}`, then
///           one JSON object per record row;
///   CSV   — a `# schema=dws.exp.sweep version=6` comment, a header row,
///           then one line per record row.
///
/// Records are a pure function of (SweepPoint, PointResult): running the
/// same spec with any thread count yields byte-identical output, except for
/// the host wall-clock columns, which RecordOptions::wall_clock can drop
/// (the determinism tests and diff-based workflows do).
///
/// Version history:
///   1 — initial schema.
///   2 — adds `engine_peak_pending` (event-queue high-water mark) and
///       `net_peak_channels` (peak live (src,dst) network channels).
///   3 — adds the fault/robustness counters: `steal_timeouts`,
///       `steal_retries`, `token_regens` (steal-protocol recovery) and
///       `net_drops`, `net_dups` (fault::Injector message verdicts).
///   4 — adds `backend` (which engine ran the point: "sim" or "rt") and
///       `per_node_cost_ns` (mean node-expansion cost the run's metrics are
///       anchored to — the configured model cost on the simulator, the
///       *measured* wall-clock mean on the native runtime). For rt points,
///       runtime_ms/wall_s are real measured time.
///   5 — drops `engine_peak_pending` and `net_peak_channels`. Both measured
///       implementation occupancy, not simulation results, and with the
///       sharded engine they depend on how many shard engines the run was
///       split across — keeping them would break the invariant that records
///       are a pure function of the simulated configuration (sim_shards is
///       an execution strategy, deliberately absent from records and from
///       canonical_config, so any shard count must emit identical bytes).
///   6 — multi-tenant service runs (svc::run_service). Every record gains a
///       `row` discriminator ("run" — the existing per-point record — or
///       "job"); run rows gain `jobs` (count) and the job-stream tail
///       metrics `makespan_p50_ms`/`makespan_p99_ms`,
///       `queue_wait_p50_ms`/`queue_wait_p99_ms`,
///       `sched_latency_p50_ms`/`sched_latency_p99_ms` (nearest-rank
///       percentiles over the per-job samples; all zero for single-job
///       points). A service point additionally emits one "job" row per job,
///       in job-id order, carrying the `job_*` columns (placement, timing
///       and work counters of that job). Single-job points emit exactly one
///       "run" row, so a v6 stream of a non-service sweep differs from v5
///       only by the new columns.
/// RecordWriter writes the current version only; read_records accepts all
/// of them.
inline constexpr int kRecordSchemaVersion = 6;
inline constexpr int kRecordMinSchemaVersion = 1;

enum class RecordFormat { kJsonl, kCsv };

struct RecordOptions {
  RecordFormat format = RecordFormat::kJsonl;
  bool wall_clock = true;  ///< include per-point host cost (non-deterministic)
};

/// Canonical `key=value;...` serialization of every semantically meaningful
/// RunConfig field — the preimage of config_fingerprint, stable across
/// platforms and field reordering.
std::string canonical_config(const ws::RunConfig& config);

/// 12-hex-char SHA-1 fingerprint of canonical_config(): two configs compare
/// equal iff they would run the same simulation.
std::string config_fingerprint(const ws::RunConfig& config);

class RecordWriter {
 public:
  RecordWriter(std::ostream& out, RecordOptions options = {});

  /// Meta line / CSV header. Call once, before the first write().
  void write_header();
  void write(const SweepPoint& point, const PointResult& result);

  /// Every record of a finished sweep, header included.
  void write_report(const std::vector<SweepPoint>& points,
                    const SweepReport& report);

 private:
  std::ostream* out_;
  RecordOptions options_;
};

/// One record row: RecordWriter renders one per run row and per job row,
/// read_records parses them back. Fields introduced by later schema
/// versions are zero / empty when reading an older file.
struct SweepRecord {
  std::uint64_t index = 0;
  std::vector<std::pair<std::string, std::string>> coords;  // read from JSONL
  std::string label;                                        // read from CSV
  std::string fingerprint;
  std::string tree;
  std::uint32_t ranks = 0;
  std::string placement;
  std::uint32_t procs_per_node = 0;
  std::string policy;
  std::string steal;
  std::uint32_t chunk = 0;
  std::uint32_t sha_rounds = 0;
  std::uint64_t seed = 0;
  bool ok = false;
  std::string error;
  double runtime_ms = 0.0;
  double speedup = 0.0;
  double efficiency = 0.0;
  std::uint64_t nodes = 0;
  std::uint64_t leaves = 0;
  std::uint64_t steal_attempts = 0;
  std::uint64_t failed_steals = 0;
  std::uint64_t successful_steals = 0;
  std::uint64_t sessions = 0;
  double mean_session_ms = 0.0;
  double mean_search_ms = 0.0;
  double mean_steal_distance = 0.0;
  std::uint64_t net_messages = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t engine_events = 0;
  std::uint64_t engine_peak_pending = 0;  // v2..v4 files only
  std::uint64_t net_peak_channels = 0;    // v2..v4 files only
  std::uint64_t steal_timeouts = 0;       // v3+
  std::uint64_t steal_retries = 0;        // v3+
  std::uint64_t token_regens = 0;         // v3+
  std::uint64_t net_drops = 0;            // v3+
  std::uint64_t net_dups = 0;             // v3+
  std::string backend;                    // v4+ ("sim" / "rt")
  std::uint64_t per_node_cost_ns = 0;     // v4+

  // v6+ — service (multi-tenant) fields. `row` is empty when reading a
  // pre-v6 file; such records are all run rows.
  std::string row;                        // "run" / "job"
  std::uint64_t jobs = 0;                 // run rows: jobs in the point
  double makespan_p50_ms = 0.0;
  double makespan_p99_ms = 0.0;
  double queue_wait_p50_ms = 0.0;
  double queue_wait_p99_ms = 0.0;
  double sched_latency_p50_ms = 0.0;
  double sched_latency_p99_ms = 0.0;
  std::uint32_t job_id = 0;               // job rows only
  std::string job_tree;
  std::uint64_t job_root_seed = 0;
  std::uint32_t job_base = 0;
  std::uint32_t job_width = 0;
  double job_arrival_ms = 0.0;
  double job_admit_ms = 0.0;
  double job_first_compute_ms = 0.0;
  double job_finish_ms = 0.0;
  double job_queue_wait_ms = 0.0;
  double job_sched_latency_ms = 0.0;
  double job_makespan_ms = 0.0;
  std::uint64_t job_nodes = 0;
  std::uint64_t job_leaves = 0;
  std::uint64_t job_steal_attempts = 0;
  std::uint64_t job_successful_steals = 0;

  bool has_wall_s = false;
  double wall_s = 0.0;

  bool is_job_row() const noexcept { return row == "job"; }
  friend bool operator==(const SweepRecord&, const SweepRecord&) = default;
};

/// A fully parsed record stream: schema version, wire format, one
/// SweepRecord per point.
struct RecordFile {
  int version = 0;
  RecordFormat format = RecordFormat::kJsonl;
  std::vector<SweepRecord> records;
};

/// Parses a stream produced by RecordWriter (either wire format,
/// auto-detected from the first line). Accepts every schema version in
/// [kRecordMinSchemaVersion, kRecordSchemaVersion]; fields a version
/// predates are left at their zero defaults. Returns the first syntax or
/// version problem found.
support::Expected<RecordFile> read_records(std::istream& in);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

}  // namespace dws::exp
