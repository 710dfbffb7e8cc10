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
/// Version 6 columns, besides the run's identity and result counters: the
/// fault/robustness counters (`steal_timeouts`, `steal_retries`,
/// `token_regens`, `net_drops`, `net_dups`), `backend` ("sim" or "rt") with
/// `per_node_cost_ns` (the configured node cost on the simulator, the
/// measured mean on the native runtime), and the service columns. Every
/// record has a `row` discriminator: "run" (one per point) or "job" (one
/// per job of a service point, in job-id order, carrying the `job_*`
/// columns). Run rows carry `jobs` and nearest-rank p50/p99 of the per-job
/// makespan, queue wait and scheduling latency (zero for single-job
/// points). No column measures implementation occupancy (queue depth,
/// live channels): that varies with sim_shards, an execution strategy that
/// must not change a record's bytes.
///
/// RecordWriter writes this version and read_records reads only it.
inline constexpr int kRecordSchemaVersion = 6;

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
/// read_records parses them back. Columns a row does not carry stay zero /
/// empty.
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
  std::uint64_t steal_timeouts = 0;
  std::uint64_t steal_retries = 0;
  std::uint64_t token_regens = 0;
  std::uint64_t net_drops = 0;
  std::uint64_t net_dups = 0;
  std::string backend;                    // "sim" / "rt"
  std::uint64_t per_node_cost_ns = 0;

  // Service (multi-tenant) fields.
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
/// auto-detected from the first line). Accepts kRecordSchemaVersion only.
/// Returns the first syntax or version problem found.
support::Expected<RecordFile> read_records(std::istream& in);

/// JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(std::string_view s);

}  // namespace dws::exp
