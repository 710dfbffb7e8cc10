#include "exp/record.hpp"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <istream>
#include <ostream>
#include <span>
#include <type_traits>
#include <variant>

#include "crypto/sha1.hpp"
#include "metrics/service_stats.hpp"
#include "support/sim_time.hpp"
#include "proto/victim.hpp"

namespace dws::exp {
namespace {

std::string fmt_double(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Human-facing metric rendering: enough digits to round-trip a float's
/// interesting part, short enough to read. Deterministic for equal inputs,
/// which is all the byte-identical guarantee needs.
std::string fmt_metric(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

std::string csv_escape(std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    return std::string(s);
  }
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

}  // namespace

std::string json_escape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string canonical_config(const ws::RunConfig& c) {
  std::string s;
  auto kv = [&s](const char* key, const std::string& value) {
    s += key;
    s += '=';
    s += value;
    s += ';';
  };
  auto kvu = [&kv](const char* key, std::uint64_t v) {
    kv(key, std::to_string(v));
  };
  auto kvd = [&kv](const char* key, double v) { kv(key, fmt_double(v)); };

  kv("tree.name", c.tree.name);
  kv("tree.type", uts::to_string(c.tree.type));
  kvu("tree.root_seed", c.tree.root_seed);
  kvu("tree.root_branching", c.tree.root_branching);
  kvu("tree.m", c.tree.m);
  kvd("tree.q", c.tree.q);
  kvu("tree.gen_mx", c.tree.gen_mx);
  kv("tree.shape", uts::to_string(c.tree.shape));
  kvd("tree.shift", c.tree.shift);
  kvu("tree.max_children", c.tree.max_children);

  kvu("machine.nx", static_cast<std::uint64_t>(c.machine.nx()));
  kvu("machine.ny", static_cast<std::uint64_t>(c.machine.ny()));
  kvu("machine.nz", static_cast<std::uint64_t>(c.machine.nz()));
  kvu("num_ranks", c.num_ranks);
  kv("placement", topo::to_string(c.placement));
  kvu("procs_per_node", c.procs_per_node);
  kvu("origin_cube", c.origin_cube);

  kvu("latency.same_node", static_cast<std::uint64_t>(c.latency.same_node));
  kvu("latency.same_blade", static_cast<std::uint64_t>(c.latency.same_blade));
  kvu("latency.network_base",
      static_cast<std::uint64_t>(c.latency.network_base));
  kvu("latency.per_hop", static_cast<std::uint64_t>(c.latency.per_hop));
  kvd("latency.bytes_per_ns", c.latency.bytes_per_ns);

  kvu("congestion.enabled", c.congestion.enabled ? 1 : 0);
  kvd("congestion.capacity_hops", c.congestion.capacity_hops);
  kvd("congestion.scale", c.congestion_scale);
  if (c.congestion.enabled) {
    // The *resolved* window (the 0 default means one network_base), emitted
    // only when the model is on: the windowed-congestion semantics change
    // re-fingerprints congested configs exactly once, and a config whose
    // explicit window equals the derived one is honestly identical.
    kvu("congestion.window",
        static_cast<std::uint64_t>(
            sim::congestion_window(c.congestion, c.latency)));
  }

  kvu("ws.chunk_size", c.ws.chunk_size);
  kv("ws.victim_policy", ws::to_string(c.ws.victim_policy));
  kv("ws.steal_amount", ws::to_string(c.ws.steal_amount));
  kvu("ws.sha_rounds", c.ws.sha_rounds);
  kvu("ws.node_overhead", static_cast<std::uint64_t>(c.ws.node_overhead));
  kvu("ws.sha_round_cost", static_cast<std::uint64_t>(c.ws.sha_round_cost));
  kvu("ws.steal_handling_cost",
      static_cast<std::uint64_t>(c.ws.steal_handling_cost));
  kvu("ws.poll_interval", c.ws.poll_interval);
  kvu("ws.steal_request_bytes", c.ws.steal_request_bytes);
  kvu("ws.response_header_bytes", c.ws.response_header_bytes);
  kvu("ws.node_bytes", c.ws.node_bytes);
  kvu("ws.token_bytes", c.ws.token_bytes);
  kvu("ws.seed", c.ws.seed);
  if (c.ws.victim_policy == ws::VictimPolicy::kTofuSkewed) {
    // The two Tofu sampling backends are equal in distribution but draw
    // different RNG sequences, so two runs match iff the *active* backend
    // matches — not the raw alias_table_max_ranks threshold, which can
    // differ without changing anything the simulation does.
    kv("ws.tofu_sampler",
       proto::tofu_uses_alias(c.ws, c.num_ranks) ? "alias" : "rejection");
  }
  if (c.ws.victim_policy == ws::VictimPolicy::kAdaptive) {
    // Same backend-not-threshold rule as ws.tofu_sampler; the feedback knobs
    // only shape behaviour when the adaptive selector is the one running.
    kv("ws.adaptive_sampler",
       proto::tofu_uses_alias(c.ws, c.num_ranks) ? "alias" : "rejection");
    kvd("ws.adapt_epsilon", c.ws.adapt_epsilon);
    kvu("ws.adapt_refresh_interval", c.ws.adapt_refresh_interval);
  }
  if (c.ws.victim_policy == ws::VictimPolicy::kAdaptive ||
      c.ws.adaptive_steal_amount) {
    kvd("ws.adapt_decay", c.ws.adapt_decay);
  }
  if (c.ws.adaptive_steal_amount) {
    kvu("ws.adaptive_steal_amount", 1);
    // The *resolved* threshold (0 means 2 * chunk_size): a config spelling
    // the derived value explicitly is honestly identical.
    kvu("ws.adapt_yield_threshold", c.ws.adapt_yield_threshold != 0
                                        ? c.ws.adapt_yield_threshold
                                        : 2 * c.ws.chunk_size);
  }
  kvu("ws.one_sided_steals", c.ws.one_sided_steals ? 1 : 0);
  kv("ws.idle_policy", ws::to_string(c.ws.idle_policy));
  kvu("ws.lifeline_tries", c.ws.lifeline_tries);
  kvu("ws.hierarchical_local_tries", c.ws.hierarchical_local_tries);
  if (c.ws.victim_policy == ws::VictimPolicy::kHierarchical &&
      c.ws.hierarchical_remote_tries != 1) {
    // Only-when-enabled: the default one-remote-slot schedule is exactly the
    // pre-knob behaviour, so those configs keep their fingerprints.
    kvu("ws.hierarchical_remote_tries", c.ws.hierarchical_remote_tries);
  }
  kvu("ws.record_trace", c.ws.record_trace ? 1 : 0);

  // The backend key appears only for the native runtime so every simulator
  // config keeps its established fingerprint (kSim is the default engine).
  if (c.backend == ws::Backend::kRt) {
    kv("backend", ws::to_string(c.backend));
  }

  // Robustness/fault keys appear only when active so that every pre-fault
  // config keeps its established fingerprint.
  if (c.ws.steal_timeout != 0) {
    kvu("ws.steal_timeout", static_cast<std::uint64_t>(c.ws.steal_timeout));
    kvu("ws.steal_retry_max", c.ws.steal_retry_max);
    kvd("ws.steal_backoff", c.ws.steal_backoff);
  }
  if (c.ws.token_timeout != 0) {
    kvu("ws.token_timeout", static_cast<std::uint64_t>(c.ws.token_timeout));
  }
  if (c.fault.enabled()) {
    kvd("fault.drop_prob", c.fault.drop_prob);
    kvd("fault.dup_prob", c.fault.dup_prob);
    kvd("fault.jitter_frac", c.fault.jitter_frac);
    kvd("fault.degraded_frac", c.fault.degraded_frac);
    kvd("fault.degraded_mult", c.fault.degraded_mult);
    kvu("fault.straggler_ranks", c.fault.straggler_ranks);
    kvd("fault.straggler_factor", c.fault.straggler_factor);
    kvu("fault.pause_ranks", c.fault.pause_ranks);
    kvu("fault.pause_duration",
        static_cast<std::uint64_t>(c.fault.pause_duration));
    kvu("fault.pause_window",
        static_cast<std::uint64_t>(c.fault.pause_window));
    kvu("fault.seed", c.fault.seed);
    // Draw-keying generation: per-channel send counters replaced the global
    // counter (a semantics change — same seed, different draw sequence), so
    // faulted configs re-fingerprint exactly once.
    kv("fault.keying", "per-channel");
  }

  // Service keys appear only for service configs (svc.enabled) so every
  // single-job config keeps its established fingerprint.
  if (c.svc.enabled) {
    kvu("svc.seed", c.svc.seed);
    kv("svc.arrival", svc::to_string(c.svc.arrival));
    if (c.svc.arrival == svc::ArrivalKind::kTrace) {
      std::string trace;
      for (const support::SimTime t : c.svc.trace) {
        trace += std::to_string(t);
        trace += ',';
      }
      kv("svc.trace", trace);
    } else {
      kvu("svc.num_jobs", c.svc.num_jobs);
      kvu("svc.mean_interarrival",
          static_cast<std::uint64_t>(c.svc.mean_interarrival));
    }
    kv("svc.alloc", svc::to_string(c.svc.alloc));
    if (c.svc.alloc == svc::AllocPolicy::kSpaceShare) {
      kvu("svc.ranks_per_job", c.svc.ranks_per_job);
    }
    // Every job runs a UTS tree. The key stays so that service fingerprints,
    // checked byte for byte by the executor golden, do not move.
    kv("svc.kind", "uts");
    if (!c.svc.mix.empty()) {
      std::string mix;
      for (const svc::JobMixEntry& e : c.svc.mix) {
        mix += e.tree;
        mix += ':';
        mix += fmt_double(e.weight);
        mix += ',';
      }
      kv("svc.mix", mix);
    }
  }

  // Empirical latency-sampling keys (the measured steal-RTT backend) appear
  // only when the backend is active — the analytic model's fingerprints are
  // untouched.
  if (c.latency.sampling_enabled()) {
    kvu("latency.sample_seed", c.latency.sample_seed);
    std::string bins;
    for (const topo::LatencySampleBin& b : c.latency.sample_bins) {
      bins += std::to_string(b.lo);
      bins += ':';
      bins += std::to_string(b.hi);
      bins += ':';
      bins += std::to_string(b.weight);
      bins += ',';
    }
    kv("latency.sample_bins", bins);
  }
  return s;
}

std::string config_fingerprint(const ws::RunConfig& config) {
  const std::string canonical = canonical_config(config);
  const auto digest = crypto::Sha1::digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(canonical.data()),
      canonical.size()));
  return crypto::to_hex(digest).substr(0, 12);
}

namespace {

/// Which rows carry a column. Every CSV row has a cell for every written
/// column (a job row's cells outside its own are zero or empty); a JSONL row
/// has only the keys of its kind.
enum class Emit : std::uint8_t {
  kLead,     // CSV only: JSONL opens each row with `index` and `coords`
  kRun,      // CSV, JSONL run rows
  kJob,      // CSV, JSONL job rows
  kBoth,     // CSV, JSONL run and job rows
  kFailed,   // CSV, JSONL run rows of failed points
  kWall,     // CSV and JSONL run rows, with RecordOptions::wall_clock
};

using Member =
    std::variant<std::uint64_t SweepRecord::*, std::uint32_t SweepRecord::*,
                 double SweepRecord::*, std::string SweepRecord::*,
                 bool SweepRecord::*>;

struct Column {
  std::string_view name;
  Member member;
  Emit emit;
};

/// Every record column in wire order: the CSV header, both formats' rows
/// and the reader all walk this one table. A column's name is its
/// SweepRecord member's, except the CSV `point` label.
#define DWS_COLUMN(member, emit) \
  Column { #member, &SweepRecord::member, Emit::emit }
const std::array kColumns{
    DWS_COLUMN(index, kLead),
    Column{"point", &SweepRecord::label, Emit::kLead},
    DWS_COLUMN(fingerprint, kBoth),
    DWS_COLUMN(tree, kRun),
    DWS_COLUMN(ranks, kRun),
    DWS_COLUMN(placement, kRun),
    DWS_COLUMN(procs_per_node, kRun),
    DWS_COLUMN(policy, kRun),
    DWS_COLUMN(steal, kRun),
    DWS_COLUMN(chunk, kRun),
    DWS_COLUMN(sha_rounds, kRun),
    DWS_COLUMN(seed, kRun),
    DWS_COLUMN(ok, kRun),
    DWS_COLUMN(error, kFailed),
    DWS_COLUMN(runtime_ms, kRun),
    DWS_COLUMN(speedup, kRun),
    DWS_COLUMN(efficiency, kRun),
    DWS_COLUMN(nodes, kRun),
    DWS_COLUMN(leaves, kRun),
    DWS_COLUMN(steal_attempts, kRun),
    DWS_COLUMN(failed_steals, kRun),
    DWS_COLUMN(successful_steals, kRun),
    DWS_COLUMN(sessions, kRun),
    DWS_COLUMN(mean_session_ms, kRun),
    DWS_COLUMN(mean_search_ms, kRun),
    DWS_COLUMN(mean_steal_distance, kRun),
    DWS_COLUMN(net_messages, kRun),
    DWS_COLUMN(net_bytes, kRun),
    DWS_COLUMN(engine_events, kRun),
    DWS_COLUMN(steal_timeouts, kRun),
    DWS_COLUMN(steal_retries, kRun),
    DWS_COLUMN(token_regens, kRun),
    DWS_COLUMN(net_drops, kRun),
    DWS_COLUMN(net_dups, kRun),
    DWS_COLUMN(backend, kRun),
    DWS_COLUMN(per_node_cost_ns, kRun),
    // Job rows carry `row` in their JSONL lead instead.
    DWS_COLUMN(row, kRun),
    DWS_COLUMN(jobs, kRun),
    DWS_COLUMN(makespan_p50_ms, kRun),
    DWS_COLUMN(makespan_p99_ms, kRun),
    DWS_COLUMN(queue_wait_p50_ms, kRun),
    DWS_COLUMN(queue_wait_p99_ms, kRun),
    DWS_COLUMN(sched_latency_p50_ms, kRun),
    DWS_COLUMN(sched_latency_p99_ms, kRun),
    DWS_COLUMN(job_id, kJob),
    DWS_COLUMN(job_tree, kJob),
    DWS_COLUMN(job_root_seed, kJob),
    DWS_COLUMN(job_base, kJob),
    DWS_COLUMN(job_width, kJob),
    DWS_COLUMN(job_arrival_ms, kJob),
    DWS_COLUMN(job_admit_ms, kJob),
    DWS_COLUMN(job_first_compute_ms, kJob),
    DWS_COLUMN(job_finish_ms, kJob),
    DWS_COLUMN(job_queue_wait_ms, kJob),
    DWS_COLUMN(job_sched_latency_ms, kJob),
    DWS_COLUMN(job_makespan_ms, kJob),
    DWS_COLUMN(job_nodes, kJob),
    DWS_COLUMN(job_leaves, kJob),
    DWS_COLUMN(job_steal_attempts, kJob),
    DWS_COLUMN(job_successful_steals, kJob),
    DWS_COLUMN(wall_s, kWall),
};
#undef DWS_COLUMN

bool in_csv(Emit emit, bool wall_clock) {
  return emit != Emit::kWall || wall_clock;
}

bool in_jsonl(Emit emit, const SweepRecord& rec, bool wall_clock) {
  if (rec.is_job_row()) return emit == Emit::kJob || emit == Emit::kBoth;
  return emit == Emit::kRun || emit == Emit::kBoth ||
         (emit == Emit::kFailed && !rec.ok) ||
         (emit == Emit::kWall && wall_clock);
}

/// One value of `rec`, as a JSON value or as a CSV cell.
std::string render(const SweepRecord& rec, const Member& member, bool json) {
  return std::visit(
      [&](auto field) -> std::string {
        const auto& v = rec.*field;
        using T = std::decay_t<decltype(v)>;
        if constexpr (std::is_same_v<T, std::string>) {
          return json ? '"' + json_escape(v) + '"' : csv_escape(v);
        } else if constexpr (std::is_same_v<T, bool>) {
          return json ? (v ? "true" : "false") : (v ? "1" : "0");
        } else if constexpr (std::is_same_v<T, double>) {
          return fmt_metric(v);
        } else {
          return std::to_string(v);
        }
      },
      member);
}

/// A point's run row: its `common` columns plus the run's metrics.
SweepRecord run_record(SweepRecord rec, const PointResult& pr) {
  const ws::RunResult& r = pr.result;
  rec.error = pr.error;
  if (pr.ok) {
    rec.runtime_ms = support::to_millis(r.runtime);
    rec.speedup = r.speedup();
    rec.efficiency = r.efficiency();
    rec.per_node_cost_ns = static_cast<std::uint64_t>(r.per_node_cost);
  }
  rec.nodes = r.nodes;
  rec.leaves = r.leaves;
  rec.steal_attempts = r.stats.steal_attempts;
  rec.failed_steals = r.stats.failed_steals;
  rec.successful_steals = r.stats.successful_steals;
  rec.sessions = r.stats.sessions;
  rec.mean_session_ms = r.stats.mean_session_ms;
  rec.mean_search_ms = r.stats.mean_search_time_s * 1e3;
  rec.mean_steal_distance = r.stats.mean_steal_distance;
  rec.net_messages = r.network.messages;
  rec.net_bytes = r.network.bytes;
  rec.engine_events = r.engine_events;
  rec.steal_timeouts = r.stats.steal_timeouts;
  rec.steal_retries = r.stats.steal_retries;
  rec.token_regens = r.stats.token_regens;
  rec.net_drops = r.faults.dropped_messages;
  rec.net_dups = r.faults.duplicated_messages;
  rec.row = "run";
  rec.jobs = r.jobs.size();
  const metrics::ServiceTails tails = metrics::service_tails(r.jobs);
  rec.makespan_p50_ms = tails.makespan.p50;
  rec.makespan_p99_ms = tails.makespan.p99;
  rec.queue_wait_p50_ms = tails.queue_wait.p50;
  rec.queue_wait_p99_ms = tails.queue_wait.p99;
  rec.sched_latency_p50_ms = tails.sched_latency.p50;
  rec.sched_latency_p99_ms = tails.sched_latency.p99;
  rec.wall_s = pr.wall_seconds;
  return rec;
}

/// One job's row: the point's `common` columns plus the job's own.
SweepRecord job_record(SweepRecord rec, const metrics::JobOutcome& j) {
  rec.row = "job";
  rec.job_id = j.job_id;
  rec.job_tree = j.tree;
  rec.job_root_seed = j.root_seed;
  rec.job_base = j.base;
  rec.job_width = j.width;
  rec.job_arrival_ms = support::to_millis(j.arrival);
  rec.job_admit_ms = support::to_millis(j.admit);
  rec.job_first_compute_ms = support::to_millis(j.first_compute);
  rec.job_finish_ms = support::to_millis(j.finish);
  rec.job_queue_wait_ms = support::to_millis(j.queue_wait());
  rec.job_sched_latency_ms = support::to_millis(j.sched_latency());
  rec.job_makespan_ms = support::to_millis(j.makespan());
  rec.job_nodes = j.nodes;
  rec.job_leaves = j.leaves;
  rec.job_steal_attempts = j.steal_attempts;
  rec.job_successful_steals = j.successful_steals;
  return rec;
}

/// One row of `rec`; `coords` is the body of the point's JSONL `coords`
/// object.
void write_row(std::ostream& out, const RecordOptions& options,
               const SweepRecord& rec, const std::string& coords) {
  const bool json = options.format == RecordFormat::kJsonl;
  const char* sep = "";
  if (json) {
    out << "{\"index\":" << rec.index << ",\"coords\":{" << coords << "}"
        << (rec.is_job_row() ? ",\"row\":\"job\"" : "");
    sep = ",";
  }
  for (const Column& col : kColumns) {
    if (json ? !in_jsonl(col.emit, rec, options.wall_clock)
             : !in_csv(col.emit, options.wall_clock)) {
      continue;
    }
    out << sep;
    if (json) out << '"' << col.name << "\":";
    out << render(rec, col.member, json);
    sep = ",";
  }
  out << (json ? "}\n" : "\n");
}

}  // namespace

RecordWriter::RecordWriter(std::ostream& out, RecordOptions options)
    : out_(&out), options_(options) {}

void RecordWriter::write_header() {
  if (options_.format == RecordFormat::kJsonl) {
    *out_ << "{\"schema\":\"dws.exp.sweep\",\"version\":"
          << kRecordSchemaVersion << "}\n";
    return;
  }
  *out_ << "# schema=dws.exp.sweep version=" << kRecordSchemaVersion << "\n";
  const char* sep = "";
  for (const Column& col : kColumns) {
    if (!in_csv(col.emit, options_.wall_clock)) continue;
    *out_ << sep << col.name;
    sep = ",";
  }
  *out_ << "\n";
}

void RecordWriter::write(const SweepPoint& point, const PointResult& pr) {
  const ws::RunConfig& c = point.config;
  SweepRecord common;  // the columns every row of the point repeats
  common.index = point.index;
  common.label = point.label();
  common.fingerprint = config_fingerprint(c);
  common.tree = c.tree.name;
  common.ranks = c.num_ranks;
  common.placement = topo::to_string(c.placement);
  common.procs_per_node = c.procs_per_node;
  common.policy = ws::to_string(c.ws.victim_policy);
  common.steal = ws::to_string(c.ws.steal_amount);
  common.chunk = c.ws.chunk_size;
  common.sha_rounds = c.ws.sha_rounds;
  common.seed = c.ws.seed;
  common.ok = pr.ok;
  common.backend = ws::to_string(c.backend);
  std::string coords;  // the body of the JSONL `coords` object
  for (const auto& [axis, value] : point.coords) {
    if (!coords.empty()) coords += ',';
    coords += '"' + json_escape(axis) + "\":\"" + json_escape(value) + '"';
  }
  write_row(*out_, options_, run_record(common, pr), coords);
  if (!pr.ok) return;
  for (const metrics::JobOutcome& j : pr.result.jobs) {
    write_row(*out_, options_, job_record(common, j), coords);
  }
}

void RecordWriter::write_report(const std::vector<SweepPoint>& points,
                                const SweepReport& report) {
  write_header();
  const std::size_t n =
      std::min(points.size(), report.points.size());
  for (std::size_t i = 0; i < n; ++i) {
    write(points[i], report.points[i]);
  }
}

namespace {

/// Assigns one already-unescaped value into a record. Shared by both wire
/// formats; unknown keys are skipped so a v(N+1) file still loads the
/// fields this build knows about. A number must fill the whole cell and fit
/// its member, and a bool must read true/false/1/0; anything else is an
/// error naming the column.
support::Status assign_field(SweepRecord& rec, std::string_view key,
                             std::string_view v) {
  const auto col = std::find_if(kColumns.begin(), kColumns.end(),
                                [&](const Column& c) { return c.name == key; });
  if (col == kColumns.end()) return support::Status::ok();
  const bool parsed = std::visit(
      [&](auto field) {
        auto& dst = rec.*field;
        using T = std::decay_t<decltype(dst)>;
        if constexpr (std::is_same_v<T, std::string>) {
          dst = std::string(v);
          return true;
        } else if constexpr (std::is_same_v<T, bool>) {
          dst = (v == "true" || v == "1");
          return dst || v == "false" || v == "0";
        } else {
          // Integers in base 10, doubles in the general format (which
          // includes inf and nan); out-of-range values fail.
          const auto [end, ec] = std::from_chars(v.data(), v.data() + v.size(),
                                                 dst);
          return ec == std::errc{} && end == v.data() + v.size();
        }
      },
      col->member);
  if (!parsed) {
    return support::Status::error("record parse: bad value '" +
                                  std::string(v) + "' for " +
                                  std::string(col->name));
  }
  if (col->emit == Emit::kWall) rec.has_wall_s = true;
  return support::Status::ok();
}

/// Minimal scanner for the flat JSON objects RecordWriter emits: string,
/// number, and bool values, plus one level of string->string nesting (the
/// `coords` object). Not a general JSON parser and doesn't try to be.
class JsonCursor {
 public:
  explicit JsonCursor(std::string_view line) : s_(line) {}

  support::Status parse_into(SweepRecord& rec) {
    if (!eat('{')) return err("expected '{'");
    if (peek() == '}') return support::Status::ok();
    while (true) {
      std::string key;
      if (!parse_string(key)) return err("bad key string");
      if (!eat(':')) return err("expected ':'");
      if (peek() == '{') {
        if (key != "coords") return err("unexpected nested object");
        if (!parse_coords(rec)) return err("bad coords object");
      } else if (peek() == '"') {
        std::string value;
        if (!parse_string(value)) return err("bad string value");
        if (auto st = assign_field(rec, key, value); !st) return st;
      } else {
        if (auto st = assign_field(rec, key, scan_token()); !st) return st;
      }
      if (eat(',')) continue;
      if (eat('}')) return support::Status::ok();
      return err("expected ',' or '}'");
    }
  }

 private:
  char peek() const { return i_ < s_.size() ? s_[i_] : '\0'; }
  bool eat(char c) {
    if (peek() != c) return false;
    ++i_;
    return true;
  }
  support::Status err(const char* what) const {
    return support::Status::error(std::string("record parse: ") + what +
                                  " at offset " + std::to_string(i_));
  }

  bool parse_string(std::string& out) {
    if (!eat('"')) return false;
    out.clear();
    while (i_ < s_.size()) {
      const char c = s_[i_++];
      if (c == '"') return true;
      if (c != '\\') {
        out += c;
        continue;
      }
      if (i_ >= s_.size()) return false;
      const char esc = s_[i_++];
      switch (esc) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (i_ + 4 > s_.size()) return false;
          const char* hex = s_.data() + i_;
          unsigned code = 0;
          if (std::from_chars(hex, hex + 4, code, 16).ptr != hex + 4) {
            return false;  // not four hex digits
          }
          i_ += 4;
          out += static_cast<char>(code);  // writer only emits < 0x20
          break;
        }
        default: return false;
      }
    }
    return false;
  }

  /// Unquoted scalar: number / true / false. Ends at ',' '}' or EOL.
  std::string_view scan_token() {
    const std::size_t start = i_;
    while (i_ < s_.size() && s_[i_] != ',' && s_[i_] != '}') ++i_;
    return s_.substr(start, i_ - start);
  }

  bool parse_coords(SweepRecord& rec) {
    if (!eat('{')) return false;
    if (eat('}')) return true;
    while (true) {
      std::string axis, value;
      if (!parse_string(axis)) return false;
      if (!eat(':')) return false;
      if (!parse_string(value)) return false;
      rec.coords.emplace_back(std::move(axis), std::move(value));
      if (eat(',')) continue;
      return eat('}');
    }
  }

  std::string_view s_;
  std::size_t i_ = 0;
};

/// Reads one CSV row into `cells` with the writer's quoting rules: "" is a
/// quote inside a quoted cell, and a quoted cell may span lines (an audit
/// summary in `error` does). Leaves `cells` empty at end of input.
support::Status read_csv_row(std::istream& in,
                             std::vector<std::string>& cells) {
  cells.clear();
  std::string cell;
  bool quoted = false;
  for (int c = in.get(); c != EOF; c = in.get()) {
    if (c == '"' && quoted && in.peek() == '"') {
      cell += static_cast<char>(in.get());
    } else if (c == '"') {
      quoted = !quoted;
    } else if (!quoted && (c == ',' || c == '\n')) {
      cells.push_back(std::move(cell));
      cell.clear();
      if (c == '\n') return support::Status::ok();
    } else {
      cell += static_cast<char>(c);
    }
  }
  if (quoted) {
    return support::Status::error("record parse: unterminated quoted CSV cell");
  }
  if (!cell.empty() || !cells.empty()) cells.push_back(std::move(cell));
  return support::Status::ok();
}

support::Status parse_version(std::string_view line, std::string_view prefix,
                              int& version) {
  const auto pos = line.find(prefix);
  if (pos == std::string_view::npos) {
    return support::Status::error(
        "record parse: missing schema/version in header line");
  }
  // The number ends the field; whatever follows it (`}` or end of line) is
  // the rest of the header line.
  const std::string_view digits = line.substr(pos + prefix.size());
  if (std::from_chars(digits.data(), digits.data() + digits.size(), version)
          .ec != std::errc{}) {
    version = 0;  // reported as unsupported below
  }
  if (version != kRecordSchemaVersion) {
    return support::Status::error(
        "record parse: unsupported schema version " +
        std::to_string(version) + " (this build reads " +
        std::to_string(kRecordSchemaVersion) + ")");
  }
  return support::Status::ok();
}

}  // namespace

support::Expected<RecordFile> read_records(std::istream& in) {
  using Result = support::Expected<RecordFile>;
  std::string line;
  if (!std::getline(in, line)) {
    return Result::failure("record parse: empty input");
  }

  RecordFile file;
  if (!line.empty() && line[0] == '{') {
    file.format = RecordFormat::kJsonl;
    if (line.find("\"schema\":\"dws.exp.sweep\"") == std::string::npos) {
      return Result::failure(
          "record parse: first line is not a dws.exp.sweep meta line");
    }
    if (const auto st = parse_version(line, "\"version\":", file.version);
        !st) {
      return Result::failure(st);
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      SweepRecord rec;
      if (const auto st = JsonCursor(line).parse_into(rec); !st) {
        return Result::failure(st);
      }
      file.records.push_back(std::move(rec));
    }
    return file;
  }

  if (line.rfind("# schema=dws.exp.sweep", 0) != 0) {
    return Result::failure(
        "record parse: first line is neither a JSONL meta line nor a CSV "
        "schema comment");
  }
  file.format = RecordFormat::kCsv;
  if (const auto st = parse_version(line, "version=", file.version); !st) {
    return Result::failure(st);
  }
  std::vector<std::string> columns, cells;
  if (const auto st = read_csv_row(in, columns); !st) {
    return Result::failure(st);
  }
  if (columns.empty()) {
    return Result::failure("record parse: missing CSV header row");
  }
  while (true) {
    if (const auto st = read_csv_row(in, cells); !st) {
      return Result::failure(st);
    }
    if (cells.empty()) return file;
    if (cells.size() == 1 && cells[0].empty()) continue;  // blank line
    if (cells.size() != columns.size()) {
      return Result::failure("record parse: row has " +
                             std::to_string(cells.size()) +
                             " cells, header has " +
                             std::to_string(columns.size()));
    }
    SweepRecord rec;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      if (const auto st = assign_field(rec, columns[i], cells[i]); !st) {
        return Result::failure(st);
      }
    }
    file.records.push_back(std::move(rec));
  }
}

}  // namespace dws::exp
