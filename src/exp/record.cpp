#include "exp/record.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <istream>
#include <ostream>
#include <span>

#include "crypto/sha1.hpp"
#include "metrics/service_stats.hpp"
#include "support/check.hpp"
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

RecordWriter::RecordWriter(std::ostream& out, RecordOptions options)
    : out_(&out), options_(options) {
  DWS_CHECK(options_.schema_version >= kRecordMinSchemaVersion);
  DWS_CHECK(options_.schema_version <= kRecordSchemaVersion);
}

void RecordWriter::write_header() {
  if (options_.format == RecordFormat::kJsonl) {
    *out_ << "{\"schema\":\"dws.exp.sweep\",\"version\":"
          << options_.schema_version << "}\n";
    return;
  }
  *out_ << "# schema=dws.exp.sweep version=" << options_.schema_version
        << "\n";
  *out_ << "index,point,fingerprint,tree,ranks,placement,procs_per_node,"
           "policy,steal,chunk,sha_rounds,seed,ok,error,runtime_ms,speedup,"
           "efficiency,nodes,leaves,steal_attempts,failed_steals,"
           "successful_steals,sessions,mean_session_ms,mean_search_ms,"
           "mean_steal_distance,net_messages,net_bytes,engine_events";
  if (options_.schema_version >= 2 && options_.schema_version < 5) {
    *out_ << ",engine_peak_pending,net_peak_channels";
  }
  if (options_.schema_version >= 3) {
    *out_ << ",steal_timeouts,steal_retries,token_regens,net_drops,net_dups";
  }
  if (options_.schema_version >= 4) {
    *out_ << ",backend,per_node_cost_ns";
  }
  if (options_.schema_version >= 6) {
    *out_ << ",row,jobs,makespan_p50_ms,makespan_p99_ms,queue_wait_p50_ms,"
             "queue_wait_p99_ms,sched_latency_p50_ms,sched_latency_p99_ms,"
             "job_id,job_tree,job_root_seed,job_base,job_width,"
             "job_arrival_ms,job_admit_ms,job_first_compute_ms,job_finish_ms,"
             "job_queue_wait_ms,job_sched_latency_ms,job_makespan_ms,"
             "job_nodes,job_leaves,job_steal_attempts,job_successful_steals";
  }
  if (options_.wall_clock) *out_ << ",wall_s";
  *out_ << "\n";
}

void RecordWriter::write(const SweepPoint& point, const PointResult& pr) {
  const ws::RunConfig& c = point.config;
  const ws::RunResult& r = pr.result;
  const double runtime_ms = pr.ok ? support::to_millis(r.runtime) : 0.0;
  const double speedup = pr.ok ? r.speedup() : 0.0;
  const double efficiency = pr.ok ? r.efficiency() : 0.0;

  if (options_.format == RecordFormat::kJsonl) {
    std::string coords;
    for (const auto& [axis, value] : point.coords) {
      if (!coords.empty()) coords += ',';
      coords += '"' + json_escape(axis) + "\":\"" + json_escape(value) + '"';
    }
    *out_ << "{\"index\":" << point.index                                    //
          << ",\"coords\":{" << coords << "}"                                //
          << ",\"fingerprint\":\"" << config_fingerprint(c) << "\""          //
          << ",\"tree\":\"" << json_escape(c.tree.name) << "\""              //
          << ",\"ranks\":" << c.num_ranks                                    //
          << ",\"placement\":\"" << topo::to_string(c.placement) << "\""     //
          << ",\"procs_per_node\":" << c.procs_per_node                      //
          << ",\"policy\":\"" << ws::to_string(c.ws.victim_policy) << "\""   //
          << ",\"steal\":\"" << ws::to_string(c.ws.steal_amount) << "\""     //
          << ",\"chunk\":" << c.ws.chunk_size                                //
          << ",\"sha_rounds\":" << c.ws.sha_rounds                           //
          << ",\"seed\":" << c.ws.seed                                       //
          << ",\"ok\":" << (pr.ok ? "true" : "false");
    if (!pr.ok) *out_ << ",\"error\":\"" << json_escape(pr.error) << "\"";
    *out_ << ",\"runtime_ms\":" << fmt_metric(runtime_ms)                    //
          << ",\"speedup\":" << fmt_metric(speedup)                          //
          << ",\"efficiency\":" << fmt_metric(efficiency)                    //
          << ",\"nodes\":" << r.nodes                                        //
          << ",\"leaves\":" << r.leaves                                      //
          << ",\"steal_attempts\":" << r.stats.steal_attempts                //
          << ",\"failed_steals\":" << r.stats.failed_steals                  //
          << ",\"successful_steals\":" << r.stats.successful_steals          //
          << ",\"sessions\":" << r.stats.sessions                            //
          << ",\"mean_session_ms\":" << fmt_metric(r.stats.mean_session_ms)  //
          << ",\"mean_search_ms\":"
          << fmt_metric(r.stats.mean_search_time_s * 1e3)  //
          << ",\"mean_steal_distance\":"
          << fmt_metric(r.stats.mean_steal_distance)     //
          << ",\"net_messages\":" << r.network.messages  //
          << ",\"net_bytes\":" << r.network.bytes        //
          << ",\"engine_events\":" << r.engine_events;
    if (options_.schema_version >= 2 && options_.schema_version < 5) {
      *out_ << ",\"engine_peak_pending\":" << r.engine_peak_pending
            << ",\"net_peak_channels\":" << r.network.peak_channels;
    }
    if (options_.schema_version >= 3) {
      *out_ << ",\"steal_timeouts\":" << r.stats.steal_timeouts
            << ",\"steal_retries\":" << r.stats.steal_retries
            << ",\"token_regens\":" << r.stats.token_regens
            << ",\"net_drops\":" << r.faults.dropped_messages
            << ",\"net_dups\":" << r.faults.duplicated_messages;
    }
    if (options_.schema_version >= 4) {
      *out_ << ",\"backend\":\"" << ws::to_string(c.backend) << "\""
            << ",\"per_node_cost_ns\":"
            << (pr.ok ? static_cast<std::uint64_t>(r.per_node_cost) : 0);
    }
    if (options_.schema_version >= 6) {
      const metrics::ServiceTails tails = metrics::service_tails(r.jobs);
      *out_ << ",\"row\":\"run\""                         //
            << ",\"jobs\":" << r.jobs.size()              //
            << ",\"makespan_p50_ms\":" << fmt_metric(tails.makespan.p50)
            << ",\"makespan_p99_ms\":" << fmt_metric(tails.makespan.p99)
            << ",\"queue_wait_p50_ms\":" << fmt_metric(tails.queue_wait.p50)
            << ",\"queue_wait_p99_ms\":" << fmt_metric(tails.queue_wait.p99)
            << ",\"sched_latency_p50_ms\":"
            << fmt_metric(tails.sched_latency.p50)
            << ",\"sched_latency_p99_ms\":"
            << fmt_metric(tails.sched_latency.p99);
    }
    if (options_.wall_clock) {
      *out_ << ",\"wall_s\":" << fmt_metric(pr.wall_seconds);
    }
    *out_ << "}\n";
    if (options_.schema_version >= 6 && pr.ok) {
      std::string coord_pairs;
      for (const auto& [axis, value] : point.coords) {
        if (!coord_pairs.empty()) coord_pairs += ',';
        coord_pairs +=
            '"' + json_escape(axis) + "\":\"" + json_escape(value) + '"';
      }
      for (const metrics::JobOutcome& j : r.jobs) {
        *out_ << "{\"index\":" << point.index                            //
              << ",\"coords\":{" << coord_pairs << "}"                   //
              << ",\"row\":\"job\""                                     //
              << ",\"fingerprint\":\"" << config_fingerprint(c) << "\""  //
              << ",\"job_id\":" << j.job_id                              //
              << ",\"job_tree\":\"" << json_escape(j.tree) << "\""       //
              << ",\"job_root_seed\":" << j.root_seed                    //
              << ",\"job_base\":" << j.base                              //
              << ",\"job_width\":" << j.width                            //
              << ",\"job_arrival_ms\":"
              << fmt_metric(support::to_millis(j.arrival))  //
              << ",\"job_admit_ms\":"
              << fmt_metric(support::to_millis(j.admit))  //
              << ",\"job_first_compute_ms\":"
              << fmt_metric(support::to_millis(j.first_compute))  //
              << ",\"job_finish_ms\":"
              << fmt_metric(support::to_millis(j.finish))  //
              << ",\"job_queue_wait_ms\":"
              << fmt_metric(support::to_millis(j.queue_wait()))  //
              << ",\"job_sched_latency_ms\":"
              << fmt_metric(support::to_millis(j.sched_latency()))  //
              << ",\"job_makespan_ms\":"
              << fmt_metric(support::to_millis(j.makespan()))        //
              << ",\"job_nodes\":" << j.nodes                        //
              << ",\"job_leaves\":" << j.leaves                      //
              << ",\"job_steal_attempts\":" << j.steal_attempts      //
              << ",\"job_successful_steals\":" << j.successful_steals
              << "}\n";
      }
    }
    return;
  }

  *out_ << point.index << ',' << csv_escape(point.label()) << ','
        << config_fingerprint(c) << ',' << csv_escape(c.tree.name) << ','
        << c.num_ranks << ',' << topo::to_string(c.placement) << ','
        << c.procs_per_node << ',' << ws::to_string(c.ws.victim_policy) << ','
        << ws::to_string(c.ws.steal_amount) << ',' << c.ws.chunk_size << ','
        << c.ws.sha_rounds << ',' << c.ws.seed << ',' << (pr.ok ? 1 : 0) << ','
        << csv_escape(pr.error) << ',' << fmt_metric(runtime_ms) << ','
        << fmt_metric(speedup) << ',' << fmt_metric(efficiency) << ','
        << r.nodes << ',' << r.leaves << ',' << r.stats.steal_attempts << ','
        << r.stats.failed_steals << ',' << r.stats.successful_steals << ','
        << r.stats.sessions << ',' << fmt_metric(r.stats.mean_session_ms)
        << ',' << fmt_metric(r.stats.mean_search_time_s * 1e3) << ','
        << fmt_metric(r.stats.mean_steal_distance) << ','
        << r.network.messages << ',' << r.network.bytes << ','
        << r.engine_events;
  if (options_.schema_version >= 2 && options_.schema_version < 5) {
    *out_ << ',' << r.engine_peak_pending << ',' << r.network.peak_channels;
  }
  if (options_.schema_version >= 3) {
    *out_ << ',' << r.stats.steal_timeouts << ',' << r.stats.steal_retries
          << ',' << r.stats.token_regens << ',' << r.faults.dropped_messages
          << ',' << r.faults.duplicated_messages;
  }
  if (options_.schema_version >= 4) {
    *out_ << ',' << ws::to_string(c.backend) << ','
          << (pr.ok ? static_cast<std::uint64_t>(r.per_node_cost) : 0);
  }
  if (options_.schema_version >= 6) {
    const metrics::ServiceTails tails = metrics::service_tails(r.jobs);
    *out_ << ",run," << r.jobs.size() << ','
          << fmt_metric(tails.makespan.p50) << ','
          << fmt_metric(tails.makespan.p99) << ','
          << fmt_metric(tails.queue_wait.p50) << ','
          << fmt_metric(tails.queue_wait.p99) << ','
          << fmt_metric(tails.sched_latency.p50) << ','
          << fmt_metric(tails.sched_latency.p99)
          << ",0,,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
  }
  if (options_.wall_clock) *out_ << ',' << fmt_metric(pr.wall_seconds);
  *out_ << "\n";
  if (options_.schema_version >= 6 && pr.ok) {
    for (const metrics::JobOutcome& j : r.jobs) {
      // Job rows repeat the point's identity columns, zero the run metrics
      // (28 run-metric cells between `error` and the v6 block) and carry
      // their own job_* cells.
      *out_ << point.index << ',' << csv_escape(point.label()) << ','
            << config_fingerprint(c) << ',' << csv_escape(c.tree.name) << ','
            << c.num_ranks << ',' << topo::to_string(c.placement) << ','
            << c.procs_per_node << ',' << ws::to_string(c.ws.victim_policy)
            << ',' << ws::to_string(c.ws.steal_amount) << ','
            << c.ws.chunk_size << ',' << c.ws.sha_rounds << ',' << c.ws.seed
            << ",1,,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0";
      if (options_.schema_version >= 3) *out_ << ",0,0,0,0,0";
      *out_ << ',' << ws::to_string(c.backend) << ",0"  //
            << ",job,0,0,0,0,0,0,0"                      //
            << ',' << j.job_id << ',' << csv_escape(j.tree) << ','
            << j.root_seed << ',' << j.base << ',' << j.width << ','
            << fmt_metric(support::to_millis(j.arrival)) << ','
            << fmt_metric(support::to_millis(j.admit)) << ','
            << fmt_metric(support::to_millis(j.first_compute)) << ','
            << fmt_metric(support::to_millis(j.finish)) << ','
            << fmt_metric(support::to_millis(j.queue_wait())) << ','
            << fmt_metric(support::to_millis(j.sched_latency())) << ','
            << fmt_metric(support::to_millis(j.makespan())) << ','
            << j.nodes << ',' << j.leaves << ',' << j.steal_attempts << ','
            << j.successful_steals;
      if (options_.wall_clock) *out_ << ",0";
      *out_ << "\n";
    }
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

std::uint64_t to_u64(std::string_view v) {
  return std::strtoull(std::string(v).c_str(), nullptr, 10);
}
double to_f64(std::string_view v) {
  return std::strtod(std::string(v).c_str(), nullptr);
}

/// Assigns one already-unescaped (key, value) pair into a record. Shared by
/// both wire formats; unknown keys are skipped so a v(N+1) file still loads
/// the fields this build knows about.
void assign_field(SweepRecord& r, std::string_view key, std::string_view v) {
  if (key == "index") r.index = to_u64(v);
  else if (key == "point") r.label = std::string(v);
  else if (key == "fingerprint") r.fingerprint = std::string(v);
  else if (key == "tree") r.tree = std::string(v);
  else if (key == "ranks") r.ranks = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "placement") r.placement = std::string(v);
  else if (key == "procs_per_node") r.procs_per_node = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "policy") r.policy = std::string(v);
  else if (key == "steal") r.steal = std::string(v);
  else if (key == "chunk") r.chunk = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "sha_rounds") r.sha_rounds = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "seed") r.seed = to_u64(v);
  else if (key == "ok") r.ok = (v == "true" || v == "1");
  else if (key == "error") r.error = std::string(v);
  else if (key == "runtime_ms") r.runtime_ms = to_f64(v);
  else if (key == "speedup") r.speedup = to_f64(v);
  else if (key == "efficiency") r.efficiency = to_f64(v);
  else if (key == "nodes") r.nodes = to_u64(v);
  else if (key == "leaves") r.leaves = to_u64(v);
  else if (key == "steal_attempts") r.steal_attempts = to_u64(v);
  else if (key == "failed_steals") r.failed_steals = to_u64(v);
  else if (key == "successful_steals") r.successful_steals = to_u64(v);
  else if (key == "sessions") r.sessions = to_u64(v);
  else if (key == "mean_session_ms") r.mean_session_ms = to_f64(v);
  else if (key == "mean_search_ms") r.mean_search_ms = to_f64(v);
  else if (key == "mean_steal_distance") r.mean_steal_distance = to_f64(v);
  else if (key == "net_messages") r.net_messages = to_u64(v);
  else if (key == "net_bytes") r.net_bytes = to_u64(v);
  else if (key == "engine_events") r.engine_events = to_u64(v);
  else if (key == "engine_peak_pending") r.engine_peak_pending = to_u64(v);
  else if (key == "net_peak_channels") r.net_peak_channels = to_u64(v);
  else if (key == "steal_timeouts") r.steal_timeouts = to_u64(v);
  else if (key == "steal_retries") r.steal_retries = to_u64(v);
  else if (key == "token_regens") r.token_regens = to_u64(v);
  else if (key == "net_drops") r.net_drops = to_u64(v);
  else if (key == "net_dups") r.net_dups = to_u64(v);
  else if (key == "backend") r.backend = std::string(v);
  else if (key == "per_node_cost_ns") r.per_node_cost_ns = to_u64(v);
  else if (key == "row") r.row = std::string(v);
  else if (key == "jobs") r.jobs = to_u64(v);
  else if (key == "makespan_p50_ms") r.makespan_p50_ms = to_f64(v);
  else if (key == "makespan_p99_ms") r.makespan_p99_ms = to_f64(v);
  else if (key == "queue_wait_p50_ms") r.queue_wait_p50_ms = to_f64(v);
  else if (key == "queue_wait_p99_ms") r.queue_wait_p99_ms = to_f64(v);
  else if (key == "sched_latency_p50_ms") r.sched_latency_p50_ms = to_f64(v);
  else if (key == "sched_latency_p99_ms") r.sched_latency_p99_ms = to_f64(v);
  else if (key == "job_id") r.job_id = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "job_tree") r.job_tree = std::string(v);
  else if (key == "job_root_seed") r.job_root_seed = to_u64(v);
  else if (key == "job_base") r.job_base = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "job_width") r.job_width = static_cast<std::uint32_t>(to_u64(v));
  else if (key == "job_arrival_ms") r.job_arrival_ms = to_f64(v);
  else if (key == "job_admit_ms") r.job_admit_ms = to_f64(v);
  else if (key == "job_first_compute_ms") r.job_first_compute_ms = to_f64(v);
  else if (key == "job_finish_ms") r.job_finish_ms = to_f64(v);
  else if (key == "job_queue_wait_ms") r.job_queue_wait_ms = to_f64(v);
  else if (key == "job_sched_latency_ms") r.job_sched_latency_ms = to_f64(v);
  else if (key == "job_makespan_ms") r.job_makespan_ms = to_f64(v);
  else if (key == "job_nodes") r.job_nodes = to_u64(v);
  else if (key == "job_leaves") r.job_leaves = to_u64(v);
  else if (key == "job_steal_attempts") r.job_steal_attempts = to_u64(v);
  else if (key == "job_successful_steals") r.job_successful_steals = to_u64(v);
  else if (key == "wall_s") {
    r.has_wall_s = true;
    r.wall_s = to_f64(v);
  }
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
        assign_field(rec, key, value);
      } else {
        assign_field(rec, key, scan_token());
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
          const auto code = std::strtoul(
              std::string(s_.substr(i_, 4)).c_str(), nullptr, 16);
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

/// Splits one CSV row with the writer's quoting rules ("" escapes a quote).
std::vector<std::string> split_csv_row(std::string_view line) {
  std::vector<std::string> cells;
  std::string cell;
  bool quoted = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else {
          quoted = false;
        }
      } else {
        cell += c;
      }
    } else if (c == '"') {
      quoted = true;
    } else if (c == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else {
      cell += c;
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

support::Status parse_version(std::string_view line, std::string_view prefix,
                              int& version) {
  const auto pos = line.find(prefix);
  if (pos == std::string_view::npos) {
    return support::Status::error(
        "record parse: missing schema/version in header line");
  }
  version = static_cast<int>(to_u64(line.substr(pos + prefix.size())));
  if (version < kRecordMinSchemaVersion || version > kRecordSchemaVersion) {
    return support::Status::error(
        "record parse: unsupported schema version " +
        std::to_string(version) + " (this build reads " +
        std::to_string(kRecordMinSchemaVersion) + ".." +
        std::to_string(kRecordSchemaVersion) + ")");
  }
  return support::Status::ok();
}

}  // namespace

support::Expected<RecordFile> read_records(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) {
    return support::Expected<RecordFile>::failure("record parse: empty input");
  }

  RecordFile file;
  if (!line.empty() && line[0] == '{') {
    file.format = RecordFormat::kJsonl;
    if (line.find("\"schema\":\"dws.exp.sweep\"") == std::string::npos) {
      return support::Expected<RecordFile>::failure(
          "record parse: first line is not a dws.exp.sweep meta line");
    }
    if (const auto st = parse_version(line, "\"version\":", file.version);
        !st) {
      return support::Expected<RecordFile>::failure(st);
    }
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      SweepRecord rec;
      if (const auto st = JsonCursor(line).parse_into(rec); !st) {
        return support::Expected<RecordFile>::failure(st);
      }
      file.records.push_back(std::move(rec));
    }
    return file;
  }

  if (line.rfind("# schema=dws.exp.sweep", 0) != 0) {
    return support::Expected<RecordFile>::failure(
        "record parse: first line is neither a JSONL meta line nor a CSV "
        "schema comment");
  }
  file.format = RecordFormat::kCsv;
  if (const auto st = parse_version(line, "version=", file.version); !st) {
    return support::Expected<RecordFile>::failure(st);
  }
  if (!std::getline(in, line)) {
    return support::Expected<RecordFile>::failure(
        "record parse: missing CSV header row");
  }
  const std::vector<std::string> columns = split_csv_row(line);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> cells = split_csv_row(line);
    if (cells.size() != columns.size()) {
      return support::Expected<RecordFile>::failure(
          "record parse: row has " + std::to_string(cells.size()) +
          " cells, header has " + std::to_string(columns.size()));
    }
    SweepRecord rec;
    for (std::size_t i = 0; i < columns.size(); ++i) {
      assign_field(rec, columns[i], cells[i]);
    }
    file.records.push_back(std::move(rec));
  }
  return file;
}

}  // namespace dws::exp
