/// uts_cli: a UTS-compatible command line front end. Accepts the classic UTS
/// tree flags and runs the tree through the sequential enumerator or the
/// distributed work-stealing scheduler, on the simulator or, with
/// --backend rt, on real threads.
///
///   ./uts_cli -t 0 -b 2000 -q 0.495 -m 2 -r 5 -e sim -n 128
///   ./uts_cli --tree SIMWL --engine sim --ranks 512 --policy tofu --out run.jsonl
///
/// Flags follow the suite-wide exp::ArgSpec vocabulary (--ranks, --policy,
/// --tree, --seed, --out); the classic UTS single-letter spellings are kept
/// as short aliases. Run with --help for the full list.
#include <cstdio>
#include <fstream>
#include <string>
#include <string_view>

#include "audit/audit.hpp"
#include "exp/args.hpp"
#include "exp/record.hpp"
#include "exp/runner.hpp"
#include "exp/sweep.hpp"
#include "metrics/occupancy.hpp"
#include "metrics/service_stats.hpp"
#include "svc/service.hpp"
#include "uts/params.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace dws;

  uts::TreeParams tree;
  tree.name = "cli";
  tree.type = uts::TreeType::kBinomial;
  tree.root_seed = 5;
  tree.root_branching = 2000;
  tree.m = 2;
  tree.q = 0.495;  // defaults = SIM200K
  tree.gen_mx = 10;

  std::string catalogue;
  std::string engine = "seq";
  std::string backend = "sim";
  std::uint32_t n = 4;
  std::string out;
  std::uint32_t tree_type = 0;
  std::uint32_t shape = 0;
  double congestion_scale = 1.0;
  bool run_audit = false;
  bool service = false;
  std::uint64_t arrival_mean = 0;
  std::string arrival_trace;
  std::string alloc = "space";
  std::string job_mix;
  std::uint64_t steal_timeout = 0;
  std::uint64_t token_timeout = 0;
  std::uint64_t pause_duration = 0;
  std::uint64_t pause_window = 0;
  ws::RunConfig sim_cfg;
  sim_cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  sim_cfg.ws.steal_amount = ws::StealAmount::kHalf;
  sim_cfg.ws.chunk_size = 20;

  exp::ArgSpec spec(argv[0],
                    "run a UTS tree through the sequential enumerator or the "
                    "distributed work-stealing engine");
  spec.str("--tree", "", "catalogue tree name (overrides the -t/-b/... flags)",
           &catalogue)
      .u32("--type", "-t", "tree type: 0 binomial, 1 geometric, 2 hybrid",
           &tree_type)
      .u32("--branching", "-b", "root branching factor b0",
           &tree.root_branching)
      .f64("--prob", "-q", "binomial success probability", &tree.q)
      .u32("--mult", "-m", "binomial children per success", &tree.m)
      .u32("--root-seed", "-r", "root seed", &tree.root_seed)
      .u32("--depth", "-d", "geometric/hybrid depth cutoff (gen_mx)",
           &tree.gen_mx)
      .u32("--shape", "-a",
           "geometric shape: 0 linear, 1 expdec, 2 cyclic, 3 fixed", &shape)
      .u32("--granularity", "-g", "SHA rounds charged per node (sim engine)",
           &sim_cfg.ws.sha_rounds)
      .str("--engine", "-e", "engine: seq|sim (default seq)", &engine)
      .str("--backend", "",
           "work-stealing backend for --engine sim: sim (virtual-time "
           "simulator, default) or rt (real threads, wall-clock time)",
           &backend)
      .u32("--ranks", "-n",
           "ranks (sim; threads with --backend rt), default 4", &n)
      .option("--policy", "-v", "P",
              std::string("victim policy (sim): ") + exp::policy_flag_values(),
              [&](std::string_view v) -> support::Status {
                auto p = exp::parse_policy(v);
                if (!p) return support::Status::error(p.error());
                sim_cfg.ws.victim_policy = p.value();
                return support::Status::ok();
              })
      .option("--steal", "-s", "S",
              std::string("steal amount (sim): ") + exp::steal_flag_values(),
              [&](std::string_view v) -> support::Status {
                auto s = exp::parse_steal(v);
                if (!s) return support::Status::error(s.error());
                sim_cfg.ws.steal_amount = s.value();
                return support::Status::ok();
              })
      .u32("--chunk", "-c", "chunk size (sim), default 20 (the UTS default)",
           &sim_cfg.ws.chunk_size)
      .u64("--seed", "", "work-stealing RNG seed (sim), default 1",
           &sim_cfg.ws.seed)
      .option("--placement", "", "P",
              std::string("rank placement (sim): ") +
                  exp::placement_flag_values(),
              [&](std::string_view v) -> support::Status {
                auto p = exp::parse_placement(v);
                if (!p) return support::Status::error(p.error());
                sim_cfg.placement = p.value();
                return support::Status::ok();
              })
      .u32("--ppn", "", "processes per node (sim), default 1",
           &sim_cfg.procs_per_node)
      .u32("--origin-cube", "", "allocation origin cube (sim), default 0",
           &sim_cfg.origin_cube)
      .u32("--sim-shards", "",
           "parallel simulator shards (sim), default 1; results are "
           "shard-count invariant",
           &sim_cfg.sim_shards)
      .option("--idle", "", "I",
              std::string("idle policy (sim): ") + exp::idle_flag_values(),
              [&](std::string_view v) -> support::Status {
                auto p = exp::parse_idle(v);
                if (!p) return support::Status::error(p.error());
                sim_cfg.ws.idle_policy = p.value();
                return support::Status::ok();
              })
      .u32("--lifeline-tries", "",
           "failed steals before going dormant (sim, --idle lifeline)",
           &sim_cfg.ws.lifeline_tries)
      .u32("--local-tries", "",
           "hier policy: local picks per remote pick (sim), default 2",
           &sim_cfg.ws.hierarchical_local_tries)
      .u32("--remote-tries", "",
           "hier policy: remote picks per schedule period (sim), default 1",
           &sim_cfg.ws.hierarchical_remote_tries)
      .f64("--adapt-decay", "",
           "adaptive policy/amount: EWMA step in (0,1] (sim), default 0.25",
           &sim_cfg.ws.adapt_decay)
      .f64("--adapt-epsilon", "",
           "adaptive policy: exploration probability in (0,1] (sim), "
           "default 0.1",
           &sim_cfg.ws.adapt_epsilon)
      .u32("--adapt-refresh", "",
           "adaptive policy: feedback events per alias rebuild (sim), "
           "default 32",
           &sim_cfg.ws.adapt_refresh_interval)
      .toggle("--adaptive-amount", "",
              "switch steal-half vs steal-one on the thief's yield EWMA (sim)",
              &sim_cfg.ws.adaptive_steal_amount)
      .u32("--adapt-yield-threshold", "",
           "adaptive amount: yield threshold in nodes, 0 = 2*chunk (sim)",
           &sim_cfg.ws.adapt_yield_threshold)
      .toggle("--one-sided", "", "service steals at arrival (sim)",
              &sim_cfg.ws.one_sided_steals)
      .u32("--poll", "", "nodes expanded between message polls (sim)",
           &sim_cfg.ws.poll_interval)
      .f64("--congestion", "",
           "congestion capacity scale (sim), 0 disables, default 1.0",
           &congestion_scale)
      .u32("--alias-max", "",
           "tofu policy: max ranks using the alias-table backend (sim)",
           &sim_cfg.ws.alias_table_max_ranks)
      .u64("--steal-timeout", "",
           "abandon an unanswered steal request after this many ns (sim), "
           "0 disables",
           &steal_timeout)
      .u32("--steal-retry-max", "",
           "same-victim retries after a steal timeout (sim), default 3",
           &sim_cfg.ws.steal_retry_max)
      .f64("--steal-backoff", "",
           "timeout multiplier per retry (sim), default 2.0",
           &sim_cfg.ws.steal_backoff)
      .u64("--token-timeout", "",
           "regenerate an unreturned termination token after this many ns "
           "(sim), 0 disables",
           &token_timeout)
      .f64("--fault-drop", "", "droppable-message loss probability (sim)",
           &sim_cfg.fault.drop_prob)
      .f64("--fault-dup", "", "message duplication probability (sim)",
           &sim_cfg.fault.dup_prob)
      .f64("--fault-jitter", "",
           "max fractional latency jitter per message (sim)",
           &sim_cfg.fault.jitter_frac)
      .f64("--fault-degraded-frac", "",
           "fraction of channels with degraded latency (sim)",
           &sim_cfg.fault.degraded_frac)
      .f64("--fault-degraded-mult", "",
           "latency multiplier on degraded channels (sim), default 3.0",
           &sim_cfg.fault.degraded_mult)
      .u32("--fault-stragglers", "",
           "ranks with scaled-up node cost (sim)",
           &sim_cfg.fault.straggler_ranks)
      .f64("--fault-straggler-factor", "",
           "node-cost multiplier on straggler ranks (sim), default 4.0",
           &sim_cfg.fault.straggler_factor)
      .u32("--fault-pauses", "", "ranks that take one transient pause (sim)",
           &sim_cfg.fault.pause_ranks)
      .u64("--fault-pause-duration", "", "pause length in ns (sim)",
           &pause_duration)
      .u64("--fault-pause-window", "",
           "pauses start uniformly in [0, window] ns (sim)", &pause_window)
      .u64("--fault-seed", "", "fault-injector RNG seed (sim), default 1",
           &sim_cfg.fault.seed)
      .toggle("--service", "",
              "multi-tenant service mode (sim): run a stream of jobs through "
              "the scheduler-as-a-service layer instead of one tree",
              &service)
      .u32("--jobs", "", "service: number of jobs (Poisson arrivals)",
           &sim_cfg.svc.num_jobs)
      .u64("--svc-seed", "",
           "service: root seed of arrivals and per-job trees, default 1",
           &sim_cfg.svc.seed)
      .u64("--arrival-mean", "",
           "service: mean Poisson inter-arrival gap in ns", &arrival_mean)
      .str("--arrival-trace", "",
           "service: explicit arrival times in ns, comma separated "
           "(overrides --arrival-mean/--jobs)",
           &arrival_trace)
      .str("--alloc", "",
           "service allocation policy: space (default) or time", &alloc)
      .u32("--ranks-per-job", "",
           "service, --alloc space: exclusive block width per job",
           &sim_cfg.svc.ranks_per_job)
      .str("--job-mix", "",
           "service: weighted tree mix 'name:w,name:w' (default: every job "
           "runs the configured tree)",
           &job_mix)
      .toggle("--audit", "",
              "run the dws::audit invariant checker (sim); exit 1 on "
              "violations (DWS_AUDIT=1 does the same)",
              &run_audit)
      .str("--out", "-o", "write one structured record (sim engine)", &out);
  if (const auto status = spec.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    return 2;
  }
  if (spec.help_requested()) return 0;
  if (engine != "seq" && engine != "sim") {
    std::fprintf(stderr, "--engine must be seq|sim\n");
    return 2;
  }
  if (tree_type > 2) {
    std::fprintf(stderr, "--type must be 0, 1 or 2\n");
    return 2;
  }
  if (shape > 3) {
    std::fprintf(stderr, "--shape must be 0..3\n");
    return 2;
  }
  tree.type = static_cast<uts::TreeType>(tree_type);
  tree.shape = static_cast<uts::GeoShape>(shape);
  if (!catalogue.empty()) {
    const uts::TreeParams* named = uts::find_tree(catalogue);
    if (named == nullptr) {
      std::fprintf(stderr, "unknown catalogue tree '%s'\n", catalogue.c_str());
      return 2;
    }
    tree = *named;
  }

  // Guard against supercritical binomial parameters: the walk would never
  // end. (Geometric trees are always finite thanks to gen_mx.)
  if (tree.type == uts::TreeType::kBinomial &&
      static_cast<double>(tree.m) * tree.q >= 1.0) {
    std::fprintf(stderr,
                 "binomial tree with m*q >= 1 is (almost surely) infinite\n");
    return 2;
  }

  std::printf("tree: type=%s b0=%u m=%u q=%g r=%u gen_mx=%u shape=%s\n",
              uts::to_string(tree.type), tree.root_branching, tree.m, tree.q,
              tree.root_seed, tree.gen_mx, uts::to_string(tree.shape));
  if (const auto expected = tree.expected_size()) {
    std::printf("expected size E = %.3g nodes\n", *expected);
  }

  if (engine != "sim" && !out.empty()) {
    std::fprintf(stderr,
                 "warning: --out only applies to the sim engine "
                 "(--engine sim); no record written\n");
  }

  if (engine == "seq") {
    const auto s = uts::enumerate_sequential(tree, 500'000'000ull);
    std::printf("engine: sequential\n");
    std::printf("nodes=%llu leaves=%llu depth=%u%s\n",
                static_cast<unsigned long long>(s.nodes),
                static_cast<unsigned long long>(s.leaves), s.max_depth,
                s.truncated ? " (TRUNCATED at limit)" : "");
  } else {
    if (backend == "rt") {
      sim_cfg.backend = ws::Backend::kRt;
    } else if (backend != "sim") {
      std::fprintf(stderr, "--backend must be sim|rt\n");
      return 2;
    }
    sim_cfg.tree = tree;
    sim_cfg.num_ranks = n;
    sim_cfg.ws.steal_timeout = static_cast<support::SimTime>(steal_timeout);
    sim_cfg.ws.token_timeout = static_cast<support::SimTime>(token_timeout);
    sim_cfg.fault.pause_duration =
        static_cast<support::SimTime>(pause_duration);
    sim_cfg.fault.pause_window = static_cast<support::SimTime>(pause_window);
    // Congestion is a simulator model; the native runtime has a real memory
    // system, so keep it out of rt configs (and their records).
    if (congestion_scale > 0.0 && sim_cfg.backend == ws::Backend::kSim) {
      sim_cfg.enable_congestion(congestion_scale);
    }
    if (service) {
      sim_cfg.svc.enabled = true;
      sim_cfg.svc.mean_interarrival =
          static_cast<support::SimTime>(arrival_mean);
      if (!arrival_trace.empty()) {
        sim_cfg.svc.arrival = svc::ArrivalKind::kTrace;
        for (const std::string& cell : exp::split_list(arrival_trace)) {
          support::SimTime t = 0;
          if (const auto st = exp::parse_number("--arrival-trace", cell, &t);
              !st) {
            std::fprintf(stderr, "%s\n", st.message().c_str());
            return 2;
          }
          sim_cfg.svc.trace.push_back(t);
        }
      }
      if (alloc == "time") {
        sim_cfg.svc.alloc = svc::AllocPolicy::kTimeShare;
      } else if (alloc != "space") {
        std::fprintf(stderr, "--alloc must be space|time\n");
        return 2;
      }
      for (const std::string& entry : exp::split_list(job_mix)) {
        const auto colon = entry.find(':');
        svc::JobMixEntry e;
        e.tree = entry.substr(0, colon);
        if (colon != std::string::npos) {
          if (const auto st = exp::parse_f64(
                  "--job-mix", std::string_view(entry).substr(colon + 1),
                  &e.weight);
              !st) {
            std::fprintf(stderr, "%s\n", st.message().c_str());
            return 2;
          }
        }
        sim_cfg.svc.mix.push_back(std::move(e));
      }
    }
    if (const auto status = sim_cfg.validate(); !status) {
      std::fprintf(stderr, "invalid simulation config: %s\n",
                   status.message().c_str());
      return 2;
    }

    ws::RunResult r;
    if (sim_cfg.svc.enabled) {
      if (run_audit || audit::env_enabled()) {
        r = svc::checked_service_run(sim_cfg);
        std::printf("service audit: per-job conservation and sequential "
                    "oracle passed (%zu jobs)\n",
                    r.jobs.size());
      } else {
        r = svc::run_service(sim_cfg);
      }
    } else if (run_audit || audit::env_enabled()) {
      const audit::AuditedResult audited =
          audit::audited_run(sim_cfg, audit::AuditConfig::all());
      std::printf("%s\n", audited.report.summary().c_str());
      if (!audited.report.ok()) return 1;
      r = audited.result;
    } else {
      r = exp::run_backend(sim_cfg);
    }
    // Service runs never record traces (one trace per job would be the svc
    // follow-on); occupancy is a trace-derived metric.
    const double peak_occupancy =
        r.trace.ranks.empty()
            ? 0.0
            : metrics::OccupancyCurve(r.trace).max_occupancy();
    std::printf("engine: distributed %s, %u ranks, %s/%s, chunk %u\n",
                sim_cfg.backend == ws::Backend::kRt
                    ? "native runtime (real threads)"
                    : "simulator",
                n, ws::to_string(sim_cfg.ws.victim_policy),
                ws::to_string(sim_cfg.ws.steal_amount), sim_cfg.ws.chunk_size);
    std::printf("nodes=%llu leaves=%llu\n",
                static_cast<unsigned long long>(r.nodes),
                static_cast<unsigned long long>(r.leaves));
    std::printf("runtime=%.3fms speedup=%.1f efficiency=%.1f%% "
                "failed_steals=%llu peak_occupancy=%.1f%%\n",
                support::to_millis(r.runtime), r.speedup(),
                100.0 * r.efficiency(),
                static_cast<unsigned long long>(r.stats.failed_steals),
                100.0 * peak_occupancy);
    if (sim_cfg.svc.enabled) {
      const metrics::ServiceTails tails = metrics::service_tails(r.jobs);
      std::printf("service: %zu jobs, %s/%s\n", r.jobs.size(),
                  svc::to_string(sim_cfg.svc.arrival),
                  svc::to_string(sim_cfg.svc.alloc));
      std::printf("  makespan p50=%.3fms p99=%.3fms  queue_wait p50=%.3fms "
                  "p99=%.3fms  sched_latency p50=%.3fms p99=%.3fms\n",
                  tails.makespan.p50, tails.makespan.p99, tails.queue_wait.p50,
                  tails.queue_wait.p99, tails.sched_latency.p50,
                  tails.sched_latency.p99);
      for (const metrics::JobOutcome& j : r.jobs) {
        std::printf("  job %3u %-10s ranks[%u..%u) arrival=%.3fms "
                    "wait=%.3fms makespan=%.3fms nodes=%llu\n",
                    j.job_id, j.tree.c_str(), j.base, j.base + j.width,
                    support::to_millis(j.arrival),
                    support::to_millis(j.queue_wait()),
                    support::to_millis(j.makespan()),
                    static_cast<unsigned long long>(j.nodes));
      }
    }
    if (!out.empty()) {
      std::ofstream file(out);
      if (!file) {
        std::fprintf(stderr, "cannot open --out file '%s'\n", out.c_str());
        return 1;
      }
      exp::RecordWriter writer(file, {});
      writer.write_header();
      exp::PointResult point_result;
      point_result.ok = true;
      point_result.result = r;
      writer.write(exp::SweepPoint{0, {}, sim_cfg}, point_result);
      std::printf("record written to %s\n", out.c_str());
    }
  }
  return 0;
}
