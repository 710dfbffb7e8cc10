/// parallel_core: sharded-simulator scaling bench — the paper at 8192 ranks
/// on one machine (DESIGN.md §12's acceptance run).
///
/// Runs one paper-scale configuration (SIM2M, 8192 ranks, Reference 1/N,
/// windowed congestion on — the model the real figures use, shardable since
/// its state moved into the barrier-drained ledger) at sim_shards 1, 2, 4
/// and 8, reporting wall-clock, engine events/s and UTS nodes/s per shard
/// count, and cross-checks that every shard count produced the same
/// virtual-time run (same nodes, same engine events, merge_ambiguities ==
/// 0). One shard count additionally repeats under the full audit observer,
/// so the committed numbers always come from a machine where the audited run
/// passes. A closing fig09/11-style comparison then runs the paper-scale
/// point for the two headline series (Reference 1/N vs Tofu Half 8G) under
/// --sim-shards 4 — the congestion sweep the sharded core existed to unlock.
///
/// The results merge into BENCH_core.json as a "parallel" section next to
/// micro_core's serial baseline. Speedup is only meaningful when the host
/// grants real cores: shard threads on a 1-core container time-slice, and
/// the report records host_cores so readers (and the CI gate) can tell
/// starvation from regression. `--assert-speedup=R` exits nonzero when the
/// best sharded events/s is below R x the 1-shard rate — unless the host has
/// fewer than 4 cores, where the gate prints SKIP and passes (the CI
/// parallel-smoke job relies on this, plus the skip-perf label bypass).
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "audit/audit.hpp"
#include "exp/args.hpp"
#include "support/table.hpp"
#include "uts/params.hpp"
#include "ws/scheduler.hpp"

namespace {

using namespace dws;

struct Point {
  std::uint32_t shards = 1;
  double wall_s = 0.0;
  double events_per_sec = 0.0;
  double nodes_per_sec = 0.0;
  ws::RunResult result;
};

double wall_seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

Point run_point(ws::RunConfig cfg, std::uint32_t shards) {
  cfg.sim_shards = shards;
  Point p;
  p.shards = shards;
  const auto t0 = std::chrono::steady_clock::now();
  p.result = ws::run_simulation(cfg);
  p.wall_s = wall_seconds_since(t0);
  p.events_per_sec =
      static_cast<double>(p.result.engine_events) / p.wall_s;
  p.nodes_per_sec = static_cast<double>(p.result.nodes) / p.wall_s;
  return p;
}

/// Merge the "parallel" section into an existing dws.bench.core report (or
/// start a fresh one). The section is always the LAST key this tool writes,
/// so replacing an old section means truncating from the comma before
/// "parallel" and re-closing the object.
int write_report(const std::string& path, const std::string& section) {
  std::string content;
  {
    std::ifstream in(path);
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      content = buf.str();
    }
  }
  if (content.empty()) {
    content = "{\"schema\":\"dws.bench.core\",\"version\":2";
  } else {
    const auto parallel = content.find("\"parallel\":");
    std::size_t cut = std::string::npos;
    if (parallel != std::string::npos) {
      cut = content.rfind(',', parallel);
    } else {
      cut = content.rfind('}');
    }
    if (cut == std::string::npos) {
      std::fprintf(stderr, "parallel_core: %s is not a JSON object\n",
                   path.c_str());
      return 1;
    }
    content.erase(cut);
  }
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "parallel_core: cannot write %s\n", path.c_str());
    return 1;
  }
  out << content << ",\n \"parallel\":" << section << "}\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  bool quick = false;
  bool audit_pass = true;
  double assert_speedup = 0.0;
  std::string report_path = "BENCH_core.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--quick") {
      quick = true;
    } else if (arg == "--no-audit") {
      audit_pass = false;
    } else if (arg == "--no-report") {
      report_path.clear();
    } else if (arg.rfind("--report=", 0) == 0) {
      report_path = arg.substr(std::strlen("--report="));
    } else if (arg.rfind("--assert-speedup=", 0) == 0) {
      const std::string value = arg.substr(std::strlen("--assert-speedup="));
      if (const auto st = exp::parse_f64("--assert-speedup", value,
                                         &assert_speedup);
          !st || !(assert_speedup > 0.0)) {
        std::fprintf(stderr,
                     "parallel_core: --assert-speedup needs a positive ratio, "
                     "got '%s'\n",
                     value.c_str());
        return 2;
      }
    } else {
      std::fprintf(stderr,
                   "usage: parallel_core [--quick] [--no-audit] [--no-report]"
                   " [--report=PATH] [--assert-speedup=R]\n");
      return 2;
    }
  }

  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name(quick ? "SIM200K" : "SIM2M");
  cfg.num_ranks = quick ? 512 : 8192;
  cfg.ws.chunk_size = 4;
  cfg.ws.victim_policy = ws::VictimPolicy::kRoundRobin;
  cfg.ws.steal_amount = ws::StealAmount::kOneChunk;
  cfg.placement = topo::Placement::kOnePerNode;
  // Windowed congestion, as the figure harness runs it: the ledger is
  // shard-deterministic, so every shard count (including 1) runs the same
  // congested virtual time and the points stay comparable.
  cfg.enable_congestion(1.0);

  const unsigned cores = std::thread::hardware_concurrency();
  std::printf("parallel_core: %s, %u ranks, host cores %u%s\n",
              cfg.tree.name.c_str(), cfg.num_ranks, cores,
              quick ? " (quick)" : "");

  const std::vector<std::uint32_t> shard_counts{1, 2, 4, 8};
  std::vector<Point> points;
  support::Table table({"shards", "wall s", "events/s", "nodes/s", "speedup",
                        "ambiguities"});
  for (const std::uint32_t s : shard_counts) {
    const Point p = run_point(cfg, s);
    const double speedup =
        points.empty() ? 1.0 : p.events_per_sec / points[0].events_per_sec;
    table.add_row({support::fmt(std::uint64_t{s}), support::fmt(p.wall_s, 2),
                   support::fmt(p.events_per_sec, 0),
                   support::fmt(p.nodes_per_sec, 0), support::fmt(speedup, 2),
                   support::fmt(p.result.merge_ambiguities)});
    points.push_back(p);
  }
  std::printf("%s", table.render().c_str());

  // Differential cross-check: the shard count is an execution strategy, so
  // every point must be the same virtual run.
  bool identical = true;
  for (const Point& p : points) {
    identical = identical && p.result.nodes == points[0].result.nodes &&
                p.result.engine_events == points[0].result.engine_events &&
                p.result.runtime == points[0].result.runtime &&
                p.result.merge_ambiguities == 0;
  }
  std::printf("cross-check: %s\n",
              identical ? "all shard counts identical (virtual time, events,"
                          " nodes; 0 ambiguities)"
                        : "DIVERGENCE between shard counts");

  bool audit_ok = true;
  const std::uint32_t audit_shards = quick ? 4 : 8;
  if (audit_pass) {
    ws::RunConfig audited_cfg = cfg;
    audited_cfg.sim_shards = audit_shards;
    const audit::AuditedResult audited = audit::audited_run(audited_cfg);
    audit_ok = audited.report.ok() &&
               audited.result.nodes == points[0].result.nodes &&
               audited.result.merge_ambiguities == 0;
    std::printf("audited run (%u shards): %s\n", audit_shards,
                audit_ok ? "OK" : "FAIL");
    if (!audited.report.ok()) {
      std::fprintf(stderr, "%s\n", audited.report.summary().c_str());
    }
  }

  // Fig09/11-style paper point: the two headline series of the congestion
  // figures, both at 4 shards. The distance-skewed policy's advantage under
  // fabric load is the effect the paper measures; printing it here proves
  // the full congested comparison now runs at paper scale under sharding.
  std::printf("\nfig09/11-style congested comparison (%u ranks, 4 shards):\n",
              cfg.num_ranks);
  const Point ref4 = run_point(cfg, 4);
  ws::RunConfig tofu_cfg = cfg;
  tofu_cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  tofu_cfg.ws.steal_amount = ws::StealAmount::kHalf;
  tofu_cfg.placement = topo::Placement::kGrouped;
  tofu_cfg.procs_per_node = 8;
  tofu_cfg.enable_congestion(1.0);  // re-anchor capacity to the 8G allocation
  const Point tofu4 = run_point(tofu_cfg, 4);
  const double tofu_speedup = static_cast<double>(ref4.result.runtime) /
                              static_cast<double>(tofu4.result.runtime);
  support::Table paper({"series", "virtual ms", "wall s", "max load hops",
                        "vs Reference"});
  paper.add_row({"Reference 1/N",
                 support::fmt(static_cast<double>(ref4.result.runtime) / 1e6, 1),
                 support::fmt(ref4.wall_s, 2),
                 support::fmt(ref4.result.network.max_load_hops, 0), "1.00"});
  paper.add_row({"Tofu Half 8G",
                 support::fmt(static_cast<double>(tofu4.result.runtime) / 1e6, 1),
                 support::fmt(tofu4.wall_s, 2),
                 support::fmt(tofu4.result.network.max_load_hops, 0),
                 support::fmt(tofu_speedup, 2)});
  std::printf("%s", paper.render().c_str());

  if (!report_path.empty()) {
    std::ostringstream section;
    section << "{\"tree\":\"" << cfg.tree.name << "\",\"ranks\":"
            << cfg.num_ranks << ",\"host_cores\":" << cores
            << ",\n  \"note\":\"points with shards > host_cores time-slice"
               " their shard threads on this host; any slowdown there"
               " measures oversubscription, not a sharded-engine"
               " regression\","
            << "\n  \"quick\":" << (quick ? "true" : "false")
            << ",\"congestion\":true,\n  \"points\":[";
    for (std::size_t i = 0; i < points.size(); ++i) {
      const Point& p = points[i];
      char buf[224];
      std::snprintf(buf, sizeof(buf),
                    "%s\n   {\"shards\":%u,\"host_cores\":%u,"
                    "\"oversubscribed\":%s,\"wall_s\":%.4g,"
                    "\"events_per_sec\":%.6g,\"nodes_per_sec\":%.6g}",
                    i ? "," : "", p.shards, cores,
                    p.shards > cores ? "true" : "false", p.wall_s,
                    p.events_per_sec, p.nodes_per_sec);
      section << buf;
    }
    char paper_buf[200];
    std::snprintf(paper_buf, sizeof(paper_buf),
                  ",\n  \"paper_point\":{\"reference_runtime_ns\":%llu,"
                  "\"tofu_half_8g_runtime_ns\":%llu,\"tofu_speedup\":%.4g}",
                  static_cast<unsigned long long>(ref4.result.runtime),
                  static_cast<unsigned long long>(tofu4.result.runtime),
                  tofu_speedup);
    section << "],\n  \"engine_events\":" << points[0].result.engine_events
            << ",\"nodes\":" << points[0].result.nodes
            << ",\"identical_across_shards\":" << (identical ? "true" : "false")
            << ",\"audit_shards\":" << (audit_pass ? audit_shards : 0)
            << ",\"audit_ok\":" << (audit_ok ? "true" : "false") << paper_buf
            << "}";
    if (write_report(report_path, section.str()) != 0) return 1;
    std::printf("merged \"parallel\" section into %s\n", report_path.c_str());
  }

  if (!identical || !audit_ok) {
    std::printf("RESULT: FAIL\n");
    return 1;
  }
  if (assert_speedup > 0.0) {
    if (cores < 4) {
      std::printf("RESULT: SKIP (speedup gate needs >= 4 host cores, have %u;"
                  " shard threads would time-slice)\n", cores);
      return 0;
    }
    double at4 = 0.0;
    for (const Point& p : points) {
      if (p.shards == 4) at4 = p.events_per_sec;
    }
    const double ratio = at4 / points[0].events_per_sec;
    if (ratio < assert_speedup) {
      std::printf("RESULT: FAIL (4-shard speedup %.2fx < required %.2fx)\n",
                  ratio, assert_speedup);
      return 1;
    }
    std::printf("RESULT: OK (4-shard speedup %.2fx >= %.2fx)\n", ratio,
                assert_speedup);
    return 0;
  }
  std::printf("RESULT: OK\n");
  return 0;
}
