#include "exp/figures.hpp"

#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>

#include "exp/args.hpp"
#include "support/sim_time.hpp"
#include "uts/params.hpp"

namespace dws::exp {
namespace {

FigureOptions g_options;
bool g_options_initialised = false;

/// A positive whole number from the environment, else `fallback`. A value
/// that is not a whole number is named on stderr; 0 means the default.
std::uint32_t env_u32(const char* name, std::uint32_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  std::uint32_t parsed = 0;
  if (const auto st = parse_number(name, v, &parsed); !st) {
    std::fprintf(stderr, "warning: %s; using %u\n", st.message().c_str(),
                 fallback);
    return fallback;
  }
  return parsed > 0 ? parsed : fallback;
}

FigureOptions options_from_env() {
  FigureOptions opts;
  const char* quick = std::getenv("DWS_BENCH_QUICK");
  opts.quick = quick != nullptr && quick[0] == '1';
  opts.seeds = env_u32("DWS_BENCH_SEEDS", opts.seeds);
  opts.threads = env_u32("DWS_BENCH_THREADS", opts.threads);
  opts.sim_shards = env_u32("DWS_BENCH_SHARDS", opts.sim_shards);
  return opts;
}

ws::RunConfig base_config(const char* tree) {
  ws::RunConfig cfg;
  cfg.tree = uts::tree_by_name(tree);
  // Chunk granularity scaled with the trees (20 on 10^9-node trees -> 4 on
  // ~10^6-node trees); congestion on: see the header note. Capacity
  // re-anchors to the final rank count at run time, so sweep axes may set
  // ranks/placement after this.
  cfg.ws.chunk_size = 4;
  cfg.enable_congestion(1.0);
  cfg.sim_shards = figure_options().sim_shards;
  return cfg;
}

}  // namespace

void apply_variant(const Variant& v, ws::RunConfig& cfg) {
  cfg.ws.victim_policy = v.policy;
  cfg.ws.steal_amount = v.amount;
}

void apply_alloc(const Alloc& a, ws::RunConfig& cfg) {
  cfg.placement = a.placement;
  cfg.procs_per_node = a.procs_per_node;
}

Series make_series(const Variant& v, const Alloc& a) {
  return Series{v, a, std::string(v.label) + " " + a.label};
}

Axis variant_axis(const std::vector<Variant>& variants) {
  Axis axis{"variant", {}};
  for (const Variant& v : variants) {
    axis.points.push_back({v.label, [v](ws::RunConfig& cfg) { apply_variant(v, cfg); }});
  }
  return axis;
}

Axis alloc_axis(const std::vector<Alloc>& allocs) {
  Axis axis{"alloc", {}};
  for (const Alloc& a : allocs) {
    axis.points.push_back({a.label, [a](ws::RunConfig& cfg) { apply_alloc(a, cfg); }});
  }
  return axis;
}

Axis series_axis(const std::vector<Series>& series) {
  Axis axis{"series", {}};
  for (const Series& s : series) {
    axis.points.push_back({s.label, [s](ws::RunConfig& cfg) {
                             apply_variant(s.variant, cfg);
                             apply_alloc(s.alloc, cfg);
                           }});
  }
  return axis;
}

void figure_init(int argc, char** argv, const char* figure,
                 const char* caption) {
  FigureOptions opts = options_from_env();
  std::string format = "jsonl";
  ArgSpec spec(argv != nullptr && argc > 0 ? argv[0] : "bench", caption);
  spec.toggle("--quick", "", "trim sweeps for fast iteration", &opts.quick)
      .u32("--seeds", "", "seeds averaged per point (default 3)", &opts.seeds)
      .u32("--threads", "", "sweep worker threads (default: all cores)",
           &opts.threads)
      .u32("--sim-shards", "", "engine shards per run (default 1)",
           &opts.sim_shards)
      .str("--out", "-o", "write one record per run to this file", &opts.out)
      .str("--format", "", "record format: jsonl|csv", &format);
  if (const auto status = spec.parse(argc, argv); !status) {
    std::fprintf(stderr, "%s\n", status.message().c_str());
    std::exit(2);
  }
  if (spec.help_requested()) std::exit(0);
  if (format == "csv") {
    opts.format = RecordFormat::kCsv;
  } else if (format != "jsonl") {
    std::fprintf(stderr, "--format must be jsonl or csv\n");
    std::exit(2);
  }
  if (opts.seeds == 0) opts.seeds = 1;
  g_options = opts;
  g_options_initialised = true;
  print_figure_header(figure, caption);
}

const FigureOptions& figure_options() {
  if (!g_options_initialised) {
    g_options = options_from_env();
    g_options_initialised = true;
  }
  return g_options;
}

bool quick_mode() { return figure_options().quick; }

std::vector<topo::Rank> large_scale_ranks() {
  if (quick_mode()) return {128, 256};
  return {128, 256, 512, 1024};
}

topo::Rank paper_equivalent(topo::Rank sim_ranks) { return sim_ranks * 8; }

std::vector<topo::Rank> small_scale_ranks() {
  if (quick_mode()) return {8, 32};
  return {8, 16, 32, 64, 128};
}

ws::RunConfig large_scale_base() {
  return base_config(quick_mode() ? "SIM200K" : "SIMWL");
}

ws::RunConfig large_scale_config(topo::Rank sim_ranks, const Variant& variant,
                                 const Alloc& alloc) {
  ws::RunConfig cfg = large_scale_base();
  cfg.num_ranks = sim_ranks;
  apply_variant(variant, cfg);
  apply_alloc(alloc, cfg);
  return cfg;
}

ws::RunConfig small_scale_base() {
  return base_config(quick_mode() ? "SIM200K" : "SIMXXL");
}

ws::RunConfig small_scale_config(topo::Rank ranks, const Variant& variant,
                                 const Alloc& alloc) {
  ws::RunConfig cfg = small_scale_base();
  cfg.num_ranks = ranks;
  apply_variant(variant, cfg);
  apply_alloc(alloc, cfg);
  return cfg;
}

ws::RunResult run_and_log(const ws::RunConfig& config, const char* label) {
  std::fprintf(stderr, "  [run] %-28s ranks=%-5u ...", label, config.num_ranks);
  std::fflush(stderr);
  const std::clock_t t0 = std::clock();
  auto result = ws::run_simulation(config);
  const double wall =
      static_cast<double>(std::clock() - t0) / CLOCKS_PER_SEC;
  std::fprintf(stderr, " %.1fs (speedup %.1f)\n", wall, result.speedup());
  return result;
}

std::vector<ws::RunResult> run_figure_sweep(const SweepSpec& spec) {
  const auto expanded = spec.expand();
  if (!expanded) {
    std::fprintf(stderr, "sweep expansion failed: %s\n",
                 expanded.error().c_str());
    std::exit(1);
  }
  const std::vector<SweepPoint>& points = expanded.value();

  RunnerOptions options;
  options.threads = figure_options().threads;
  SweepReport report = SweepRunner(options).run(points);

  if (!figure_options().out.empty()) {
    std::ofstream file(figure_options().out);
    if (!file) {
      std::fprintf(stderr, "cannot open --out file '%s'\n",
                   figure_options().out.c_str());
      std::exit(1);
    }
    RecordWriter writer(file, RecordOptions{figure_options().format, true});
    writer.write_report(points, report);
    std::fprintf(stderr, "  [sweep] wrote %zu records to %s\n", points.size(),
                 figure_options().out.c_str());
  }

  if (!report.all_ok()) {
    const PointResult* failure = report.first_failure();
    std::fprintf(stderr, "sweep failed: %s\n",
                 failure != nullptr ? failure->error.c_str() : "no points");
    std::exit(1);
  }

  std::vector<ws::RunResult> results;
  results.reserve(report.points.size());
  for (PointResult& p : report.points) results.push_back(std::move(p.result));
  return results;
}

std::vector<Averaged> run_figure_sweep_averaged(SweepSpec spec) {
  const std::uint32_t seeds = quick_mode() ? 1 : figure_options().seeds;
  spec.axis(seed_axis(1, seeds));
  const std::vector<ws::RunResult> results = run_figure_sweep(spec);

  std::vector<Averaged> averaged;
  averaged.reserve(results.size() / seeds);
  for (std::size_t base = 0; base + seeds <= results.size(); base += seeds) {
    Averaged avg;
    for (std::uint32_t s = 0; s < seeds; ++s) {
      const ws::RunResult& r = results[base + s];
      avg.speedup += r.speedup();
      avg.runtime_ms += support::to_millis(r.runtime);
      avg.failed_steals += static_cast<double>(r.stats.failed_steals);
      avg.mean_session_ms += r.stats.mean_session_ms;
      avg.mean_search_ms += r.stats.mean_search_time_s * 1e3;
    }
    const double n = seeds;
    avg.speedup /= n;
    avg.runtime_ms /= n;
    avg.failed_steals /= n;
    avg.mean_session_ms /= n;
    avg.mean_search_ms /= n;
    averaged.push_back(avg);
  }
  return averaged;
}

void print_figure_header(const char* figure, const char* caption) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", figure, caption);
  std::printf("Scale mapping: N simulated ranks ~ paper's 8N K Computer\n");
  std::printf("nodes; trees/chunks scaled accordingly (see EXPERIMENTS.md).\n");
  if (quick_mode()) {
    std::printf("*** DWS_BENCH_QUICK=1: trimmed sweep, not the full figure ***\n");
  }
  std::printf("==============================================================\n");
}

}  // namespace dws::exp
