/// victim_explorer: compare victim-selection strategies on one configuration
/// from the command line — the interactive companion to the paper's
/// experiments.
///
///   ./victim_explorer [tree] [ranks] [placement] [chunk]
///     tree       catalogue name (default SIM200K; try SIMWL, SIM1M ...)
///     ranks      simulated MPI ranks (default 256)
///     placement  1n | 8rr | 8g (default 1n)
///     chunk      chunk size in nodes (default 4)
///
/// Prints one row per (victim policy x steal amount) with the full metric
/// set: speedup, occupancy, failed steals, discovery sessions, search time.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "metrics/occupancy.hpp"
#include "support/table.hpp"
#include "ws/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace dws;

  const char* tree = argc > 1 ? argv[1] : "SIM200K";
  const auto ranks = argc > 2
                         ? static_cast<topo::Rank>(std::strtoul(argv[2], nullptr, 10))
                         : 256u;
  const char* placement_arg = argc > 3 ? argv[3] : "1n";
  const auto chunk = argc > 4
                         ? static_cast<std::uint32_t>(std::strtoul(argv[4], nullptr, 10))
                         : 4u;

  const uts::TreeParams* tree_params = uts::find_tree(tree);
  if (tree_params == nullptr) {
    std::fprintf(stderr, "unknown catalogue tree '%s'\n", tree);
    return 2;
  }

  topo::Placement placement = topo::Placement::kOnePerNode;
  std::uint32_t ppn = 1;
  if (std::strcmp(placement_arg, "8rr") == 0) {
    placement = topo::Placement::kRoundRobin;
    ppn = 8;
  } else if (std::strcmp(placement_arg, "8g") == 0) {
    placement = topo::Placement::kGrouped;
    ppn = 8;
  } else if (std::strcmp(placement_arg, "1n") != 0) {
    std::fprintf(stderr, "unknown placement '%s' (use 1n | 8rr | 8g)\n",
                 placement_arg);
    return 1;
  }

  std::printf("tree=%s ranks=%u placement=%s chunk=%u\n\n", tree, ranks,
              placement_arg, chunk);

  support::Table table({"strategy", "speedup", "efficiency", "peak occ",
                        "failed steals", "sessions", "avg session (ms)",
                        "avg search (ms)", "avg steal dist"});

  const struct {
    ws::VictimPolicy policy;
    ws::StealAmount amount;
    const char* label;
  } variants[] = {
      {ws::VictimPolicy::kRoundRobin, ws::StealAmount::kOneChunk, "Reference"},
      {ws::VictimPolicy::kRandom, ws::StealAmount::kOneChunk, "Rand"},
      {ws::VictimPolicy::kTofuSkewed, ws::StealAmount::kOneChunk, "Tofu"},
      {ws::VictimPolicy::kRoundRobin, ws::StealAmount::kHalf, "Reference Half"},
      {ws::VictimPolicy::kRandom, ws::StealAmount::kHalf, "Rand Half"},
      {ws::VictimPolicy::kTofuSkewed, ws::StealAmount::kHalf, "Tofu Half"},
  };

  for (const auto& v : variants) {
    ws::RunConfig cfg;
    cfg.tree = *tree_params;
    cfg.num_ranks = ranks;
    cfg.placement = placement;
    cfg.procs_per_node = ppn;
    cfg.ws.chunk_size = chunk;
    cfg.ws.victim_policy = v.policy;
    cfg.ws.steal_amount = v.amount;
    cfg.enable_congestion();

    std::fprintf(stderr, "running %-15s...\n", v.label);
    const auto r = ws::run_simulation(cfg);
    const metrics::OccupancyCurve occ(r.trace);
    table.add_row({v.label, support::fmt(r.speedup(), 1),
                   support::fmt_pct(r.efficiency(), 1),
                   support::fmt_pct(occ.max_occupancy(), 1),
                   support::fmt(r.stats.failed_steals),
                   support::fmt(r.stats.sessions),
                   support::fmt(r.stats.mean_session_ms, 3),
                   support::fmt(r.stats.mean_search_time_s * 1e3, 3),
                   support::fmt(r.stats.mean_steal_distance, 2)});
  }
  std::printf("%s", table.render().c_str());
  return 0;
}
