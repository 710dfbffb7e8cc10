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
#include <cstring>
#include <string>

#include "exp/args.hpp"
#include "metrics/occupancy.hpp"
#include "support/table.hpp"
#include "ws/scheduler.hpp"

int main(int argc, char** argv) {
  using namespace dws;

  const char* tree = argc > 1 ? argv[1] : "SIM200K";
  const char* placement_arg = argc > 3 ? argv[3] : "1n";
  topo::Rank ranks = 256;
  std::uint32_t chunk = 4;
  support::Status parsed = support::Status::ok();
  if (argc > 2) parsed = exp::parse_number("ranks", argv[2], &ranks);
  if (parsed && argc > 4) parsed = exp::parse_number("chunk", argv[4], &chunk);
  if (!parsed) {
    std::fprintf(stderr, "%s\n", parsed.message().c_str());
    return 2;
  }

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
    return 2;
  }

  ws::RunConfig base;
  base.tree = *tree_params;
  base.num_ranks = ranks;
  base.placement = placement;
  base.procs_per_node = ppn;
  base.ws.chunk_size = chunk;
  base.enable_congestion();
  if (const auto st = base.validate(); !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
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
    ws::RunConfig cfg = base;
    cfg.ws.victim_policy = v.policy;
    cfg.ws.steal_amount = v.amount;

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
