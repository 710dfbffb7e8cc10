/// trace_viewer: render a run's activity trace as an ASCII occupancy
/// timeline — a terminal version of the paper's "lifestory"-style plots,
/// driven by the same SL/EL machinery as Figs. 4/5/12/13.
///
///   ./trace_viewer [tree] [ranks] [strategy]
///     tree      catalogue name (default SIM200K)
///     ranks     simulated ranks (default 256)
///     strategy  reference | rand | tofu | tofuhalf (default: reference)
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
  topo::Rank ranks = 256;
  if (argc > 2) {
    if (const auto st = exp::parse_number("ranks", argv[2], &ranks); !st) {
      std::fprintf(stderr, "%s\n", st.message().c_str());
      return 2;
    }
  }
  const char* strategy = argc > 3 ? argv[3] : "reference";

  const uts::TreeParams* tree_params = uts::find_tree(tree);
  if (tree_params == nullptr) {
    std::fprintf(stderr, "unknown catalogue tree '%s'\n", tree);
    return 2;
  }

  ws::RunConfig cfg;
  cfg.tree = *tree_params;
  cfg.num_ranks = ranks;
  cfg.ws.chunk_size = 4;
  cfg.enable_congestion();
  if (std::strcmp(strategy, "reference") == 0) {
    cfg.ws.victim_policy = ws::VictimPolicy::kRoundRobin;
  } else if (std::strcmp(strategy, "rand") == 0) {
    cfg.ws.victim_policy = ws::VictimPolicy::kRandom;
  } else if (std::strcmp(strategy, "tofu") == 0) {
    cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  } else if (std::strcmp(strategy, "tofuhalf") == 0) {
    cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
    cfg.ws.steal_amount = ws::StealAmount::kHalf;
  } else {
    std::fprintf(stderr, "unknown strategy '%s'\n", strategy);
    return 2;
  }
  if (const auto st = cfg.validate(); !st) {
    std::fprintf(stderr, "%s\n", st.message().c_str());
    return 2;
  }

  std::fprintf(stderr, "simulating %s on %u ranks (%s)...\n", tree, ranks,
               strategy);
  const auto result = ws::run_simulation(cfg);
  const metrics::OccupancyCurve occ(result.trace);

  std::printf("tree=%s ranks=%u strategy=%s runtime=%.2fms speedup=%.1f\n\n",
              tree, ranks, strategy, support::to_millis(result.runtime),
              result.speedup());

  // Occupancy timeline: 60 time buckets x 20 occupancy rows.
  constexpr int kCols = 60;
  constexpr int kRows = 20;
  std::printf("occupancy over time (each column = %.2f ms):\n",
              support::to_millis(result.runtime) / kCols);
  double peak_share[kCols];
  for (int c = 0; c < kCols; ++c) {
    const auto t = static_cast<support::SimTime>(
        static_cast<double>(result.runtime) * (c + 0.5) / kCols);
    peak_share[c] = static_cast<double>(occ.workers_at(t)) / ranks;
  }
  for (int row = kRows; row >= 1; --row) {
    const double threshold = static_cast<double>(row) / kRows;
    std::printf("%4.0f%% |", threshold * 100.0);
    for (int c = 0; c < kCols; ++c) {
      std::putchar(peak_share[c] >= threshold - 1e-12 ? '#' : ' ');
    }
    std::putchar('\n');
  }
  std::printf("      +");
  for (int c = 0; c < kCols; ++c) std::putchar('-');
  std::printf("> time\n\n");

  std::printf("W_max = %u/%u ranks (%.1f%%), mean occupancy %.1f%%\n",
              occ.max_workers(), ranks, 100.0 * occ.max_occupancy(),
              100.0 * occ.mean_occupancy());
  for (const double x : {0.25, 0.5, 0.75, 0.9}) {
    const auto sl = occ.starting_latency(x);
    const auto el = occ.ending_latency(x);
    const std::string sl_text = sl ? support::fmt(*sl * 100.0, 1) + "%" : "never";
    const std::string el_text = el ? support::fmt(*el * 100.0, 1) + "%" : "never";
    std::printf("occupancy %3.0f%%: SL = %s, EL = %s\n", x * 100.0,
                sl_text.c_str(), el_text.c_str());
  }
  return 0;
}
