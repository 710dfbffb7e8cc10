#include <gtest/gtest.h>

#include "rt/runtime.hpp"
#include "uts/sequential.hpp"
#include "ws/scheduler.hpp"

namespace dws {
namespace {

/// The repo's master oracle (DESIGN.md §6, invariant 1): the sequential
/// enumerator, the work-stealing protocol on real threads (rt::run_native)
/// and the same protocol in the simulator must agree exactly on every tree.
/// A bug in SHA-1, the splittable RNG, chunk management, termination
/// detection or a real-thread race shows up as a count mismatch here.
class CrossValidation : public ::testing::TestWithParam<const char*> {};

TEST_P(CrossValidation, AllThreeImplementationsAgree) {
  const auto& tree = uts::tree_by_name(GetParam());

  const auto seq = uts::enumerate_sequential(tree);

  ws::RunConfig threads;
  threads.tree = tree;
  threads.num_ranks = 4;
  threads.backend = ws::Backend::kRt;
  const auto threaded = rt::run_native(threads);

  ws::RunConfig cfg;
  cfg.tree = tree;
  cfg.num_ranks = 16;
  cfg.ws.victim_policy = ws::VictimPolicy::kTofuSkewed;
  cfg.ws.steal_amount = ws::StealAmount::kHalf;
  const auto simulated = ws::run_simulation(cfg);

  EXPECT_EQ(threaded.nodes, seq.nodes);
  EXPECT_EQ(threaded.leaves, seq.leaves);
  EXPECT_EQ(simulated.nodes, seq.nodes);
  EXPECT_EQ(simulated.leaves, seq.leaves);
}

INSTANTIATE_TEST_SUITE_P(Trees, CrossValidation,
                         ::testing::Values("TEST_BIN_TINY", "TEST_BIN_SMALL",
                                           "TEST_BIN_WIDE", "TEST_GEO_LIN",
                                           "TEST_GEO_FIX", "TEST_GEO_EXP",
                                           "TEST_GEO_CYC", "TEST_HYBRID",
                                           "SIM200K"));

TEST(CrossValidation, SimulatorAgreesAcrossAllConfigAxes) {
  // One tree, every axis the benches vary: the node count is invariant.
  const auto& tree = uts::tree_by_name("TEST_BIN_SMALL");
  const auto expected = uts::enumerate_sequential(tree).nodes;
  for (const auto policy :
       {ws::VictimPolicy::kRoundRobin, ws::VictimPolicy::kRandom,
        ws::VictimPolicy::kTofuSkewed}) {
    for (const auto amount : {ws::StealAmount::kOneChunk, ws::StealAmount::kHalf}) {
      for (const std::uint32_t chunk : {2u, 20u}) {
        for (const bool congested : {false, true}) {
          ws::RunConfig cfg;
          cfg.tree = tree;
          cfg.num_ranks = 12;
          cfg.ws.victim_policy = policy;
          cfg.ws.steal_amount = amount;
          cfg.ws.chunk_size = chunk;
          if (congested) cfg.enable_congestion(1.0);
          EXPECT_EQ(ws::run_simulation(cfg).nodes, expected)
              << ws::to_string(policy) << "/" << ws::to_string(amount) << "/c"
              << chunk << "/cong" << congested;
        }
      }
    }
  }
}

TEST(CrossValidation, GranularityNeverChangesTheTree) {
  const auto& tree = uts::tree_by_name("TEST_BIN_SMALL");
  const auto expected = uts::enumerate_sequential(tree).nodes;
  for (const std::uint32_t rounds : {1u, 4u, 24u}) {
    ws::RunConfig cfg;
    cfg.tree = tree;
    cfg.num_ranks = 8;
    cfg.ws.sha_rounds = rounds;
    EXPECT_EQ(ws::run_simulation(cfg).nodes, expected) << rounds;
  }
}

}  // namespace
}  // namespace dws
