#include "topo/latency.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "support/histogram.hpp"
#include "support/rng.hpp"

namespace dws::topo {
namespace {

class LatencyTest : public ::testing::Test {
 protected:
  TofuMachine machine_;
};

TEST_F(LatencyTest, SameNodeUsesSharedMemoryPath) {
  JobLayout layout(machine_, 16, Placement::kGrouped, 8);
  LatencyModel model(layout);
  // Ranks 0 and 1 share node 0.
  EXPECT_EQ(model.message_latency(0, 1, 0), model.params().same_node);
  EXPECT_EQ(model.hops(0, 1), 0);
  EXPECT_DOUBLE_EQ(model.euclidean(0, 1), 0.0);
}

TEST_F(LatencyTest, SameBladeFasterThanNetwork) {
  JobLayout layout(machine_, 96, Placement::kOnePerNode);
  LatencyModel model(layout);
  // Node ids 0 and 1 differ only in c -> same blade. Node 0 and 95 are in
  // different cubes.
  const auto blade = model.message_latency(0, 1, 0);
  const auto far = model.message_latency(0, 95, 0);
  EXPECT_EQ(blade, model.params().same_blade);
  EXPECT_GT(far, blade);
}

TEST_F(LatencyTest, LatencyIsSymmetricWithoutPayload) {
  JobLayout layout(machine_, 512, Placement::kOnePerNode);
  LatencyModel model(layout);
  support::Xoshiro256StarStar rng(6);
  for (int i = 0; i < 200; ++i) {
    const auto r1 = static_cast<Rank>(rng.next_below(512));
    const auto r2 = static_cast<Rank>(rng.next_below(512));
    ASSERT_EQ(model.message_latency(r1, r2, 0), model.message_latency(r2, r1, 0));
  }
}

TEST_F(LatencyTest, LatencyGrowsWithHops) {
  JobLayout layout(machine_, 4096, Placement::kOnePerNode);
  LatencyModel model(layout);
  // Collect (hops, latency) pairs; same-hop pairs must have equal latency
  // and more hops must never be faster.
  support::Xoshiro256StarStar rng(7);
  std::vector<std::pair<int, support::SimTime>> samples;
  for (int i = 0; i < 500; ++i) {
    const auto r1 = static_cast<Rank>(rng.next_below(4096));
    const auto r2 = static_cast<Rank>(rng.next_below(4096));
    if (layout.same_node(r1, r2)) continue;
    if (machine_.same_blade(layout.coord_of(r1), layout.coord_of(r2))) continue;
    samples.emplace_back(model.hops(r1, r2), model.message_latency(r1, r2, 0));
  }
  ASSERT_GT(samples.size(), 100u);
  for (const auto& [h1, l1] : samples) {
    for (const auto& [h2, l2] : samples) {
      if (h1 < h2) {
        ASSERT_LE(l1, l2);
      }
      if (h1 == h2) {
        ASSERT_EQ(l1, l2);
      }
    }
  }
}

TEST_F(LatencyTest, PayloadAddsSerializationDelay) {
  JobLayout layout(machine_, 64, Placement::kOnePerNode);
  LatencyModel model(layout);
  const auto empty = model.message_latency(0, 63, 0);
  const auto chunk = model.message_latency(0, 63, 560);  // 20-node chunk
  // 560 bytes at 5 B/ns = 112 ns.
  EXPECT_EQ(chunk - empty, 112);
}

TEST_F(LatencyTest, VictimWeightMatchesPaperFormula) {
  JobLayout layout(machine_, 1024, Placement::kOnePerNode);
  LatencyModel model(layout);
  // Co-located / identical coords -> weight 1.
  EXPECT_DOUBLE_EQ(model.victim_weight(0, 0), 1.0);
  for (Rank j : {1u, 17u, 512u, 1023u}) {
    const double e = model.euclidean(0, j);
    ASSERT_GT(e, 0.0);
    EXPECT_DOUBLE_EQ(model.victim_weight(0, j), 1.0 / e);
  }
}

TEST_F(LatencyTest, VictimWeightNeverExceedsOne) {
  // e(i,j) >= 1 whenever nodes differ (integer lattice), so w <= 1 — this
  // bound is what the rejection sampler uses as w_max.
  JobLayout layout(machine_, 2048, Placement::kOnePerNode);
  LatencyModel model(layout);
  support::Xoshiro256StarStar rng(9);
  for (int i = 0; i < 2000; ++i) {
    const auto r1 = static_cast<Rank>(rng.next_below(2048));
    const auto r2 = static_cast<Rank>(rng.next_below(2048));
    ASSERT_LE(model.victim_weight(r1, r2), 1.0);
    ASSERT_GT(model.victim_weight(r1, r2), 0.0);
  }
}

TEST_F(LatencyTest, CloseRanksWeighMoreThanFarRanks) {
  JobLayout layout(machine_, 8192, Placement::kOnePerNode);
  LatencyModel model(layout);
  // Rank 1 is in the same cube as rank 0; rank 8191 is across the machine.
  EXPECT_GT(model.victim_weight(0, 1), model.victim_weight(0, 8191));
}

TEST_F(LatencyTest, EightPerNodeSeesLatencySpread) {
  // The effect motivating the paper: with 8 ranks per node, some victims are
  // intra-node (cheap) and some are across the allocation (expensive).
  JobLayout layout(machine_, 8192, Placement::kGrouped, 8);
  LatencyModel model(layout);
  support::SimTime lo = INT64_MAX;
  support::SimTime hi = 0;
  for (Rank j = 1; j < 8192; j += 7) {
    const auto l = model.message_latency(0, j, 0);
    lo = std::min(lo, l);
    hi = std::max(hi, l);
  }
  EXPECT_EQ(lo, model.params().same_node);
  EXPECT_GT(hi, 2 * lo);
}

TEST_F(LatencyTest, SamplingBackendReplacesOnlyTheNetworkTier) {
  JobLayout layout(machine_, 96, Placement::kOnePerNode);
  LatencyParams params;
  params.sample_bins = {{10'000, 20'000, 3}, {20'000, 40'000, 1}};
  params.sample_seed = 7;
  LatencyModel sampled(layout, params);
  LatencyModel uniform(layout, LatencyParams{});

  // Same-blade pair (nodes 0 and 1): bins must not apply.
  EXPECT_EQ(sampled.route(0, 1, 0, 12345).latency,
            uniform.message_latency(0, 1, 0));
  // Network pair: the draw lands inside the bins' envelope (plus zero
  // serialization at 0 bytes) and is far above the uniform model.
  const auto far = sampled.route(0, 95, 0, 12345).latency;
  EXPECT_GE(far, 10'000);
  EXPECT_LT(far, 40'000);

  // message_latency stays bit-unchanged even with sampling configured —
  // that is what keeps every pre-sampling golden stable.
  EXPECT_EQ(sampled.message_latency(0, 95, 0),
            uniform.message_latency(0, 95, 0));
}

TEST_F(LatencyTest, SamplingDrawsArePureFunctionsOfTheirInputs) {
  JobLayout layout(machine_, 96, Placement::kOnePerNode);
  LatencyParams params;
  params.sample_bins = {{5'000, 50'000, 1}};
  params.sample_seed = 11;
  LatencyModel model(layout, params);

  // Replayable: the same (src, dst, bytes, now) always draws the same value,
  // with no generator state (construction order is irrelevant).
  const auto a = model.route(0, 95, 64, 1'000'000).latency;
  EXPECT_EQ(a, model.route(0, 95, 64, 1'000'000).latency);
  LatencyModel again(layout, params);
  EXPECT_EQ(a, again.route(0, 95, 64, 1'000'000).latency);

  // The send time salts the draw: different instants spread over the bin.
  bool varies = false;
  for (support::SimTime t = 0; t < 64 && !varies; ++t) {
    varies = model.route(0, 95, 64, t).latency != a;
  }
  EXPECT_TRUE(varies);

  // A different seed is a different experiment.
  LatencyParams reseeded = params;
  reseeded.sample_seed = 12;
  LatencyModel other(layout, reseeded);
  bool seed_reaches_draws = false;
  for (support::SimTime t = 0; t < 64 && !seed_reaches_draws; ++t) {
    seed_reaches_draws = model.route(0, 95, 64, t).latency !=
                         other.route(0, 95, 64, t).latency;
  }
  EXPECT_TRUE(seed_reaches_draws);
}

/// The time-aware latency as a stand-alone formula: message_latency() for
/// co-located and same-blade pairs and whenever sampling is off; otherwise
/// the inverse-CDF draw over the bins keyed by (seed, channel, now, bytes),
/// plus serialization. It pins route() to the values the simulator's goldens
/// were recorded with.
support::SimTime reference_latency(const LatencyModel& model, Rank src,
                                   Rank dst, std::uint32_t bytes,
                                   support::SimTime now) {
  const LatencyParams& p = model.params();
  const JobLayout& layout = model.layout();
  if (!p.sampling_enabled() || layout.same_node(src, dst) ||
      layout.machine().same_blade(layout.coord_of(src), layout.coord_of(dst))) {
    return model.message_latency(src, dst, bytes);
  }
  const auto mix = [](std::uint64_t z) {
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  };
  std::uint64_t h = p.sample_seed;
  h = mix(h ^ (static_cast<std::uint64_t>(src) << 32 | dst));
  h = mix(h ^ static_cast<std::uint64_t>(now));
  h = mix(h ^ bytes);
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  std::uint64_t total = 0;
  for (const auto& bin : p.sample_bins) total += bin.weight;
  const double target = u * static_cast<double>(total);
  double cum = 0.0;
  std::size_t i = 0;
  while (i + 1 < p.sample_bins.size() &&
         target >= cum + static_cast<double>(p.sample_bins[i].weight)) {
    cum += static_cast<double>(p.sample_bins[i++].weight);
  }
  const LatencySampleBin& bin = p.sample_bins[i];
  const double w = static_cast<double>(bin.weight);
  const double frac = std::clamp(w > 0.0 ? (target - cum) / w : 0.0, 0.0, 1.0);
  const double draw = static_cast<double>(bin.lo) +
                      frac * static_cast<double>(bin.hi - bin.lo);
  return static_cast<support::SimTime>(draw) +
         static_cast<support::SimTime>(static_cast<double>(bytes) /
                                       p.bytes_per_ns);
}

TEST_F(LatencyTest, RouteMatchesTheSeparateQueriesOnEveryPair) {
  // A 1/N layout spanning two cubes and an 8G layout of 16 nodes: between
  // them every tier (same node, same blade, network) appears.
  const JobLayout one_per_node(machine_, 24, Placement::kOnePerNode);
  const JobLayout grouped(machine_, 128, Placement::kGrouped, 8);
  LatencyParams sampled;
  sampled.sample_bins = {{2'000, 3'000, 5}, {3'000, 9'000, 2}, {9'000, 9'500, 1}};
  sampled.sample_seed = 17;
  for (const JobLayout* layout : {&one_per_node, &grouped}) {
    for (const LatencyParams& params : {LatencyParams{}, sampled}) {
      const LatencyModel model(*layout, params);
      std::uint64_t network_pairs = 0;
      for (Rank src = 0; src < layout->num_ranks(); ++src) {
        for (Rank dst = 0; dst < layout->num_ranks(); ++dst) {
          if (src == dst) continue;
          const std::uint32_t bytes = (src * 7 + dst) % 3 * 280;
          const support::SimTime now = (src + 3) * 1'000'003 + dst;
          const Route r = model.route(src, dst, bytes, now);
          ASSERT_EQ(r.latency, reference_latency(model, src, dst, bytes, now))
              << src << "->" << dst;
          ASSERT_EQ(r.hops, model.hops(src, dst)) << src << "->" << dst;
          ASSERT_EQ(r.same_node, layout->same_node(src, dst))
              << src << "->" << dst;
          network_pairs += r.hops > 0 && !layout->machine().same_blade(
                                             layout->coord_of(src),
                                             layout->coord_of(dst));
        }
      }
      EXPECT_GT(network_pairs, 0u);
    }
  }
}

TEST_F(LatencyTest, NodeTablesGroupRanksByNodeInRankOrder) {
  // Round-robin placement interleaves nodes; a slice starting mid-node gives
  // nodes of unequal occupancy.
  const JobLayout rr(machine_, 48, Placement::kRoundRobin, 8);
  const JobLayout grouped(machine_, 32, Placement::kGrouped, 8);
  const JobLayout slice = JobLayout::slice(grouped, 5, 20);  // 3 + 8 + 8 + 1
  for (const JobLayout* layout : {&rr, &slice}) {
    const LatencyModel model(*layout);
    const NodeTables& nodes = model.node_tables();
    const Rank n = layout->num_ranks();
    EXPECT_EQ(nodes.num_nodes(), layout->num_nodes());
    std::uint32_t held = 0;
    for (std::uint32_t a = 0; a < nodes.num_nodes(); ++a) {
      held += nodes.ranks_on(a);
      ASSERT_GT(nodes.ranks_on(a), 0u);
      // Nodes are numbered by their lowest rank; ranks ascend within one.
      if (a > 0) {
        EXPECT_LT(nodes.ranks(a - 1)[0], nodes.ranks(a)[0]);
      }
      for (std::uint32_t i = 1; i < nodes.ranks_on(a); ++i) {
        EXPECT_LT(nodes.ranks(a)[i - 1], nodes.ranks(a)[i]);
      }
    }
    EXPECT_EQ(held, n);
    for (Rank r = 0; r < n; ++r) {
      EXPECT_EQ(nodes.ranks(nodes.node_of(r))[nodes.position_of(r)], r);
      for (Rank j = 0; j < n; ++j) {
        EXPECT_EQ(nodes.node_of(r) == nodes.node_of(j),
                  layout->same_node(r, j));
      }
      // A row's total is the thief's rank-level normaliser.
      double rank_sum = 0.0;
      for (Rank j = 0; j < n; ++j) {
        if (j != r) rank_sum += model.victim_weight(r, j);
      }
      EXPECT_NEAR(nodes.total(nodes.node_of(r)), rank_sum, 1e-12 * rank_sum);
    }
  }
  EXPECT_EQ(LatencyModel(slice).node_tables().ranks_on(0), 3u);
  EXPECT_EQ(LatencyModel(slice).node_tables().ranks_on(3), 1u);
}

TEST_F(LatencyTest, NodeTablesAreBuiltOnceAndSharedByCopies) {
  const JobLayout layout(machine_, 64, Placement::kOnePerNode);
  const LatencyModel model(layout);
  const LatencyModel copy = model;  // copied before the first use
  const NodeTables& tables = copy.node_tables();
  EXPECT_EQ(&model.node_tables(), &tables);
  EXPECT_EQ(&tables.table(3), &model.node_tables().table(3));
  // At one rank per node, node i is rank i and a table spans every node.
  EXPECT_EQ(tables.num_nodes(), 64u);
  EXPECT_EQ(tables.table(3).size(), 64u);
  for (Rank r = 0; r < 64; ++r) EXPECT_EQ(tables.node_of(r), r);
  // A separately built model over the same layout has its own tables.
  EXPECT_NE(&LatencyModel(layout).node_tables(), &tables);
}

TEST_F(LatencyTest, SampleBinsFromHistogramPreserveMass) {
  support::Histogram h(100.0, 1'300.0, 12);  // bin width 100
  for (int i = 0; i < 10; ++i) h.add(150.0);   // bin 0
  for (int i = 0; i < 5; ++i) h.add(1'250.0);  // bin 11
  h.add(50.0);     // underflow
  h.add(2'000.0);  // overflow
  const std::vector<LatencySampleBin> bins = sample_bins_from_histogram(h);
  ASSERT_EQ(bins.size(), 4u);  // underflow + 2 live bins + overflow
  std::uint64_t mass = 0;
  for (const auto& b : bins) {
    EXPECT_LT(b.lo, b.hi);
    mass += b.weight;
  }
  EXPECT_EQ(mass, h.total());
  EXPECT_EQ(bins.front().lo, 0);      // underflow bin starts at zero
  EXPECT_EQ(bins.front().hi, 100);
  EXPECT_EQ(bins.back().lo, 1'300);   // overflow bin extends the window
  EXPECT_EQ(bins.back().hi, 1'400);

  EXPECT_TRUE(sample_bins_from_histogram(
                  support::Histogram(0.0, 10.0, 4)).empty());
}

}  // namespace
}  // namespace dws::topo
