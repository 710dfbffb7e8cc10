#include "uts/tree.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "uts/params.hpp"

namespace dws::uts {
namespace {

TreeParams binomial(std::uint32_t r, std::uint32_t b0, std::uint32_t m, double q) {
  TreeParams p;
  p.name = "test";
  p.type = TreeType::kBinomial;
  p.root_seed = r;
  p.root_branching = b0;
  p.m = m;
  p.q = q;
  return p;
}

TEST(Tree, RootHasHeightZeroAndSeedState) {
  const auto p = binomial(316, 2000, 2, 0.5);
  const auto root = root_node(p);
  EXPECT_EQ(root.height, 0u);
  EXPECT_EQ(root.rng, crypto::UtsRng::from_seed(316));
}

TEST(Tree, BinomialRootHasExactlyB0Children) {
  for (std::uint32_t b0 : {1u, 20u, 2000u}) {
    const auto p = binomial(1, b0, 2, 0.01);
    EXPECT_EQ(num_children(p, root_node(p)), b0);
  }
}

TEST(Tree, BinomialNonRootHasZeroOrM) {
  const auto p = binomial(9, 50, 3, 0.5);
  const auto root = root_node(p);
  for (std::uint32_t i = 0; i < 50; ++i) {
    const auto c = child_node(root, i);
    const auto n = num_children(p, c);
    EXPECT_TRUE(n == 0 || n == 3) << n;
  }
}

TEST(Tree, BinomialQZeroMakesStar) {
  // q = 0: every child of the root is a leaf -> tree is exactly b0 + 1 nodes.
  const auto p = binomial(4, 10, 2, 0.0);
  const auto root = root_node(p);
  for (std::uint32_t i = 0; i < 10; ++i) {
    EXPECT_EQ(num_children(p, child_node(root, i)), 0u);
  }
}

TEST(Tree, BinomialSuccessRateTracksQ) {
  // Over many first-level children, the fraction with m children ~ q.
  const auto p = binomial(15, 20000, 2, 0.3);
  const auto root = root_node(p);
  int with_children = 0;
  for (std::uint32_t i = 0; i < 20000; ++i) {
    if (num_children(p, child_node(root, i)) != 0) ++with_children;
  }
  EXPECT_NEAR(with_children, 6000, 300);
}

TEST(Tree, ChildIdentityIsOrderIndependent) {
  const auto p = binomial(77, 100, 2, 0.4);
  const auto root = root_node(p);
  const auto c5 = child_node(root, 5);
  const auto c5_again = child_node(root, 5);
  EXPECT_EQ(c5, c5_again);
  EXPECT_EQ(c5.height, 1u);
  EXPECT_EQ(child_node(c5, 0).height, 2u);
}

TEST(Tree, SiblingsHaveDistinctStates) {
  const auto p = binomial(8, 1000, 2, 0.5);
  const auto root = root_node(p);
  for (std::uint32_t i = 1; i < 1000; ++i) {
    ASSERT_NE(child_node(root, i), child_node(root, i - 1));
  }
}

TEST(Tree, ForEachChildMatchesChildNode) {
  const auto p = binomial(316, 2000, 2, 0.5);
  const auto parent = child_node(root_node(p), 7);
  for (const std::uint32_t n : {0u, 1u, 2u, 3u, 5u, 2000u}) {
    std::vector<TreeNode> got;
    for_each_child(parent, n, [&got](const TreeNode& c) { got.push_back(c); });
    ASSERT_EQ(got.size(), n);
    for (std::uint32_t i = 0; i < n; ++i) {
      ASSERT_EQ(got[i], child_node(parent, i)) << "n " << n << ", child " << i;
    }
  }
}

TEST(GeoBranching, LinearProfile) {
  TreeParams p;
  p.type = TreeType::kGeometric;
  p.root_branching = 8;
  p.gen_mx = 8;
  p.shape = GeoShape::kLinear;
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 0), 8.0);
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 4), 4.0);
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 8), 0.0);   // cutoff
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 100), 0.0); // beyond cutoff
}

TEST(GeoBranching, FixedProfile) {
  TreeParams p;
  p.type = TreeType::kGeometric;
  p.root_branching = 3;
  p.gen_mx = 5;
  p.shape = GeoShape::kFixed;
  for (std::uint32_t d = 0; d < 5; ++d) {
    EXPECT_DOUBLE_EQ(geo_branching_factor(p, d), 3.0);
  }
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 5), 0.0);
}

TEST(GeoBranching, ExpDecDecreasesToOne) {
  TreeParams p;
  p.type = TreeType::kGeometric;
  p.root_branching = 16;
  p.gen_mx = 4;
  p.shape = GeoShape::kExpDec;
  EXPECT_DOUBLE_EQ(geo_branching_factor(p, 0), 16.0);
  double prev = 17.0;
  for (std::uint32_t d = 0; d < 4; ++d) {
    const double b = geo_branching_factor(p, d);
    EXPECT_LT(b, prev);
    EXPECT_GE(b, 1.0);
    prev = b;
  }
}

TEST(GeoBranching, CyclicStaysNonNegativeAndBounded) {
  TreeParams p;
  p.type = TreeType::kGeometric;
  p.root_branching = 4;
  p.gen_mx = 12;
  p.shape = GeoShape::kCyclic;
  for (std::uint32_t d = 0; d < 12; ++d) {
    const double b = geo_branching_factor(p, d);
    EXPECT_GE(b, 0.0);
    EXPECT_LE(b, 4.0);
  }
}

TEST(Tree, GeometricCutoffMakesLeaves) {
  TreeParams p;
  p.name = "geo";
  p.type = TreeType::kGeometric;
  p.root_seed = 3;
  p.root_branching = 4;
  p.gen_mx = 2;
  p.shape = GeoShape::kFixed;
  // Any node at height >= gen_mx has no children.
  auto node = root_node(p);
  node.height = 2;
  EXPECT_EQ(num_children(p, node), 0u);
  node.height = 10;
  EXPECT_EQ(num_children(p, node), 0u);
}

TEST(Tree, MaxChildrenClampRespected) {
  TreeParams p;
  p.name = "clamped";
  p.type = TreeType::kGeometric;
  p.root_seed = 12;
  p.root_branching = 1000000;  // huge mean fanout
  p.gen_mx = 2;
  p.shape = GeoShape::kFixed;
  p.max_children = 16;
  const auto root = root_node(p);
  EXPECT_LE(num_children(p, root), 16u);
}

TEST(Tree, HybridSwitchesFromGeoToBinomial) {
  TreeParams p;
  p.name = "hyb";
  p.type = TreeType::kHybrid;
  p.root_seed = 6;
  p.root_branching = 4;
  p.gen_mx = 8;
  p.shift = 0.5;
  p.m = 3;
  p.q = 0.9;
  p.shape = GeoShape::kFixed;
  // Below the shift boundary (height >= 4) nodes follow the binomial rule:
  // 0 or m children.
  auto node = root_node(p);
  node.height = 4;
  const auto n = num_children(p, node);
  EXPECT_TRUE(n == 0 || n == 3);
  // Above the boundary the geometric rule applies (any value 0..max).
  node.height = 1;
  EXPECT_LE(num_children(p, node), p.max_children);
}

TEST(Params, ExpectedSizeBinomial) {
  const auto p = binomial(1, 2000, 2, 0.4995);
  ASSERT_TRUE(p.expected_size().has_value());
  EXPECT_NEAR(*p.expected_size(), 1.0 + 2000.0 / 0.001, 1e-6);
}

TEST(Params, ExpectedSizeUndefinedWhenSupercritical) {
  const auto p = binomial(1, 2000, 2, 0.5);
  EXPECT_FALSE(p.expected_size().has_value());
}

TEST(Params, ExpectedSizeUndefinedForGeometric) {
  TreeParams p;
  p.type = TreeType::kGeometric;
  EXPECT_FALSE(p.expected_size().has_value());
}

}  // namespace
}  // namespace dws::uts
