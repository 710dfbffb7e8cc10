#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "uts/params.hpp"
#include "uts/sequential.hpp"

namespace dws::uts {
namespace {

TEST(Catalogue, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& t : catalogue()) {
    EXPECT_TRUE(names.insert(t.name).second) << "duplicate " << t.name;
  }
}

TEST(Catalogue, LookupByName) {
  const auto& t = tree_by_name("T3XXL");
  EXPECT_EQ(t.root_seed, 316u);
  EXPECT_EQ(t.root_branching, 2000u);
  EXPECT_EQ(t.m, 2u);
  EXPECT_DOUBLE_EQ(t.q, 0.499995);
}

TEST(Catalogue, FindTreeReturnsNullForUnknownNames) {
  // The non-aborting lookup CLIs and sweep specs build configs with.
  EXPECT_EQ(find_tree("NO_SUCH_TREE"), nullptr);
  EXPECT_EQ(find_tree(""), nullptr);
  const TreeParams* t = find_tree("TEST_BIN_SMALL");
  ASSERT_NE(t, nullptr);
  EXPECT_EQ(t, &tree_by_name("TEST_BIN_SMALL"));
  EXPECT_EQ(t->name, "TEST_BIN_SMALL");
}

TEST(Catalogue, PaperTreesMatchTableOne) {
  // Table I of the paper.
  const auto& t3xxl = tree_by_name("T3XXL");
  EXPECT_EQ(t3xxl.type, TreeType::kBinomial);
  EXPECT_EQ(t3xxl.root_seed, 316u);
  EXPECT_DOUBLE_EQ(t3xxl.q, 0.499995);
  const auto& t3wl = tree_by_name("T3WL");
  EXPECT_EQ(t3wl.type, TreeType::kBinomial);
  EXPECT_EQ(t3wl.root_seed, 559u);
  EXPECT_DOUBLE_EQ(t3wl.q, 0.4999995);
  // Both are barely subcritical: huge expected sizes.
  EXPECT_GT(*t3xxl.expected_size(), 1e8);
  EXPECT_GT(*t3wl.expected_size(), 1e9);
}

TEST(Catalogue, SimTreesAreSubcritical) {
  for (const char* name : {"SIM200K", "SIM500K", "SIM1M", "SIM2M", "SIM4M"}) {
    const auto& t = tree_by_name(name);
    ASSERT_TRUE(t.expected_size().has_value()) << name;
    EXPECT_LT(static_cast<double>(t.m) * t.q, 1.0) << name;
  }
}

/// Golden realised sizes. These pin down the whole generation pipeline
/// (SHA-1 -> splittable rng -> child sampling): any change to any stage
/// shows up here immediately.
using Golden = std::tuple<const char*, std::uint64_t, std::uint64_t, std::uint32_t>;

class CatalogueGolden : public ::testing::TestWithParam<Golden> {};

TEST_P(CatalogueGolden, RealizedShapeMatches) {
  const auto& [name, nodes, leaves, depth] = GetParam();
  const auto s = enumerate_sequential(tree_by_name(name), 10'000'000);
  EXPECT_FALSE(s.truncated);
  EXPECT_EQ(s.nodes, nodes);
  EXPECT_EQ(s.leaves, leaves);
  EXPECT_EQ(s.max_depth, depth);
}

INSTANTIATE_TEST_SUITE_P(
    SmallTrees, CatalogueGolden,
    ::testing::Values(Golden{"TEST_BIN_TINY", 69, 44, 14},
                      Golden{"TEST_BIN_SMALL", 5809, 3004, 102},
                      Golden{"TEST_BIN_WIDE", 3973, 3538, 27},
                      Golden{"TEST_GEO_LIN", 341, 190, 8},
                      Golden{"TEST_GEO_FIX", 187, 137, 5},
                      Golden{"TEST_GEO_EXP", 2058, 1270, 8},
                      Golden{"TEST_GEO_CYC", 2043, 1373, 12},
                      Golden{"TEST_HYBRID", 1682, 907, 53},
                      Golden{"T1", 305793, 245175, 10},
                      Golden{"SIM200K", 224133, 113066, 421}));

/// The larger sim trees are enumerated once here as goldens too; this also
/// acts as the "Table I verification" for the scaled trees referenced by
/// bench/table1_trees.
TEST(CatalogueGoldenLarge, Sim500K) {
  const auto s = enumerate_sequential(tree_by_name("SIM500K"));
  EXPECT_EQ(s.nodes, 499981u);
}

TEST(CatalogueGoldenLarge, Sim1M) {
  const auto s = enumerate_sequential(tree_by_name("SIM1M"));
  EXPECT_EQ(s.nodes, 999381u);
}

TEST(CatalogueGoldenLarge, SimWL) {
  const auto s = enumerate_sequential(tree_by_name("SIMWL"));
  EXPECT_EQ(s.nodes, 3042895u);
  EXPECT_EQ(s.max_depth, 2370u);
}

TEST(CatalogueGoldenLarge, SimXXL) {
  const auto s = enumerate_sequential(tree_by_name("SIMXXL"));
  EXPECT_EQ(s.nodes, 4529327u);
}

}  // namespace
}  // namespace dws::uts
