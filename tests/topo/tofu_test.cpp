#include "topo/tofu.hpp"

#include <gtest/gtest.h>

#include "support/rng.hpp"

namespace dws::topo {
namespace {

TEST(TofuMachine, KComputerDefaults) {
  TofuMachine k;
  EXPECT_EQ(k.cube_count(), 24u * 18u * 16u);
  EXPECT_EQ(k.node_count(), 82944u);  // the real K Computer node count
}

TEST(TofuMachine, CoordNodeIdBijection) {
  TofuMachine m(3, 2, 4);
  for (NodeId id = 0; id < m.node_count(); ++id) {
    const auto c = m.coord(id);
    ASSERT_EQ(m.node_id(c), id) << c.to_string();
  }
}

TEST(TofuMachine, CoordsStayInBounds) {
  TofuMachine m(5, 3, 2);
  for (NodeId id = 0; id < m.node_count(); ++id) {
    const auto c = m.coord(id);
    ASSERT_GE(c.x, 0); ASSERT_LT(c.x, 5);
    ASSERT_GE(c.y, 0); ASSERT_LT(c.y, 3);
    ASSERT_GE(c.z, 0); ASSERT_LT(c.z, 2);
    ASSERT_GE(c.a, 0); ASSERT_LT(c.a, TofuMachine::kA);
    ASSERT_GE(c.b, 0); ASSERT_LT(c.b, TofuMachine::kB);
    ASSERT_GE(c.c, 0); ASSERT_LT(c.c, TofuMachine::kC);
  }
}

TEST(TofuMachine, TwelveNodesPerCube) {
  EXPECT_EQ(TofuMachine::kNodesPerCube, 12);
  TofuMachine m(2, 2, 2);
  // First 12 ids share cube (0,0,0).
  for (NodeId id = 0; id < 12; ++id) {
    const auto c = m.coord(id);
    EXPECT_EQ(c.x, 0);
    EXPECT_EQ(c.y, 0);
    EXPECT_EQ(c.z, 0);
  }
  EXPECT_NE(m.coord(12).z + m.coord(12).y + m.coord(12).x, 0);
}

TEST(TofuMachine, HopsIdentityIsZero) {
  TofuMachine m;
  support::Xoshiro256StarStar rng(3);
  for (int i = 0; i < 100; ++i) {
    const auto id = static_cast<NodeId>(rng.next_below(m.node_count()));
    EXPECT_EQ(m.hops(m.coord(id), m.coord(id)), 0);
  }
}

TEST(TofuMachine, HopsSymmetry) {
  TofuMachine m;
  support::Xoshiro256StarStar rng(4);
  for (int i = 0; i < 200; ++i) {
    const auto p = m.coord(static_cast<NodeId>(rng.next_below(m.node_count())));
    const auto q = m.coord(static_cast<NodeId>(rng.next_below(m.node_count())));
    EXPECT_EQ(m.hops(p, q), m.hops(q, p));
  }
}

TEST(TofuMachine, HopsTriangleInequality) {
  TofuMachine m;
  support::Xoshiro256StarStar rng(5);
  for (int i = 0; i < 200; ++i) {
    const auto p = m.coord(static_cast<NodeId>(rng.next_below(m.node_count())));
    const auto q = m.coord(static_cast<NodeId>(rng.next_below(m.node_count())));
    const auto r = m.coord(static_cast<NodeId>(rng.next_below(m.node_count())));
    EXPECT_LE(m.hops(p, r), m.hops(p, q) + m.hops(q, r));
  }
}

TEST(TofuMachine, TorusWrapsAround) {
  TofuMachine m(10, 10, 10);
  TofuCoord p;  // origin
  TofuCoord q;
  q.x = 9;  // one step "backwards" through the wrap
  EXPECT_EQ(m.hops(p, q), 1);
  q.x = 5;  // the farthest point on a ring of 10
  EXPECT_EQ(m.hops(p, q), 5);
  q.x = 6;
  EXPECT_EQ(m.hops(p, q), 4);
}

TEST(TofuMachine, MeshDimsDoNotWrap) {
  TofuMachine m;
  TofuCoord p;
  TofuCoord q;
  q.b = 2;  // b has extent 3; mesh distance is 2, not 1
  EXPECT_EQ(m.hops(p, q), 2);
}

TEST(TofuMachine, EuclideanMatchesHandComputed) {
  TofuMachine m(10, 10, 10);
  TofuCoord p;
  TofuCoord q;
  q.x = 3;
  q.y = 4;
  EXPECT_DOUBLE_EQ(m.euclidean(p, q), 5.0);
  // Wrap: x delta of 9 on extent 10 is 1.
  TofuCoord r;
  r.x = 9;
  EXPECT_DOUBLE_EQ(m.euclidean(p, r), 1.0);
}

TEST(TofuMachine, EuclideanZeroOnlyForSameCoord) {
  TofuMachine m;
  const auto p = m.coord(17);
  EXPECT_DOUBLE_EQ(m.euclidean(p, p), 0.0);
  const auto q = m.coord(18);
  EXPECT_GT(m.euclidean(p, q), 0.0);
}

TEST(TofuMachine, SameBladeRequiresSameCubeAndB) {
  TofuMachine m(2, 2, 2);
  const auto p = m.coord(0);
  // Nodes 0..11 are cube (0,0,0); blade = same b. With (a*3+b)*2+c layout,
  // ids 0,1 have (a=0,b=0), ids 2,3 have (a=0,b=1)...
  EXPECT_TRUE(m.same_blade(p, m.coord(1)));
  EXPECT_FALSE(m.same_blade(p, m.coord(2)));
  // a=1,b=0 -> id = (1*3+0)*2 = 6: same blade as 0 (b matches).
  EXPECT_TRUE(m.same_blade(p, m.coord(6)));
  EXPECT_FALSE(m.same_blade(p, m.coord(12)));  // different cube
}

TEST(TofuMachine, BladeHasFourNodes) {
  TofuMachine m(1, 1, 1);
  int blade0 = 0;
  for (NodeId id = 0; id < m.node_count(); ++id) {
    if (m.same_blade(m.coord(0), m.coord(id))) ++blade0;
  }
  EXPECT_EQ(blade0, 4);
}

}  // namespace
}  // namespace dws::topo
