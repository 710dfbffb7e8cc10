#include "proto/chunk_stack.hpp"

#include <gtest/gtest.h>

#include "crypto/uts_rng.hpp"

namespace dws::proto {
namespace {

uts::TreeNode node(std::uint32_t tag) {
  uts::TreeNode n;
  n.rng = crypto::UtsRng::from_seed(tag);
  n.height = tag;
  return n;
}

TEST(ChunkStack, StartsEmpty) {
  ChunkStack s(20);
  EXPECT_TRUE(s.empty());
  EXPECT_EQ(s.size(), 0u);
  EXPECT_EQ(s.num_chunks(), 0u);
  EXPECT_EQ(s.stealable_chunks(), 0u);
  EXPECT_FALSE(s.pop().has_value());
}

TEST(ChunkStack, PushPopIsLifo) {
  ChunkStack s(4);
  for (std::uint32_t i = 0; i < 6; ++i) s.push(node(i));
  for (std::uint32_t i = 6; i-- > 0;) {
    const auto n = s.pop();
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(n->height, i);
  }
  EXPECT_TRUE(s.empty());
}

TEST(ChunkStack, ChunksFillToCapacity) {
  ChunkStack s(4);
  for (std::uint32_t i = 0; i < 4; ++i) s.push(node(i));
  EXPECT_EQ(s.num_chunks(), 1u);
  s.push(node(4));
  EXPECT_EQ(s.num_chunks(), 2u);
  for (std::uint32_t i = 0; i < 7; ++i) s.push(node(5 + i));
  EXPECT_EQ(s.num_chunks(), 3u);
  EXPECT_EQ(s.size(), 12u);
}

TEST(ChunkStack, PrivateChunkNeverStealable) {
  // The §II-A rule: one (even full) chunk -> nothing to steal.
  ChunkStack s(4);
  for (std::uint32_t i = 0; i < 4; ++i) s.push(node(i));
  EXPECT_EQ(s.num_chunks(), 1u);
  EXPECT_EQ(s.stealable_chunks(), 0u);
  EXPECT_EQ(s.chunks_for_steal(false), 0u);
  EXPECT_EQ(s.chunks_for_steal(true), 0u);
  s.push(node(4));
  EXPECT_EQ(s.stealable_chunks(), 1u);
}

TEST(ChunkStack, StealTakesOldestChunks) {
  ChunkStack s(2);
  for (std::uint32_t i = 0; i < 6; ++i) s.push(node(i));  // chunks {0,1}{2,3}{4,5}
  auto stolen = s.steal(1);
  ASSERT_EQ(stolen.size(), 1u);
  ASSERT_EQ(stolen[0].size(), 2u);
  EXPECT_EQ(stolen[0][0].height, 0u);
  EXPECT_EQ(stolen[0][1].height, 1u);
  // Local LIFO order is unaffected.
  EXPECT_EQ(s.pop()->height, 5u);
  EXPECT_EQ(s.size(), 3u);
}

TEST(ChunkStack, StealHalfPolicy) {
  ChunkStack s(2);
  for (std::uint32_t i = 0; i < 14; ++i) s.push(node(i));  // 7 chunks
  EXPECT_EQ(s.stealable_chunks(), 6u);
  EXPECT_EQ(s.chunks_for_steal(true), 3u);   // half of stealable
  EXPECT_EQ(s.chunks_for_steal(false), 1u);  // reference: one chunk
}

TEST(ChunkStack, StealHalfOfOneStealableIsOne) {
  ChunkStack s(2);
  for (std::uint32_t i = 0; i < 4; ++i) s.push(node(i));  // 2 chunks
  EXPECT_EQ(s.stealable_chunks(), 1u);
  EXPECT_EQ(s.chunks_for_steal(true), 1u);  // max(1, 1/2)
}

TEST(ChunkStack, SizeTracksAcrossOperations) {
  ChunkStack s(3);
  for (std::uint32_t i = 0; i < 10; ++i) s.push(node(i));
  EXPECT_EQ(s.size(), 10u);
  (void)s.pop();
  EXPECT_EQ(s.size(), 9u);
  const auto stolen = s.steal(2);
  EXPECT_EQ(s.size(), 3u);
  std::size_t stolen_nodes = 0;
  for (const auto& c : stolen) stolen_nodes += c.size();
  EXPECT_EQ(stolen_nodes, 6u);
}

TEST(ChunkStack, InstallMakesThiefStealable) {
  // The §IV-C effect: receiving several chunks leaves the thief itself
  // immediately stealable.
  ChunkStack victim(2);
  for (std::uint32_t i = 0; i < 8; ++i) victim.push(node(i));
  ChunkStack thief(2);
  thief.install(victim.steal(2));
  EXPECT_EQ(thief.size(), 4u);
  EXPECT_EQ(thief.num_chunks(), 2u);
  EXPECT_EQ(thief.stealable_chunks(), 1u);
}

TEST(ChunkStack, InstallSingleChunkIsPrivate) {
  ChunkStack victim(2);
  for (std::uint32_t i = 0; i < 6; ++i) victim.push(node(i));
  ChunkStack thief(2);
  thief.install(victim.steal(1));
  EXPECT_EQ(thief.stealable_chunks(), 0u);
}

TEST(ChunkStack, PopAfterInstallReadsStolenNodes) {
  ChunkStack victim(2);
  for (std::uint32_t i = 0; i < 6; ++i) victim.push(node(i));
  ChunkStack thief(2);
  thief.install(victim.steal(1));  // chunk {0, 1}
  EXPECT_EQ(thief.pop()->height, 1u);
  EXPECT_EQ(thief.pop()->height, 0u);
  EXPECT_TRUE(thief.empty());
}

TEST(ChunkStack, PushAfterPartialPopReusesTopChunk) {
  ChunkStack s(4);
  for (std::uint32_t i = 0; i < 5; ++i) s.push(node(i));  // chunks {0..3}{4}
  (void)s.pop();                                          // {0..3}
  EXPECT_EQ(s.num_chunks(), 1u);
  s.push(node(9));  // new chunk again
  EXPECT_EQ(s.num_chunks(), 2u);
  EXPECT_EQ(s.pop()->height, 9u);
}

TEST(ChunkStack, InstallSplitsOversizedChunks) {
  // Chunks arriving from a victim with a bigger chunk_size must be split to
  // the local capacity, not installed oversized (which would make num_chunks
  // lie to the steal accounting).
  ChunkStack victim(10);
  for (std::uint32_t i = 0; i < 20; ++i) victim.push(node(i));
  ChunkStack thief(4);
  thief.install(victim.steal(1));  // one 10-node chunk into capacity-4 chunks
  EXPECT_EQ(thief.size(), 10u);
  EXPECT_EQ(thief.num_chunks(), 3u);  // 4 + 4 + 2
  // Pop order still walks the stolen chunk top-down.
  for (std::uint32_t i = 10; i-- > 0;) {
    const auto n = thief.pop();
    ASSERT_TRUE(n.has_value());
    EXPECT_EQ(n->height, i);
  }
  EXPECT_TRUE(thief.empty());
}

TEST(ChunkStack, InstallSplitKeepsThiefStealable) {
  ChunkStack victim(8);
  for (std::uint32_t i = 0; i < 16; ++i) victim.push(node(i));
  ChunkStack thief(2);
  thief.install(victim.steal(1));  // 8 nodes -> 4 local chunks
  EXPECT_EQ(thief.num_chunks(), 4u);
  EXPECT_EQ(thief.stealable_chunks(), 3u);
}

TEST(ChunkStack, NoNodesLostAcrossMixedWorkload) {
  ChunkStack s(5);
  std::size_t live = 0;
  std::size_t pushed = 0;
  std::size_t popped = 0;
  std::size_t stolen = 0;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 7; ++i) {
      s.push(node(static_cast<std::uint32_t>(pushed++)));
      ++live;
    }
    if (s.pop().has_value()) {
      ++popped;
      --live;
    }
    if (s.stealable_chunks() > 1) {
      for (const auto& c : s.steal(s.stealable_chunks() / 2)) {
        stolen += c.size();
        live -= c.size();
      }
    }
    ASSERT_EQ(s.size(), live);
  }
  EXPECT_EQ(pushed, popped + stolen + s.size());
}

}  // namespace
}  // namespace dws::proto
