// proto::PayloadStore: the run-wide parking place of stolen chunks while
// their ChunkBatch travels. The single-threaded cases pin the handle and
// count contract; the concurrent case parks and takes from several threads
// at once, as the shard threads of a sharded run and the rank threads of a
// native run do.
#include "proto/payload_store.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

namespace dws::proto {
namespace {

/// `sizes.size()` chunks; chunk i holds sizes[i] nodes of height `tag`, so a
/// taken payload can be traced back to the park that made it.
std::vector<Chunk> chunks_of(const std::vector<std::size_t>& sizes,
                             std::uint32_t tag) {
  std::vector<Chunk> out;
  for (const std::size_t n : sizes) {
    uts::TreeNode node;
    node.height = tag;
    out.emplace_back(n, node);
  }
  return out;
}

TEST(PayloadStore, ParkAndTakeRoundTripTheChunks) {
  PayloadStore store;
  const ChunkBatch batch = store.park(chunks_of({3, 5}, 7));
  EXPECT_EQ(batch.chunks, 2u);
  EXPECT_EQ(batch.nodes, 8u);
  EXPECT_FALSE(batch.empty());
  EXPECT_EQ(store.in_use(), 1u);

  const std::vector<Chunk> taken = store.take(batch);
  ASSERT_EQ(taken.size(), 2u);
  EXPECT_EQ(taken[0].size(), 3u);
  EXPECT_EQ(taken[1].size(), 5u);
  EXPECT_EQ(taken[1].front().height, 7u);
  EXPECT_EQ(store.in_use(), 0u);
}

TEST(PayloadStore, EmptyBatchParksNothing) {
  PayloadStore store;
  const ChunkBatch batch = store.park({});
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(batch.nodes, 0u);
  EXPECT_EQ(store.in_use(), 0u);
}

TEST(PayloadStore, TakenHandlesAreReusedAndInUseCountsLivePayloads) {
  PayloadStore store;
  const ChunkBatch a = store.park(chunks_of({1}, 1));
  const ChunkBatch b = store.park(chunks_of({2}, 2));
  EXPECT_NE(a.handle, b.handle);
  EXPECT_EQ(store.in_use(), 2u);

  EXPECT_EQ(store.take(a).front().front().height, 1u);
  EXPECT_EQ(store.in_use(), 1u);

  // The freed slot goes to the next park; b is untouched by the reuse.
  const ChunkBatch c = store.park(chunks_of({4}, 3));
  EXPECT_EQ(c.handle, a.handle);
  EXPECT_EQ(store.in_use(), 2u);
  EXPECT_EQ(store.take(b).front().front().height, 2u);
  EXPECT_EQ(store.take(c).front().size(), 4u);
  EXPECT_EQ(store.in_use(), 0u);
}

TEST(PayloadStore, ConcurrentParkAndTakeLoseNothing) {
  constexpr std::uint32_t kThreads = 4;
  constexpr std::uint32_t kRounds = 2000;
  PayloadStore store;
  // Each thread parks batches tagged with its id and takes every other one
  // back at once, while the other threads park and take too; the batches it
  // keeps are taken on the main thread after the join.
  std::vector<std::vector<ChunkBatch>> kept(kThreads);
  std::vector<std::uint64_t> nodes_taken(kThreads, 0);
  std::vector<std::thread> threads;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (std::uint32_t i = 0; i < kRounds; ++i) {
        const ChunkBatch batch = store.park(chunks_of({1 + i % 3}, t));
        if (i % 2 == 0) {
          kept[t].push_back(batch);
          continue;
        }
        for (const Chunk& chunk : store.take(batch)) {
          for (const uts::TreeNode& node : chunk) {
            ASSERT_EQ(node.height, t);  // never another thread's payload
          }
          nodes_taken[t] += chunk.size();
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(store.in_use(), kThreads * kRounds / 2);
  std::uint64_t total = 0;
  for (std::uint32_t t = 0; t < kThreads; ++t) {
    for (const ChunkBatch& batch : kept[t]) {
      const std::vector<Chunk> chunks = store.take(batch);
      ASSERT_EQ(chunks.size(), 1u);
      EXPECT_EQ(chunks.front().size(), batch.nodes);
      EXPECT_EQ(chunks.front().front().height, t);
      total += batch.nodes;
    }
    total += nodes_taken[t];
  }
  EXPECT_EQ(store.in_use(), 0u);
  // Sizes cycle 1, 2, 3 over the rounds of every thread.
  std::uint64_t expected = 0;
  for (std::uint32_t i = 0; i < kRounds; ++i) expected += 1 + i % 3;
  EXPECT_EQ(total, kThreads * expected);
}

}  // namespace
}  // namespace dws::proto
