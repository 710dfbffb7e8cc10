// dws::rt::MpscChannel tests: the per-rank inbox of the native runtime. The
// single-threaded cases pin the queue semantics; the stress cases run a few
// producer threads against one consumer and check that every message is
// delivered exactly once and in each producer's send order.
#include "rt/channel.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include "proto/message.hpp"

namespace dws::rt {
namespace {

TEST(MpscChannel, EmptyPopReturnsFalse) {
  MpscChannel<int> ch;
  int out = -1;
  EXPECT_FALSE(ch.ready());
  EXPECT_FALSE(ch.pop(out));
  EXPECT_EQ(out, -1);  // untouched on failure
}

TEST(MpscChannel, SingleProducerIsFifo) {
  MpscChannel<int> ch;
  for (int i = 0; i < 100; ++i) ch.push(i);
  for (int i = 0; i < 100; ++i) {
    int out = -1;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(out, i);
  }
  int out = -1;
  EXPECT_FALSE(ch.pop(out));
}

TEST(MpscChannel, ReadyTracksPendingMessages) {
  MpscChannel<int> ch;
  ch.push(7);
  ch.push(8);
  int out = 0;
  EXPECT_TRUE(ch.ready());
  ASSERT_TRUE(ch.pop(out));
  EXPECT_TRUE(ch.ready());
  ASSERT_TRUE(ch.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(ch.ready());
  ch.push(9);
  EXPECT_TRUE(ch.ready());
}

TEST(MpscChannel, MoveOnlyPayloadsPassThrough) {
  MpscChannel<std::unique_ptr<int>> ch;
  ch.push(std::make_unique<int>(41));
  ch.push(std::make_unique<int>(42));
  std::unique_ptr<int> out;
  ASSERT_TRUE(ch.pop(out));
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(*out, 41);
  ASSERT_TRUE(ch.pop(out));
  EXPECT_EQ(*out, 42);
}

TEST(MpscChannel, DestructorReleasesUndeliveredMessages) {
  auto payload = std::make_shared<int>(5);
  {
    MpscChannel<std::shared_ptr<int>> ch;
    for (int i = 0; i < 3; ++i) ch.push(payload);
    std::shared_ptr<int> out;
    ASSERT_TRUE(ch.pop(out));
    EXPECT_EQ(payload.use_count(), 4);  // two queued + `out` + `payload`
  }
  // The two messages still queued died with the channel.
  EXPECT_EQ(payload.use_count(), 1);
}

TEST(MpscChannel, InterleavedPushPopConserves) {
  MpscChannel<std::uint64_t> ch;
  std::uint64_t next_in = 0, next_out = 0;
  for (int round = 0; round < 50; ++round) {
    for (int i = 0; i < round % 7 + 1; ++i) ch.push(next_in++);
    for (int i = 0; i < round % 5; ++i) {
      std::uint64_t out = 0;
      if (!ch.pop(out)) break;
      EXPECT_EQ(out, next_out++);
    }
  }
  std::uint64_t out = 0;
  while (ch.pop(out)) EXPECT_EQ(out, next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(MpscChannel, CarriesProtocolMessagesIntact) {
  MpscChannel<proto::Message> ch;
  // A work-carrying response crosses the channel as its batch: the handle
  // and the inline counts arrive unchanged.
  proto::StealResponse resp;
  resp.chunks = proto::ChunkBatch{/*handle=*/5, /*chunks=*/3, /*nodes=*/40};
  resp.request_id = 9;
  proto::StealRequest req;
  req.thief = 3;
  req.request_id = 10;
  ch.push(proto::Message(resp));
  ch.push(proto::Message(req));
  proto::Message out;
  ASSERT_TRUE(ch.pop(out));
  const auto* got = std::get_if<proto::StealResponse>(&out);
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->chunks.handle, 5u);
  EXPECT_EQ(got->chunks.chunks, 3u);
  EXPECT_EQ(got->chunks.nodes, 40u);
  EXPECT_EQ(got->request_id, 9u);
  ASSERT_TRUE(ch.pop(out));
  const auto* got_req = std::get_if<proto::StealRequest>(&out);
  ASSERT_NE(got_req, nullptr);
  EXPECT_EQ(got_req->thief, 3u);
  EXPECT_EQ(got_req->request_id, 10u);
}

/// Message value: producer id in the high bits, per-producer sequence number
/// in the low bits.
constexpr std::uint64_t encode(std::uint64_t producer, std::uint64_t seq) {
  return producer << 32 | seq;
}

/// `producers` threads each push `per_producer` messages while the calling
/// thread consumes concurrently; returns the messages in arrival order.
/// A lost message fails the test after a deadline instead of hanging it.
std::vector<std::uint64_t> run_producers(unsigned producers,
                                         std::uint64_t per_producer) {
  MpscChannel<std::uint64_t> ch;
  std::vector<std::thread> threads;
  threads.reserve(producers);
  for (unsigned p = 0; p < producers; ++p) {
    threads.emplace_back([&ch, p, per_producer] {
      for (std::uint64_t s = 0; s < per_producer; ++s) ch.push(encode(p, s));
    });
  }
  std::vector<std::uint64_t> received;
  received.reserve(producers * per_producer);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(60);
  while (received.size() < producers * per_producer) {
    std::uint64_t out = 0;
    if (ch.pop(out)) {
      received.push_back(out);
    } else if (std::chrono::steady_clock::now() > deadline) {
      ADD_FAILURE() << "only " << received.size() << " messages arrived";
      break;
    } else {
      std::this_thread::yield();
    }
  }
  for (auto& t : threads) t.join();
  std::uint64_t extra = 0;
  EXPECT_FALSE(ch.pop(extra)) << "message delivered twice: " << extra;
  return received;
}

TEST(MpscChannelStress, ConcurrentProducersDeliverEveryMessageExactlyOnce) {
  constexpr unsigned kProducers = 4;
  constexpr std::uint64_t kPerProducer = 20'000;
  const auto received = run_producers(kProducers, kPerProducer);
  std::vector<std::vector<bool>> seen(kProducers,
                                      std::vector<bool>(kPerProducer, false));
  for (const std::uint64_t v : received) {
    const std::uint64_t p = v >> 32, s = v & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_LT(s, kPerProducer);
    ASSERT_FALSE(seen[p][s]) << "duplicate " << p << ":" << s;
    seen[p][s] = true;
  }
  EXPECT_EQ(received.size(), kProducers * kPerProducer);
}

TEST(MpscChannelStress, PerProducerOrderSurvivesConcurrency) {
  constexpr unsigned kProducers = 3;
  constexpr std::uint64_t kPerProducer = 20'000;
  const auto received = run_producers(kProducers, kPerProducer);
  std::vector<std::uint64_t> next(kProducers, 0);
  for (const std::uint64_t v : received) {
    const std::uint64_t p = v >> 32, s = v & 0xffffffffu;
    ASSERT_LT(p, kProducers);
    ASSERT_EQ(s, next[p]) << "producer " << p << " reordered";
    ++next[p];
  }
  for (unsigned p = 0; p < kProducers; ++p) EXPECT_EQ(next[p], kPerProducer);
}

}  // namespace
}  // namespace dws::rt
