#include "crypto/sha1.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <utility>
#include <vector>

namespace dws::crypto {
namespace {

Sha1Digest digest_of(const std::string& s) {
  return Sha1::digest(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(s.data()), s.size()));
}

// FIPS 180 / RFC 3174 reference vectors.
TEST(Sha1, EmptyString) {
  EXPECT_EQ(to_hex(digest_of("")), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, Abc) {
  EXPECT_EQ(to_hex(digest_of("abc")), "a9993e364706816aba3e25717850c26c9cd0d89d");
}

TEST(Sha1, TwoBlockMessage) {
  EXPECT_EQ(to_hex(digest_of("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq")),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, MillionAs) {
  std::string s(1000000, 'a');
  EXPECT_EQ(to_hex(digest_of(s)), "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, QuickBrownFox) {
  EXPECT_EQ(to_hex(digest_of("The quick brown fox jumps over the lazy dog")),
            "2fd4e1c67a2d28fced849ee1bb76e7391b93eb12");
}

TEST(Sha1, ExactBlockBoundaries) {
  // 55, 56, 63, 64, 65 bytes cross the padding edge cases.
  for (std::size_t len : {55u, 56u, 63u, 64u, 65u, 119u, 120u, 128u}) {
    std::string a(len, 'x');
    // Incremental (1 byte at a time) must equal one-shot.
    Sha1 ctx;
    for (char ch : a) {
      const auto byte = static_cast<std::uint8_t>(ch);
      ctx.update(std::span<const std::uint8_t>(&byte, 1));
    }
    EXPECT_EQ(ctx.finish(), digest_of(a)) << "len=" << len;
  }
}

TEST(Sha1, PaddingBoundaryKnownAnswers) {
  // finish() pads with one update; these lengths leave 55, 56 and 63 bytes
  // buffered, so the padding fits one block, spills into a second, or both.
  const std::pair<std::size_t, const char*> cases[] = {
      {55, "c1c8bbdc22796e28c0e15163d20899b65621d65a"},
      {56, "c2db330f6083854c99d4b5bfb6e8f29f201be699"},
      {63, "03f09f5b158a7a8cdad920bddc29b81c18a551f5"},
      {64, "0098ba824b5c16427bd7a1122a5a442a25ec644d"},
      {119, "ee971065aaa017e0632a8ca6c77bb3bf8b1dfc56"},
      {120, "f34c1488385346a55709ba056ddd08280dd4c6d6"},
  };
  for (const auto& [len, hex] : cases) {
    EXPECT_EQ(to_hex(digest_of(std::string(len, 'a'))), hex) << "len=" << len;
  }
}

TEST(Sha1, IncrementalSplitsAgree) {
  const std::string msg =
      "Work stealing is a provably efficient scheduling algorithm for "
      "distributed dynamic load balancing requirements.";
  const auto ref = digest_of(msg);
  for (std::size_t split = 0; split <= msg.size(); split += 7) {
    Sha1 ctx;
    ctx.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()), split));
    ctx.update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(msg.data()) + split,
        msg.size() - split));
    EXPECT_EQ(ctx.finish(), ref) << "split=" << split;
  }
}

TEST(Sha1, ResetAllowsReuse) {
  Sha1 ctx;
  const std::uint8_t b = 'a';
  ctx.update(std::span<const std::uint8_t>(&b, 1));
  (void)ctx.finish();
  ctx.reset();
  EXPECT_EQ(to_hex(ctx.finish()), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
}

TEST(Sha1, DistinctInputsDistinctDigests) {
  // Smoke check over many short inputs: no collisions expected.
  std::vector<Sha1Digest> seen;
  for (std::uint32_t i = 0; i < 1000; ++i) {
    std::uint8_t bytes[4] = {static_cast<std::uint8_t>(i >> 24),
                             static_cast<std::uint8_t>(i >> 16),
                             static_cast<std::uint8_t>(i >> 8),
                             static_cast<std::uint8_t>(i)};
    seen.push_back(Sha1::digest(std::span<const std::uint8_t>(bytes, 4)));
  }
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(std::adjacent_find(seen.begin(), seen.end()), seen.end());
}

}  // namespace
}  // namespace dws::crypto
