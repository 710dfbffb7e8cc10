#include "crypto/uts_rng.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <set>

#include "crypto/detail/sha1_compress.hpp"

namespace dws::crypto {
namespace {

TEST(UtsRng, SeedIsDeterministic) {
  const auto a = UtsRng::from_seed(316);
  const auto b = UtsRng::from_seed(316);
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.rand31(), b.rand31());
}

TEST(UtsRng, DifferentSeedsDiffer) {
  EXPECT_NE(UtsRng::from_seed(316), UtsRng::from_seed(559));
}

TEST(UtsRng, SpawnIsDeterministic) {
  const auto root = UtsRng::from_seed(42);
  EXPECT_EQ(root.spawn(0), root.spawn(0));
  EXPECT_EQ(root.spawn(7), root.spawn(7));
}

TEST(UtsRng, SiblingsDiffer) {
  const auto root = UtsRng::from_seed(42);
  std::set<std::string> states;
  for (std::uint32_t i = 0; i < 64; ++i) {
    states.insert(to_hex(root.spawn(i).state()));
  }
  EXPECT_EQ(states.size(), 64u);
}

TEST(UtsRng, SpawnIndependentOfCallOrder) {
  // The splittable property: child states depend only on (parent, index),
  // never on how many draws happened before — the foundation of UTS's
  // machine-independent tree.
  const auto root = UtsRng::from_seed(5);
  const auto c3_first = root.spawn(3);
  (void)root.spawn(0);
  (void)root.spawn(1);
  const auto c3_again = root.spawn(3);
  EXPECT_EQ(c3_first, c3_again);
}

TEST(UtsRng, Rand31IsNonNegative31Bit) {
  auto node = UtsRng::from_seed(1);
  for (int depth = 0; depth < 1000; ++depth) {
    EXPECT_LE(node.rand31(), 0x7fffffffu);
    node = node.spawn(0);
  }
}

TEST(UtsRng, ToProbInUnitInterval) {
  auto node = UtsRng::from_seed(2);
  for (int depth = 0; depth < 1000; ++depth) {
    const double p = node.to_prob();
    ASSERT_GE(p, 0.0);
    ASSERT_LT(p, 1.0);
    node = node.spawn(1);
  }
}

TEST(UtsRng, ToProbLooksUniform) {
  // Walk a chain, bucket the probabilities; each decile should hold roughly
  // 10% of draws. SHA-1 output is effectively uniform.
  auto node = UtsRng::from_seed(77);
  int buckets[10] = {};
  const int draws = 20000;
  for (int i = 0; i < draws; ++i) {
    const double p = node.to_prob();
    ++buckets[static_cast<int>(p * 10.0)];
    node = node.spawn(static_cast<std::uint32_t>(i % 3));
  }
  for (int b : buckets) EXPECT_NEAR(b, draws / 10, draws / 10 * 0.15);
}

TEST(UtsRng, DeepChainsDoNotCycle) {
  auto node = UtsRng::from_seed(9);
  std::set<std::string> seen;
  for (int depth = 0; depth < 4096; ++depth) {
    ASSERT_TRUE(seen.insert(to_hex(node.state())).second) << depth;
    node = node.spawn(0);
  }
}

// Known answers computed with the incremental Sha1 before spawn had its own
// one-block path: they pin the tree's identity independently of Sha1.
TEST(UtsRng, KnownAnswerSeed316Child0) {
  EXPECT_EQ(to_hex(UtsRng::from_seed(316).spawn(0).state()),
            "86699693a469c9f0bf2fa25826aae20762628ee9");
}

TEST(UtsRng, KnownAnswerDepth1000Chain) {
  // Node at depth d is child d - 1 of its parent.
  auto node = UtsRng::from_seed(316);
  for (std::uint32_t i = 0; i < 1000; ++i) node = node.spawn(i);
  EXPECT_EQ(to_hex(node.state()), "d625ecb6d159136f3ef56734c3f010c1d9e2ccd6");
}

/// The definition a spawn must reproduce: SHA1(parent || be32(index)).
Sha1Digest reference_spawn(const Sha1Digest& parent, std::uint32_t index) {
  std::uint8_t input[kSha1DigestSize + 4];
  for (std::size_t i = 0; i < kSha1DigestSize; ++i) input[i] = parent[i];
  for (std::size_t i = 0; i < 4; ++i) {
    input[kSha1DigestSize + i] =
        static_cast<std::uint8_t>(index >> (24 - 8 * i));
  }
  return Sha1::digest(input);
}

using PairKernel = void (*)(const Sha1Digest&, std::uint32_t, Sha1Digest&,
                            Sha1Digest&) noexcept;

/// Both lanes of `kernel` against the definition: indices 0..255, the pair
/// whose second lane wraps to index 0, and a million-pair chain that
/// continues from lane 0 and lane 1 in turn.
void expect_pair_matches_sha1(PairKernel kernel) {
  const Sha1Digest root = UtsRng::from_seed(316).state();
  Sha1Digest a;
  Sha1Digest b;
  for (std::uint32_t i = 0; i < 256; ++i) {
    kernel(root, i, a, b);
    ASSERT_EQ(a, reference_spawn(root, i)) << "lane 0, index " << i;
    ASSERT_EQ(b, reference_spawn(root, i + 1)) << "lane 1, index " << i + 1;
  }
  kernel(root, 0xffffffffu, a, b);
  ASSERT_EQ(a, reference_spawn(root, 0xffffffffu));
  ASSERT_EQ(b, reference_spawn(root, 0));

  // Each index a different bit pattern.
  Sha1Digest node = root;
  for (std::uint32_t i = 0; i < 1'000'000; ++i) {
    const std::uint32_t index = i * 0x9e3779b9u;
    kernel(node, index, a, b);
    const Sha1Digest& next = (i & 1) != 0 ? b : a;
    ASSERT_EQ(next, reference_spawn(node, (i & 1) != 0 ? index + 1 : index))
        << "depth " << i;
    node = next;
  }
}

TEST(UtsRngCompress, ScalarMatchesSha1) {
  expect_pair_matches_sha1(detail::spawn_pair_portable);
}

TEST(UtsRngCompress, PairMatchesSha1) {
  if (!detail::sha_ni_available()) {
    GTEST_SKIP() << "CPU lacks the SHA extensions or SSE4.1";
  }
#if DWS_CRYPTO_SHA_NI
  expect_pair_matches_sha1(detail::spawn_pair_sha_ni);
#endif
}

}  // namespace
}  // namespace dws::crypto
