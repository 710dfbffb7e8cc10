#pragma once

#include <array>
#include <cstdint>

#include "crypto/sha1.hpp"

namespace dws::crypto {

/// Splittable deterministic RNG in the style of the UTS benchmark's BRG SHA-1
/// generator.
///
/// Every tree node owns a 20-byte state (a SHA-1 digest). The root state is
/// derived from the integer root seed `r` (Table I of the paper: r = 316 for
/// T3XXL, r = 559 for T3WL); child i of a node has state
/// SHA1(parent_state || be32(i)). Because the state derivation is pure, any
/// process can expand any subtree independently and the *same* tree is
/// produced regardless of hardware, process count or traversal order — the
/// property UTS relies on for cross-platform comparability.
class UtsRng {
 public:
  UtsRng() noexcept : state_{} {}

  /// Root state for a tree seed.
  static UtsRng from_seed(std::uint32_t seed) noexcept;

  /// State of the i-th child of this node: lane 0 of spawn_pair.
  UtsRng spawn(std::uint32_t child_index) const noexcept;

  /// States of children `first` and `first + 1` (the index wraps mod 2^32),
  /// equal to {spawn(first), spawn(first + 1)}. One kernel computes both: on
  /// a CPU with the SHA extensions the two compressions interleave, and a
  /// pair takes about as long as one compression's dependent chain.
  std::array<UtsRng, 2> spawn_pair(std::uint32_t first) const noexcept;

  /// 31-bit non-negative uniform value derived from the state (the UTS
  /// "rng_rand" convention: high 4 bytes of the digest, sign bit cleared).
  std::uint32_t rand31() const noexcept;

  /// Uniform in [0, 1): rand31() / 2^31.
  double to_prob() const noexcept;

  const Sha1Digest& state() const noexcept { return state_; }

  friend bool operator==(const UtsRng&, const UtsRng&) = default;

 private:
  explicit UtsRng(const Sha1Digest& d) noexcept : state_(d) {}

  Sha1Digest state_;
};

}  // namespace dws::crypto
