#pragma once

// Internal to src/crypto: the SHA-1 block compressors behind Sha1 and
// UtsRng::spawn, exposed so tests and micro-benchmarks can drive each one
// directly. Nothing outside crypto selects between them; UtsRng::spawn picks
// once at run time from what the CPU supports.

#include <array>
#include <cstdint>

#include "crypto/sha1.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define DWS_CRYPTO_SHA_NI 1
#else
#define DWS_CRYPTO_SHA_NI 0
#endif

namespace dws::crypto::detail {

/// SHA-1 initial hash value (FIPS 180-4 §5.3.1).
inline constexpr std::array<std::uint32_t, 5> kSha1Init = {
    0x67452301u, 0xefcdab89u, 0x98badcfeu, 0x10325476u, 0xc3d2e1f0u};

inline std::uint32_t load_be32(const std::uint8_t* p) noexcept {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) |
         static_cast<std::uint32_t>(p[3]);
}

inline void store_be32(std::uint8_t* p, std::uint32_t v) noexcept {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

/// Folds one 64-byte block, given as its 16 big-endian message words already
/// loaded into host integers, into the hash state `h`.
using Sha1Compressor = void (*)(std::uint32_t* h,
                                const std::uint32_t* w) noexcept;

/// The portable 80-round compression function.
void sha1_compress(std::uint32_t* h, const std::uint32_t* w) noexcept;

#if DWS_CRYPTO_SHA_NI
/// The same compression with the x86 SHA extensions. Call it only when
/// sha_ni_available() is true.
void sha1_compress_sha_ni(std::uint32_t* h, const std::uint32_t* w) noexcept;
#endif

/// True when the CPU has the SHA extensions and SSE4.1 (always false off
/// x86). Reads CPUID on every call; UtsRng::spawn keeps the first answer.
bool sha_ni_available() noexcept;

/// SHA1(parent || be32(child_index)) as one padded block through `compress`:
/// the state UtsRng::spawn gives child `child_index` of `parent`.
Sha1Digest spawn_digest(const Sha1Digest& parent, std::uint32_t child_index,
                        Sha1Compressor compress) noexcept;

}  // namespace dws::crypto::detail
