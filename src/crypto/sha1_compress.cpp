#include "crypto/detail/sha1_compress.hpp"

#if DWS_CRYPTO_SHA_NI
#include <cpuid.h>
#include <immintrin.h>
#endif

namespace dws::crypto::detail {

namespace {

inline std::uint32_t rotl32(std::uint32_t x, int k) noexcept {
  return (x << k) | (x >> (32 - k));
}

}  // namespace

void sha1_compress(std::uint32_t* h, const std::uint32_t* w_in) noexcept {
  std::uint32_t w[80];
  for (int i = 0; i < 16; ++i) w[i] = w_in[i];
  for (int i = 16; i < 80; ++i) {
    w[i] = rotl32(w[i - 3] ^ w[i - 8] ^ w[i - 14] ^ w[i - 16], 1);
  }

  std::uint32_t a = h[0];
  std::uint32_t b = h[1];
  std::uint32_t c = h[2];
  std::uint32_t d = h[3];
  std::uint32_t e = h[4];

  // Rounds 20k..20k+19 share one boolean function and constant.
  const auto round = [&](int i, std::uint32_t f, std::uint32_t k) {
    const std::uint32_t temp = rotl32(a, 5) + f + e + k + w[i];
    e = d;
    d = c;
    c = rotl32(b, 30);
    b = a;
    a = temp;
  };
#pragma GCC unroll 20
  for (int i = 0; i < 20; ++i) round(i, (b & c) | (~b & d), 0x5a827999u);
#pragma GCC unroll 20
  for (int i = 20; i < 40; ++i) round(i, b ^ c ^ d, 0x6ed9eba1u);
#pragma GCC unroll 20
  for (int i = 40; i < 60; ++i) {
    round(i, (b & c) | (b & d) | (c & d), 0x8f1bbcdcu);
  }
#pragma GCC unroll 20
  for (int i = 60; i < 80; ++i) round(i, b ^ c ^ d, 0xca62c1d6u);

  h[0] += a;
  h[1] += b;
  h[2] += c;
  h[3] += d;
  h[4] += e;
}

#if DWS_CRYPTO_SHA_NI

// Four rounds per SHA1RNDS4; twenty groups. Group g feeds message words
// 4g..4g+3 (m[g % 4]) and, while g < 16, derives words 4g+16..4g+19 into the
// slot it has just consumed. SHA1NEXTE adds rotl(a, 30) of the state four
// rounds back to the next group's words, which is how E is carried.
__attribute__((target("sha,sse4.1"))) void sha1_compress_sha_ni(
    std::uint32_t* h, const std::uint32_t* w) noexcept {
  // Lane 3 holds the first word of each group, as SHA1RNDS4 expects.
  __m128i m[4];
  for (int i = 0; i < 4; ++i) {
    m[i] = _mm_shuffle_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(w + 4 * i)), 0x1b);
  }

  __m128i abcd = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(h)), 0x1b);
  __m128i e = _mm_set_epi32(static_cast<int>(h[4]), 0, 0, 0);
  const __m128i abcd_in = abcd;
  const __m128i e_in = e;

#pragma GCC unroll 20
  for (int g = 0; g < 20; ++g) {
    const __m128i wk =
        g == 0 ? _mm_add_epi32(e, m[0]) : _mm_sha1nexte_epu32(e, m[g % 4]);
    e = abcd;
    switch (g / 5) {
      case 0: abcd = _mm_sha1rnds4_epu32(abcd, wk, 0); break;
      case 1: abcd = _mm_sha1rnds4_epu32(abcd, wk, 1); break;
      case 2: abcd = _mm_sha1rnds4_epu32(abcd, wk, 2); break;
      default: abcd = _mm_sha1rnds4_epu32(abcd, wk, 3); break;
    }
    if (g < 16) {
      m[g % 4] = _mm_sha1msg2_epu32(
          _mm_xor_si128(_mm_sha1msg1_epu32(m[g % 4], m[(g + 1) % 4]),
                        m[(g + 2) % 4]),
          m[(g + 3) % 4]);
    }
  }

  e = _mm_sha1nexte_epu32(e, e_in);
  abcd = _mm_shuffle_epi32(_mm_add_epi32(abcd, abcd_in), 0x1b);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(h), abcd);
  h[4] = static_cast<std::uint32_t>(_mm_extract_epi32(e, 3));
}

bool sha_ni_available() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sse41 && sha;
}

#else

bool sha_ni_available() noexcept { return false; }

#endif

}  // namespace dws::crypto::detail
