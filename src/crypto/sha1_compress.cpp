#include "crypto/detail/sha1_compress.hpp"

#include <cstring>

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

void spawn_pair_portable(const Sha1Digest& parent, std::uint32_t first,
                         Sha1Digest& out0, Sha1Digest& out1) noexcept {
  // The 24-byte message fits one block: parent digest, child index, the 0x80
  // terminator, zeros, and the bit length 192 in the last word.
  std::uint32_t w[16] = {};
  for (int i = 0; i < 5; ++i) w[i] = load_be32(parent.data() + 4 * i);
  w[6] = 0x80000000u;
  w[15] = static_cast<std::uint32_t>(8 * (kSha1DigestSize + 4));
  std::uint32_t h[2][5];
  for (std::uint32_t lane = 0; lane < 2; ++lane) {
    w[5] = first + lane;
    for (int i = 0; i < 5; ++i) h[lane][i] = kSha1Init[i];
    sha1_compress(h[lane], w);
  }
  // Stored only now: out0 or out1 may alias the parent.
  for (int i = 0; i < 5; ++i) {
    store_be32(out0.data() + 4 * i, h[0][i]);
    store_be32(out1.data() + 4 * i, h[1][i]);
  }
}

#if DWS_CRYPTO_SHA_NI

// The two children's blocks differ only in word 5, so they run as two lanes
// of one unrolled loop and the CPU overlaps their SHA1RNDS4 chains, each of
// which alone would leave the SHA unit waiting on its own latency. Four rounds
// per SHA1RNDS4, twenty groups. Group g feeds message words 4g..4g+3 (m[g %
// 4], first word in element 3) and, while g < 16, derives words 4g+16..4g+19
// into the slot it has just consumed. SHA1NEXTE adds rotl(a, 30) of the state
// four rounds back to the next group's words, which is how E is carried. Two
// lanes, not four: the legacy-SSE SHA instructions reach only xmm0-15, and
// four lanes' state and schedule do not fit there.
__attribute__((target("sha,sse4.1"))) void spawn_pair_sha_ni(
    const Sha1Digest& parent, std::uint32_t first, Sha1Digest& out0,
    Sha1Digest& out1) noexcept {
  // Reverses all 16 bytes: big-endian words in memory order <-> host words
  // with the first in element 3, SHA1RNDS4's layout for both state and
  // message.
  const __m128i flip =
      _mm_set_epi64x(0x0001020304050607LL, 0x08090a0b0c0d0e0fLL);
  const __m128i abcd_in = _mm_set_epi32(
      static_cast<int>(kSha1Init[0]), static_cast<int>(kSha1Init[1]),
      static_cast<int>(kSha1Init[2]), static_cast<int>(kSha1Init[3]));
  const __m128i e_in = _mm_set_epi32(static_cast<int>(kSha1Init[4]), 0, 0, 0);

  // Words 0-3 are the parent's first 16 bytes; word 4 its last four, then
  // the index, the terminator and word 7 = 0; words 8-14 are zero and word 15
  // is the bit length 192.
  const __m128i words0 = _mm_shuffle_epi8(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(parent.data())), flip);
  const auto w4 = static_cast<int>(load_be32(parent.data() + 16));
  __m128i m[2][4];
  __m128i abcd[2];
  __m128i e[2];
  for (std::uint32_t l = 0; l < 2; ++l) {
    m[l][0] = words0;
    m[l][1] = _mm_set_epi32(w4, static_cast<int>(first + l),
                            static_cast<int>(0x80000000u), 0);
    m[l][2] = _mm_setzero_si128();
    m[l][3] =
        _mm_set_epi32(0, 0, 0, static_cast<int>(8 * (kSha1DigestSize + 4)));
    abcd[l] = abcd_in;
    e[l] = e_in;
  }

#pragma GCC unroll 20
  for (int g = 0; g < 20; ++g) {
#pragma GCC unroll 2
    for (int l = 0; l < 2; ++l) {
      const __m128i wk = g == 0 ? _mm_add_epi32(e[l], m[l][0])
                                : _mm_sha1nexte_epu32(e[l], m[l][g % 4]);
      e[l] = abcd[l];
      switch (g / 5) {
        case 0: abcd[l] = _mm_sha1rnds4_epu32(abcd[l], wk, 0); break;
        case 1: abcd[l] = _mm_sha1rnds4_epu32(abcd[l], wk, 1); break;
        case 2: abcd[l] = _mm_sha1rnds4_epu32(abcd[l], wk, 2); break;
        default: abcd[l] = _mm_sha1rnds4_epu32(abcd[l], wk, 3); break;
      }
      if (g < 16) {
        m[l][g % 4] = _mm_sha1msg2_epu32(
            _mm_xor_si128(_mm_sha1msg1_epu32(m[l][g % 4], m[l][(g + 1) % 4]),
                          m[l][(g + 2) % 4]),
            m[l][(g + 3) % 4]);
      }
    }
  }

  Sha1Digest* const out[2] = {&out0, &out1};
  for (int l = 0; l < 2; ++l) {
    const __m128i abcd_out =
        _mm_shuffle_epi8(_mm_add_epi32(abcd[l], abcd_in), flip);
    const __m128i e_out =
        _mm_shuffle_epi8(_mm_sha1nexte_epu32(e[l], e_in), flip);
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out[l]->data()), abcd_out);
    const auto e_word = static_cast<std::uint32_t>(_mm_cvtsi128_si32(e_out));
    std::memcpy(out[l]->data() + 16, &e_word, 4);
  }
}

bool sha_ni_available() noexcept {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  const bool sse41 = (ecx & (1u << 19)) != 0;
  if (!__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) return false;
  const bool sha = (ebx & (1u << 29)) != 0;
  return sse41 && sha;
}

const char* spawn_kernel() noexcept {
  return sha_ni_available() ? "sha-ni-x2" : "portable";
}

#else

bool sha_ni_available() noexcept { return false; }

const char* spawn_kernel() noexcept { return "portable"; }

#endif

}  // namespace dws::crypto::detail
