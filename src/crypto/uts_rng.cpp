#include "crypto/uts_rng.hpp"

#include "crypto/detail/sha1_compress.hpp"

namespace dws::crypto {

namespace detail {

Sha1Digest spawn_digest(const Sha1Digest& parent, std::uint32_t child_index,
                        Sha1Compressor compress) noexcept {
  // The 24-byte message fits one block: parent digest, child index, the 0x80
  // terminator, zeros, and the bit length 192 in the last word.
  std::uint32_t w[16] = {};
  for (int i = 0; i < 5; ++i) w[i] = load_be32(parent.data() + 4 * i);
  w[5] = child_index;
  w[6] = 0x80000000u;
  w[15] = static_cast<std::uint32_t>(8 * (kSha1DigestSize + 4));

  auto h = kSha1Init;
  compress(h.data(), w);

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) store_be32(out.data() + 4 * i, h[i]);
  return out;
}

}  // namespace detail

UtsRng UtsRng::from_seed(std::uint32_t seed) noexcept {
  std::uint8_t bytes[4];
  detail::store_be32(bytes, seed);
  Sha1 ctx;
  ctx.update(std::span<const std::uint8_t>(bytes, 4));
  UtsRng rng;
  rng.state_ = ctx.finish();
  return rng;
}

UtsRng UtsRng::spawn(std::uint32_t child_index) const noexcept {
  // Resolved on first use rather than at namespace scope, so a spawn during
  // static initialisation never sees an unset pointer.
  static const detail::Sha1Compressor compress = [] {
#if DWS_CRYPTO_SHA_NI
    if (detail::sha_ni_available()) return detail::sha1_compress_sha_ni;
#endif
    return detail::sha1_compress;
  }();
  return UtsRng(detail::spawn_digest(state_, child_index, compress));
}

std::uint32_t UtsRng::rand31() const noexcept {
  const std::uint32_t v = (static_cast<std::uint32_t>(state_[16]) << 24) |
                          (static_cast<std::uint32_t>(state_[17]) << 16) |
                          (static_cast<std::uint32_t>(state_[18]) << 8) |
                          static_cast<std::uint32_t>(state_[19]);
  return v & 0x7fffffffu;
}

double UtsRng::to_prob() const noexcept {
  return static_cast<double>(rand31()) / 2147483648.0;  // 2^31
}

}  // namespace dws::crypto
