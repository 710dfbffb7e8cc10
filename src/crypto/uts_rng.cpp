#include "crypto/uts_rng.hpp"

#include "crypto/detail/sha1_compress.hpp"

namespace dws::crypto {

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
  return spawn_pair(child_index)[0];
}

std::array<UtsRng, 2> UtsRng::spawn_pair(std::uint32_t first) const noexcept {
  std::array<UtsRng, 2> out;
#if DWS_CRYPTO_SHA_NI
  // Resolved on first use rather than at namespace scope, so a spawn during
  // static initialisation never reads an unset flag.
  static const bool sha_ni = detail::sha_ni_available();
  if (sha_ni) {
    detail::spawn_pair_sha_ni(state_, first, out[0].state_, out[1].state_);
    return out;
  }
#endif
  detail::spawn_pair_portable(state_, first, out[0].state_, out[1].state_);
  return out;
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
