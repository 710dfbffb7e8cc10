#include "crypto/sha1.hpp"

#include <cstring>

#include "crypto/detail/sha1_compress.hpp"

namespace dws::crypto {

void Sha1::reset() noexcept {
  std::memcpy(h_, detail::kSha1Init.data(), sizeof h_);
  total_bytes_ = 0;
  buffered_ = 0;
}

void Sha1::process_block(const std::uint8_t* block) noexcept {
  std::uint32_t w[16];
  for (int i = 0; i < 16; ++i) w[i] = detail::load_be32(block + 4 * i);
  detail::sha1_compress(h_, w);
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  total_bytes_ += data.size();
  const std::uint8_t* p = data.data();
  std::size_t remaining = data.size();

  if (buffered_ > 0) {
    const std::size_t need = 64 - buffered_;
    const std::size_t take = remaining < need ? remaining : need;
    std::memcpy(buffer_ + buffered_, p, take);
    buffered_ += take;
    p += take;
    remaining -= take;
    if (buffered_ == 64) {
      process_block(buffer_);
      buffered_ = 0;
    }
  }

  while (remaining >= 64) {
    process_block(p);
    p += 64;
    remaining -= 64;
  }

  if (remaining > 0) {
    std::memcpy(buffer_, p, remaining);
    buffered_ = remaining;
  }
}

Sha1Digest Sha1::finish() noexcept {
  // Padding, written in one update: 0x80, zeros up to 56 bytes mod 64, then
  // the 64-bit big-endian bit length.
  const std::uint64_t bit_len = total_bytes_ * 8;
  std::uint8_t pad[72] = {0x80};
  const std::size_t zeros = (119 - buffered_) % 64;
  for (std::size_t i = 0; i < 8; ++i) {
    pad[1 + zeros + i] = static_cast<std::uint8_t>(bit_len >> (56 - 8 * i));
  }
  update(std::span<const std::uint8_t>(pad, 1 + zeros + 8));

  Sha1Digest out;
  for (int i = 0; i < 5; ++i) detail::store_be32(out.data() + 4 * i, h_[i]);
  return out;
}

Sha1Digest Sha1::digest(std::span<const std::uint8_t> data) noexcept {
  Sha1 ctx;
  ctx.update(data);
  return ctx.finish();
}

std::string to_hex(const Sha1Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * digest.size());
  for (std::uint8_t byte : digest) {
    out += kHex[byte >> 4];
    out += kHex[byte & 0xf];
  }
  return out;
}

}  // namespace dws::crypto
