#include "hash/sha1.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <utility>

namespace avmem::hashing {

namespace {

template <std::size_t First, typename Body, std::size_t... I>
inline void unrolled(Body& body, std::index_sequence<I...>) {
  (body(First + I), ...);
}

/// body(First), body(First + 1), ..., body(First + N - 1) as straight-line
/// code: every round index is a constant, so schedule slots, message
/// words and shift amounts resolve at compile time instead of branching
/// per round.
template <std::size_t First, std::size_t N, typename Body>
inline void unroll(Body body) {
  unrolled<First>(body, std::make_index_sequence<N>{});
}

[[nodiscard]] inline std::uint32_t loadBigEndian(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | std::uint32_t{p[3]};
}

}  // namespace

void Sha1::reset() noexcept {
  state_ = {0x67452301u, 0xEFCDAB89u, 0x98BADCFEu, 0x10325476u, 0xC3D2E1F0u};
  totalBytes_ = 0;
  bufferLen_ = 0;
}

void Sha1::processBlock(const std::uint8_t* block) noexcept {
  // The message schedule W[0..79] lives in a 16-word ring: W[i] for
  // i >= 16 overwrites W[i - 16], the oldest word still needed.
  std::uint32_t w[16];
  for (std::size_t i = 0; i < 16; ++i) w[i] = loadBigEndian(block + 4 * i);
  const auto schedule = [&w](std::size_t i) {
    if (i < 16) return w[i];
    w[i & 15] = std::rotl(w[(i - 3) & 15] ^ w[(i - 8) & 15] ^
                              w[(i - 14) & 15] ^ w[i & 15],
                          1);
    return w[i & 15];
  };

  std::uint32_t a = state_[0];
  std::uint32_t b = state_[1];
  std::uint32_t c = state_[2];
  std::uint32_t d = state_[3];
  std::uint32_t e = state_[4];
  const auto step = [&](std::uint32_t f, std::uint32_t k, std::uint32_t wi) {
    const std::uint32_t tmp = std::rotl(a, 5) + f + e + k + wi;
    e = d;
    d = c;
    c = std::rotl(b, 30);
    b = a;
    a = tmp;
  };

  unroll<0, 20>([&](std::size_t i) {
    step(d ^ (b & (c ^ d)), 0x5A827999u, schedule(i));
  });
  unroll<20, 20>(
      [&](std::size_t i) { step(b ^ c ^ d, 0x6ED9EBA1u, schedule(i)); });
  unroll<40, 20>([&](std::size_t i) {
    step((b & c) | (d & (b | c)), 0x8F1BBCDCu, schedule(i));
  });
  unroll<60, 20>(
      [&](std::size_t i) { step(b ^ c ^ d, 0xCA62C1D6u, schedule(i)); });

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
  state_[4] += e;
}

void Sha1::update(std::span<const std::uint8_t> data) noexcept {
  totalBytes_ += data.size();
  std::size_t offset = 0;

  if (bufferLen_ > 0) {
    const std::size_t need = 64 - bufferLen_;
    const std::size_t take = std::min(need, data.size());
    std::memcpy(buffer_.data() + bufferLen_, data.data(), take);
    bufferLen_ += take;
    offset += take;
    if (bufferLen_ == 64) {
      processBlock(buffer_.data());
      bufferLen_ = 0;
    }
  }

  while (offset + 64 <= data.size()) {
    processBlock(data.data() + offset);
    offset += 64;
  }

  if (offset < data.size()) {
    const std::size_t rest = data.size() - offset;
    std::memcpy(buffer_.data(), data.data() + offset, rest);
    bufferLen_ = rest;
  }
}

Sha1Digest Sha1::finish() noexcept {
  const std::uint64_t bitLen = totalBytes_ * 8;

  // Terminator, zero padding to 56 mod 64, then the big-endian bit
  // length. Only a tail of more than 55 bytes spills into a second block.
  buffer_[bufferLen_++] = 0x80;
  if (bufferLen_ > 56) {
    std::memset(buffer_.data() + bufferLen_, 0, 64 - bufferLen_);
    processBlock(buffer_.data());
    bufferLen_ = 0;
  }
  std::memset(buffer_.data() + bufferLen_, 0, 56 - bufferLen_);
  for (std::size_t i = 0; i < 8; ++i) {
    buffer_[56 + i] = static_cast<std::uint8_t>(bitLen >> (56 - 8 * i));
  }
  processBlock(buffer_.data());

  Sha1Digest digest{};
  for (int i = 0; i < 5; ++i) {
    digest[i * 4] = static_cast<std::uint8_t>(state_[i] >> 24);
    digest[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest[i * 4 + 3] = static_cast<std::uint8_t>(state_[i]);
  }
  return digest;
}

Sha1Digest sha1(std::span<const std::uint8_t> data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

Sha1Digest sha1(std::string_view data) noexcept {
  Sha1 h;
  h.update(data);
  return h.finish();
}

std::string toHex(const Sha1Digest& digest) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(digest.size() * 2);
  for (const std::uint8_t b : digest) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0xF]);
  }
  return out;
}

}  // namespace avmem::hashing
