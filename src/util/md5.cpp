#include "util/md5.hpp"

#include <bit>
#include <cstring>

namespace bitdew::util {
namespace {

// The four round functions of RFC 1321 §3.4, rewritten so that fewer
// operations wait on b, the word the previous step just computed.
// F(b,c,d) = (b & c) | (~b & d) = d ^ (b & (c ^ d)). In G(b,c,d) =
// (b & d) | (c & ~d) the two terms share no bits, so | is +, and c & ~d is
// added into the step's sum before b is ready (measured ~10 % faster than
// c ^ (d & (b ^ c)) on x86-64 with gcc 12).
constexpr std::uint32_t f_round(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return d ^ (b & (c ^ d));
}
constexpr std::uint32_t g_round(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return (b & d) + (c & ~d);
}
constexpr std::uint32_t h_round(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return b ^ c ^ d;
}
constexpr std::uint32_t i_round(std::uint32_t b, std::uint32_t c, std::uint32_t d) {
  return c ^ (b | ~d);
}

}  // namespace

// One MD5 operation: a = b + ((a + round(b,c,d) + word + constant) <<< shift).
// The constant is floor(2^32 * abs(sin(i + 1))) for step i.
#define STEP(round, a, b, c, d, word, constant, shift) \
  (a) = (b) + std::rotl((a) + round((b), (c), (d)) + (word) + (constant), (shift))

void Md5::reset() {
  state_[0] = 0x67452301;
  state_[1] = 0xefcdab89;
  state_[2] = 0x98badcfe;
  state_[3] = 0x10325476;
  bit_count_ = 0;
  buffer_len_ = 0;
}

void Md5::transform(const std::uint8_t block[64]) {
  std::uint32_t m[16];
  std::memcpy(m, block, sizeof(m));
  if constexpr (std::endian::native == std::endian::big) {
    for (std::uint32_t& word : m) word = __builtin_bswap32(word);
  }

  std::uint32_t a = state_[0], b = state_[1], c = state_[2], d = state_[3];

  STEP(f_round, a, b, c, d, m[0], 0xd76aa478, 7);
  STEP(f_round, d, a, b, c, m[1], 0xe8c7b756, 12);
  STEP(f_round, c, d, a, b, m[2], 0x242070db, 17);
  STEP(f_round, b, c, d, a, m[3], 0xc1bdceee, 22);
  STEP(f_round, a, b, c, d, m[4], 0xf57c0faf, 7);
  STEP(f_round, d, a, b, c, m[5], 0x4787c62a, 12);
  STEP(f_round, c, d, a, b, m[6], 0xa8304613, 17);
  STEP(f_round, b, c, d, a, m[7], 0xfd469501, 22);
  STEP(f_round, a, b, c, d, m[8], 0x698098d8, 7);
  STEP(f_round, d, a, b, c, m[9], 0x8b44f7af, 12);
  STEP(f_round, c, d, a, b, m[10], 0xffff5bb1, 17);
  STEP(f_round, b, c, d, a, m[11], 0x895cd7be, 22);
  STEP(f_round, a, b, c, d, m[12], 0x6b901122, 7);
  STEP(f_round, d, a, b, c, m[13], 0xfd987193, 12);
  STEP(f_round, c, d, a, b, m[14], 0xa679438e, 17);
  STEP(f_round, b, c, d, a, m[15], 0x49b40821, 22);

  STEP(g_round, a, b, c, d, m[1], 0xf61e2562, 5);
  STEP(g_round, d, a, b, c, m[6], 0xc040b340, 9);
  STEP(g_round, c, d, a, b, m[11], 0x265e5a51, 14);
  STEP(g_round, b, c, d, a, m[0], 0xe9b6c7aa, 20);
  STEP(g_round, a, b, c, d, m[5], 0xd62f105d, 5);
  STEP(g_round, d, a, b, c, m[10], 0x02441453, 9);
  STEP(g_round, c, d, a, b, m[15], 0xd8a1e681, 14);
  STEP(g_round, b, c, d, a, m[4], 0xe7d3fbc8, 20);
  STEP(g_round, a, b, c, d, m[9], 0x21e1cde6, 5);
  STEP(g_round, d, a, b, c, m[14], 0xc33707d6, 9);
  STEP(g_round, c, d, a, b, m[3], 0xf4d50d87, 14);
  STEP(g_round, b, c, d, a, m[8], 0x455a14ed, 20);
  STEP(g_round, a, b, c, d, m[13], 0xa9e3e905, 5);
  STEP(g_round, d, a, b, c, m[2], 0xfcefa3f8, 9);
  STEP(g_round, c, d, a, b, m[7], 0x676f02d9, 14);
  STEP(g_round, b, c, d, a, m[12], 0x8d2a4c8a, 20);

  STEP(h_round, a, b, c, d, m[5], 0xfffa3942, 4);
  STEP(h_round, d, a, b, c, m[8], 0x8771f681, 11);
  STEP(h_round, c, d, a, b, m[11], 0x6d9d6122, 16);
  STEP(h_round, b, c, d, a, m[14], 0xfde5380c, 23);
  STEP(h_round, a, b, c, d, m[1], 0xa4beea44, 4);
  STEP(h_round, d, a, b, c, m[4], 0x4bdecfa9, 11);
  STEP(h_round, c, d, a, b, m[7], 0xf6bb4b60, 16);
  STEP(h_round, b, c, d, a, m[10], 0xbebfbc70, 23);
  STEP(h_round, a, b, c, d, m[13], 0x289b7ec6, 4);
  STEP(h_round, d, a, b, c, m[0], 0xeaa127fa, 11);
  STEP(h_round, c, d, a, b, m[3], 0xd4ef3085, 16);
  STEP(h_round, b, c, d, a, m[6], 0x04881d05, 23);
  STEP(h_round, a, b, c, d, m[9], 0xd9d4d039, 4);
  STEP(h_round, d, a, b, c, m[12], 0xe6db99e5, 11);
  STEP(h_round, c, d, a, b, m[15], 0x1fa27cf8, 16);
  STEP(h_round, b, c, d, a, m[2], 0xc4ac5665, 23);

  STEP(i_round, a, b, c, d, m[0], 0xf4292244, 6);
  STEP(i_round, d, a, b, c, m[7], 0x432aff97, 10);
  STEP(i_round, c, d, a, b, m[14], 0xab9423a7, 15);
  STEP(i_round, b, c, d, a, m[5], 0xfc93a039, 21);
  STEP(i_round, a, b, c, d, m[12], 0x655b59c3, 6);
  STEP(i_round, d, a, b, c, m[3], 0x8f0ccc92, 10);
  STEP(i_round, c, d, a, b, m[10], 0xffeff47d, 15);
  STEP(i_round, b, c, d, a, m[1], 0x85845dd1, 21);
  STEP(i_round, a, b, c, d, m[8], 0x6fa87e4f, 6);
  STEP(i_round, d, a, b, c, m[15], 0xfe2ce6e0, 10);
  STEP(i_round, c, d, a, b, m[6], 0xa3014314, 15);
  STEP(i_round, b, c, d, a, m[13], 0x4e0811a1, 21);
  STEP(i_round, a, b, c, d, m[4], 0xf7537e82, 6);
  STEP(i_round, d, a, b, c, m[11], 0xbd3af235, 10);
  STEP(i_round, c, d, a, b, m[2], 0x2ad7d2bb, 15);
  STEP(i_round, b, c, d, a, m[9], 0xeb86d391, 21);

  state_[0] += a;
  state_[1] += b;
  state_[2] += c;
  state_[3] += d;
}

#undef STEP

void Md5::update(const void* data, std::size_t length) {
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  bit_count_ += static_cast<std::uint64_t>(length) * 8;

  if (buffer_len_ > 0) {
    const std::size_t take = std::min(length, sizeof(buffer_) - buffer_len_);
    std::memcpy(buffer_ + buffer_len_, bytes, take);
    buffer_len_ += take;
    bytes += take;
    length -= take;
    if (buffer_len_ == sizeof(buffer_)) {
      transform(buffer_);
      buffer_len_ = 0;
    }
  }
  while (length >= 64) {
    transform(bytes);
    bytes += 64;
    length -= 64;
  }
  if (length > 0) {
    std::memcpy(buffer_, bytes, length);
    buffer_len_ = length;
  }
}

Md5Digest Md5::finish() {
  static constexpr std::uint8_t kPadding[64] = {0x80};
  const std::uint64_t bits = bit_count_;

  const std::size_t pad_len = (buffer_len_ < 56) ? 56 - buffer_len_ : 120 - buffer_len_;
  update(kPadding, pad_len);

  std::uint8_t length_bytes[8];
  for (int i = 0; i < 8; ++i) length_bytes[i] = static_cast<std::uint8_t>(bits >> (8 * i));
  update(length_bytes, sizeof(length_bytes));

  Md5Digest digest;
  for (int i = 0; i < 4; ++i) {
    digest.bytes[i * 4] = static_cast<std::uint8_t>(state_[i]);
    digest.bytes[i * 4 + 1] = static_cast<std::uint8_t>(state_[i] >> 8);
    digest.bytes[i * 4 + 2] = static_cast<std::uint8_t>(state_[i] >> 16);
    digest.bytes[i * 4 + 3] = static_cast<std::uint8_t>(state_[i] >> 24);
  }
  reset();
  return digest;
}

Md5Digest Md5::of(std::string_view text) {
  Md5 hasher;
  hasher.update(text);
  return hasher.finish();
}

std::string Md5Digest::hex() const {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(32);
  for (const std::uint8_t byte : bytes) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

std::uint64_t Md5Digest::prefix64() const {
  std::uint64_t value = 0;
  for (int i = 0; i < 8; ++i) value = (value << 8) | bytes[static_cast<std::size_t>(i)];
  return value;
}

}  // namespace bitdew::util
