#include "crypto/sha256.hpp"

#include <bit>
#include <cstring>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace ace::crypto {

namespace {

constexpr std::array<std::uint32_t, 64> kRound = {
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1,
    0x923f82a4, 0xab1c5ed5, 0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3,
    0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174, 0xe49b69c1, 0xefbe4786,
    0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147,
    0x06ca6351, 0x14292967, 0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13,
    0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85, 0xa2bfe8a1, 0xa81a664b,
    0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a,
    0x5b9cca4f, 0x682e6ff3, 0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208,
    0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2};

inline std::uint32_t rotr(std::uint32_t x, int n) {
  return (x >> n) | (x << (32 - n));
}

// Big-endian stores, SHA-256's byte order for the length field and the
// digest: one swapped word store each, not a byte at a time.
template <typename Word>
void store_big_endian(std::uint8_t* out, Word v) {
  if constexpr (std::endian::native == std::endian::little) {
    if constexpr (sizeof(Word) == 8)
      v = __builtin_bswap64(v);
    else
      v = __builtin_bswap32(v);
  }
  std::memcpy(out, &v, sizeof(v));
}

}  // namespace

namespace detail {

void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks) {
  for (; blocks > 0; --blocks, data += 64) {
    std::uint32_t w[64];
    for (int i = 0; i < 16; ++i) {
      w[i] = static_cast<std::uint32_t>(data[4 * i]) << 24 |
             static_cast<std::uint32_t>(data[4 * i + 1]) << 16 |
             static_cast<std::uint32_t>(data[4 * i + 2]) << 8 |
             static_cast<std::uint32_t>(data[4 * i + 3]);
    }
    for (int i = 16; i < 64; ++i) {
      std::uint32_t s0 =
          rotr(w[i - 15], 7) ^ rotr(w[i - 15], 18) ^ (w[i - 15] >> 3);
      std::uint32_t s1 =
          rotr(w[i - 2], 17) ^ rotr(w[i - 2], 19) ^ (w[i - 2] >> 10);
      w[i] = w[i - 16] + s0 + w[i - 7] + s1;
    }
    std::uint32_t a = state[0], b = state[1], c = state[2], d = state[3];
    std::uint32_t e = state[4], f = state[5], g = state[6], h = state[7];
    for (int i = 0; i < 64; ++i) {
      std::uint32_t s1 = rotr(e, 6) ^ rotr(e, 11) ^ rotr(e, 25);
      std::uint32_t ch = (e & f) ^ (~e & g);
      std::uint32_t t1 = h + s1 + ch + kRound[i] + w[i];
      std::uint32_t s0 = rotr(a, 2) ^ rotr(a, 13) ^ rotr(a, 22);
      std::uint32_t maj = (a & b) ^ (a & c) ^ (b & c);
      std::uint32_t t2 = s0 + maj;
      h = g; g = f; f = e; e = d + t1;
      d = c; c = b; b = a; a = t1 + t2;
    }
    state[0] += a; state[1] += b; state[2] += c; state[3] += d;
    state[4] += e; state[5] += f; state[6] += g; state[7] += h;
  }
}

#if defined(__x86_64__)
// After Gulley et al., "Intel SHA Extensions" (2013). sha256rnds2 runs two
// rounds on the state held as two vectors, ABEF and CDGH, and
// sha256msg1/msg2 extend the message schedule four words at a time.
__attribute__((target("sha,sse4.1"))) void sha256_compress_sha_ni(
    std::uint32_t* state, const std::uint8_t* data, std::size_t blocks) {
  // Reverses the bytes of each 32-bit lane: message words are big-endian.
  const __m128i big_endian =
      _mm_set_epi64x(0x0c0d0e0f08090a0bLL, 0x0405060700010203LL);
  // Lanes are named high to low: state[0..3] loads as DCBA.
  __m128i cdab = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state)), 0xB1);
  __m128i efgh = _mm_shuffle_epi32(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(state + 4)), 0x1B);
  __m128i abef = _mm_alignr_epi8(cdab, efgh, 8);
  __m128i cdgh = _mm_blend_epi16(efgh, cdab, 0xF0);

  for (; blocks > 0; --blocks, data += 64) {
    const __m128i abef_in = abef;
    const __m128i cdgh_in = cdgh;
    // w[g % 4] holds schedule words 4g..4g+3 while group g runs.
    __m128i w[4];
    for (int i = 0; i < 4; ++i)
      w[i] = _mm_shuffle_epi8(
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(data + 16 * i)),
          big_endian);
#pragma GCC unroll 16
    for (int g = 0; g < 16; ++g) {
      if (g >= 4) {
        // W[t] = σ1(W[t-2]) + W[t-7] + σ0(W[t-15]) + W[t-16]; w[g % 4]
        // still holds W[t-16..t-13] and w[(g + 3) % 4] W[t-4..t-1].
        __m128i x = _mm_sha256msg1_epu32(w[g % 4], w[(g + 1) % 4]);
        x = _mm_add_epi32(
            x, _mm_alignr_epi8(w[(g + 3) % 4], w[(g + 2) % 4], 4));
        w[g % 4] = _mm_sha256msg2_epu32(x, w[(g + 3) % 4]);
      }
      const __m128i wk = _mm_add_epi32(
          w[g % 4],
          _mm_loadu_si128(reinterpret_cast<const __m128i*>(&kRound[4 * g])));
      cdgh = _mm_sha256rnds2_epu32(cdgh, abef, wk);
      abef = _mm_sha256rnds2_epu32(abef, cdgh, _mm_shuffle_epi32(wk, 0x0E));
    }
    abef = _mm_add_epi32(abef, abef_in);
    cdgh = _mm_add_epi32(cdgh, cdgh_in);
  }

  const __m128i feba = _mm_shuffle_epi32(abef, 0x1B);
  const __m128i dchg = _mm_shuffle_epi32(cdgh, 0xB1);
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state),
                   _mm_blend_epi16(feba, dchg, 0xF0));
  _mm_storeu_si128(reinterpret_cast<__m128i*>(state + 4),
                   _mm_alignr_epi8(dchg, feba, 8));
}
#endif

Sha256Compress sha256_compress() {
  // A function-local static, so a hash taken by another static initializer
  // before main() still finds the choice made.
  static const Sha256Compress selected = []() -> Sha256Compress {
#if defined(__x86_64__)
    __builtin_cpu_init();
    if (__builtin_cpu_supports("sha") && __builtin_cpu_supports("sse4.1"))
      return &sha256_compress_sha_ni;
#endif
    return &sha256_compress_portable;
  }();
  return selected;
}

}  // namespace detail

Sha256::Sha256() {
  state_ = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
            0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
}

void Sha256::update(const std::uint8_t* data, std::size_t n) {
  if (n == 0) return;
  const detail::Sha256Compress compress = detail::sha256_compress();
  total_len_ += n;
  if (buffer_len_ > 0) {  // top up the partial block first
    const std::size_t take = std::min(n, buffer_.size() - buffer_len_);
    std::memcpy(buffer_.data() + buffer_len_, data, take);
    buffer_len_ += take;
    data += take;
    n -= take;
    if (buffer_len_ < buffer_.size()) return;
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  // Whole blocks go straight from the input, in one call.
  const std::size_t blocks = n / buffer_.size();
  if (blocks > 0) {
    compress(state_.data(), data, blocks);
    data += blocks * buffer_.size();
    n -= blocks * buffer_.size();
  }
  if (n > 0) std::memcpy(buffer_.data(), data, n);
  buffer_len_ = n;
}

Digest Sha256::finish() {
  const detail::Sha256Compress compress = detail::sha256_compress();
  const std::uint64_t bit_len = total_len_ * 8;
  // buffer_len_ < 64 here: update() compresses every full block.
  buffer_[buffer_len_++] = 0x80;
  if (buffer_len_ > 56) {  // no room for the length field in this block
    std::memset(buffer_.data() + buffer_len_, 0, buffer_.size() - buffer_len_);
    compress(state_.data(), buffer_.data(), 1);
    buffer_len_ = 0;
  }
  std::memset(buffer_.data() + buffer_len_, 0, 56 - buffer_len_);
  store_big_endian(buffer_.data() + 56, bit_len);
  compress(state_.data(), buffer_.data(), 1);
  Digest out;
  for (int i = 0; i < 8; ++i) store_big_endian(out.data() + 4 * i, state_[i]);
  return out;
}

Digest sha256(const util::Bytes& data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

Digest sha256(std::string_view data) {
  Sha256 h;
  h.update(data);
  return h.finish();
}

HmacKey::HmacKey(const std::uint8_t* key, std::size_t n) {
  std::array<std::uint8_t, 64> block{};
  if (n > block.size()) {
    Sha256 h;
    h.update(key, n);
    Digest d = h.finish();
    std::memcpy(block.data(), d.data(), d.size());
  } else if (n > 0) {
    std::memcpy(block.data(), key, n);
  }
  std::array<std::uint8_t, 64> pad;
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = block[i] ^ 0x36;
  inner_.update(pad.data(), pad.size());
  for (std::size_t i = 0; i < pad.size(); ++i) pad[i] = block[i] ^ 0x5c;
  outer_.update(pad.data(), pad.size());
}

Digest HmacKey::mac(const std::uint8_t* message, std::size_t n) const {
  Sha256 inner = inner_;
  inner.update(message, n);
  const Digest inner_digest = inner.finish();
  Sha256 outer = outer_;
  outer.update(inner_digest.data(), inner_digest.size());
  return outer.finish();
}

Digest hmac_sha256(const util::Bytes& key, const util::Bytes& message) {
  return HmacKey(key).mac(message);
}

Digest hmac_sha256(const util::Bytes& key, const std::uint8_t* message,
                   std::size_t n) {
  return HmacKey(key).mac(message, n);
}

bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n) {
  std::uint8_t diff = 0;
  for (std::size_t i = 0; i < n; ++i)
    diff |= static_cast<std::uint8_t>(a[i] ^ b[i]);
  return diff == 0;
}

util::Bytes hkdf(const util::Bytes& salt, const util::Bytes& ikm,
                 std::string_view info, std::size_t length) {
  const Digest prk = hmac_sha256(salt, ikm);
  const HmacKey prk_key(prk.data(), prk.size());
  util::Bytes out;
  util::Bytes previous;
  std::uint8_t counter = 1;
  while (out.size() < length) {
    util::Bytes block = previous;
    block.insert(block.end(), info.begin(), info.end());
    block.push_back(counter++);
    Digest t = prk_key.mac(block);
    previous.assign(t.begin(), t.end());
    out.insert(out.end(), t.begin(), t.end());
  }
  out.resize(length);
  return out;
}

}  // namespace ace::crypto
