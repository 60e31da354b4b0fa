// SHA-256, HMAC-SHA256 and a simplified HKDF. Implemented from scratch for
// the ACE secure-channel substitution of the paper's SSL layer (§3.1).
// The compression runs on the CPU's SHA extensions where it has them,
// chosen at run time, and on a portable loop otherwise.
#pragma once

#include <array>
#include <cstdint>
#include <string_view>

#include "util/bytes.hpp"

namespace ace::crypto {

using Digest = std::array<std::uint8_t, 32>;

class Sha256 {
 public:
  Sha256();

  void update(const std::uint8_t* data, std::size_t n);
  void update(const util::Bytes& b) { update(b.data(), b.size()); }
  void update(std::string_view s) {
    update(reinterpret_cast<const std::uint8_t*>(s.data()), s.size());
  }

  Digest finish();

 private:
  std::array<std::uint32_t, 8> state_;
  std::array<std::uint8_t, 64> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

Digest sha256(const util::Bytes& data);
Digest sha256(std::string_view data);

// HMAC-SHA256 under one fixed key. The key's ipad and opad blocks are
// absorbed once, at construction, so each mac() hashes only the message
// plus the two finishing blocks. A secure channel keys one per direction
// at handshake. Default-constructed = the empty key.
class HmacKey {
 public:
  HmacKey() : HmacKey(nullptr, 0) {}
  explicit HmacKey(const util::Bytes& key) : HmacKey(key.data(), key.size()) {}
  HmacKey(const std::uint8_t* key, std::size_t n);

  Digest mac(const std::uint8_t* message, std::size_t n) const;
  Digest mac(const util::Bytes& message) const {
    return mac(message.data(), message.size());
  }

 private:
  Sha256 inner_;  // midstate after key ^ ipad
  Sha256 outer_;  // midstate after key ^ opad
};

// One-shot forms: HmacKey(key).mac(message).
Digest hmac_sha256(const util::Bytes& key, const util::Bytes& message);
// Range form, for MACing a prefix of a buffer without copying it out.
Digest hmac_sha256(const util::Bytes& key, const std::uint8_t* message,
                   std::size_t n);

// True when the n bytes at a and b are equal. The time taken does not
// depend on where they differ, so a tag or authenticator check leaks
// nothing about how much of a forgery was right.
bool constant_time_equal(const std::uint8_t* a, const std::uint8_t* b,
                         std::size_t n);

// HKDF-style key derivation: extract with `salt`, expand `length` bytes of
// output keyed material labelled by `info`.
util::Bytes hkdf(const util::Bytes& salt, const util::Bytes& ikm,
                 std::string_view info, std::size_t length);

namespace detail {

// SHA-256's compression over `blocks` whole 64-byte blocks at `data`,
// folded into the eight state words. Sha256 calls the one
// sha256_compress() returns; the tests cross-check the two here.
using Sha256Compress = void (*)(std::uint32_t* state, const std::uint8_t* data,
                                std::size_t blocks);

// FIPS 180-4's loop. Runs on every CPU; the tests' reference.
void sha256_compress_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t blocks);

#if defined(__x86_64__)
// The x86-64 SHA extensions' compression. Only for a CPU that reports
// `sha` and `sse4.1`: elsewhere it dies on an illegal instruction.
void sha256_compress_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t blocks);
#endif

// The compression Sha256 uses, chosen on the first call from CPUID: the
// SHA-extension one where the CPU has it, the portable one otherwise.
Sha256Compress sha256_compress();

}  // namespace detail

}  // namespace ace::crypto
