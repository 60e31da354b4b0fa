// SHA-256, HMAC-SHA256 and a simplified HKDF. Implemented from scratch for
// the ACE secure-channel substitution of the paper's SSL layer (§3.1).
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
  void process_block(const std::uint8_t* block);

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

util::Bytes digest_bytes(const Digest& d);

}  // namespace ace::crypto
