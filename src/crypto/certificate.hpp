// Identity certificates and the certificate authority for the ACE secure
// channel. A certificate binds a principal name to its static DH public key
// and is tagged by the CA (HMAC under the CA key — the simulation's stand-in
// for an RSA signature; every verifier holds the CA verification key).
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>

#include "crypto/dh.hpp"
#include "crypto/sha256.hpp"
#include "util/bytes.hpp"
#include "util/result.hpp"

namespace ace::crypto {

struct Certificate {
  std::string subject;              // principal name, e.g. "svc/asd@hawk"
  std::uint64_t static_public = 0;  // static DH public key
  std::uint64_t serial = 0;
  std::uint64_t expires_unix = 0;   // 0 = never (simulation default)
  util::Bytes tag;                  // CA authentication tag

  util::Bytes signed_payload() const;
  util::Bytes serialize() const;
  static std::optional<Certificate> parse(const util::Bytes& data);
};

// A principal's credentials: certificate plus the matching static private
// key. Issued by the CertificateAuthority.
struct Identity {
  Certificate certificate;
  std::uint64_t static_private = 0;

  const std::string& name() const { return certificate.subject; }
};

class CertificateAuthority {
 public:
  explicit CertificateAuthority(std::uint64_t seed = 0xaceca);

  // Issues a fresh identity (static DH key pair + CA-tagged certificate).
  // Safe to call from several threads at once.
  Identity issue(const std::string& subject);

  // Verification key handed to every ACE host so daemons can verify peers.
  const util::Bytes& verification_key() const { return key_; }

  static bool verify(const Certificate& cert, const util::Bytes& ca_key);

 private:
  util::Bytes key_;
  std::mutex mu_;  // guards rng_ and next_serial_
  util::Rng rng_;
  std::uint64_t next_serial_ = 1;
};

}  // namespace ace::crypto
