#include "crypto/certificate.hpp"

namespace ace::crypto {

util::Bytes Certificate::signed_payload() const {
  util::ByteWriter w;
  w.str(subject);
  w.u64(static_public);
  w.u64(serial);
  w.u64(expires_unix);
  return w.take();
}

util::Bytes Certificate::serialize() const {
  util::ByteWriter w;
  w.str(subject);
  w.u64(static_public);
  w.u64(serial);
  w.u64(expires_unix);
  w.blob(tag);
  return w.take();
}

std::optional<Certificate> Certificate::parse(const util::Bytes& data) {
  util::ByteReader r(data);
  Certificate c;
  auto subject = r.str();
  auto pub = r.u64();
  auto serial = r.u64();
  auto expires = r.u64();
  auto tag = r.blob();
  if (!subject || !pub || !serial || !expires || !tag) return std::nullopt;
  c.subject = std::move(*subject);
  c.static_public = *pub;
  c.serial = *serial;
  c.expires_unix = *expires;
  c.tag = std::move(*tag);
  return c;
}

CertificateAuthority::CertificateAuthority(std::uint64_t seed) : rng_(seed) {
  key_.resize(32);
  for (auto& b : key_) b = static_cast<std::uint8_t>(rng_.next());
}

Identity CertificateAuthority::issue(const std::string& subject) {
  Identity id;
  DhKeyPair kp;
  {
    std::lock_guard lock(mu_);
    kp = dh_generate(rng_);
    id.certificate.serial = next_serial_++;
  }
  id.static_private = kp.private_key;
  id.certificate.subject = subject;
  id.certificate.static_public = kp.public_key;
  id.certificate.expires_unix = 0;
  Digest tag = hmac_sha256(key_, id.certificate.signed_payload());
  id.certificate.tag.assign(tag.begin(), tag.end());
  return id;
}

bool CertificateAuthority::verify(const Certificate& cert,
                                  const util::Bytes& ca_key) {
  Digest expected = hmac_sha256(ca_key, cert.signed_payload());
  return cert.tag.size() == expected.size() &&
         constant_time_equal(cert.tag.data(), expected.data(),
                             expected.size());
}

}  // namespace ace::crypto
