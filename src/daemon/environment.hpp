// Deployment-wide shared context for one ACE.
//
// Holds the simulated network, the certificate authority, the KeyNote key
// store and policy roots, and the well-known addresses the paper assumes
// ("the location of which is known to all ACE daemons" — §2.4 for the ASD;
// likewise the Room Database, Network Logger, and Authorization Database).
//
// Configuration is completed before daemons start; afterwards the
// environment is treated as immutable shared state (thread-safe to read).
// The one exception is the trust configuration: add_policy() and
// register_principal() may also run on a live deployment while no command
// is being authorized, and each bumps trust_epoch() so that no daemon
// reuses an authorization verdict reached before the change.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "crypto/certificate.hpp"
#include "crypto/channel.hpp"
#include "keynote/assertion.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"

namespace ace::daemon {

// Well-known ports, mirroring the paper's fixed-socket convention.
inline constexpr std::uint16_t kAsdPort = 5000;
inline constexpr std::uint16_t kRoomDbPort = 5001;
inline constexpr std::uint16_t kNetLoggerPort = 5002;
inline constexpr std::uint16_t kAuthDbPort = 5003;

class Environment {
 public:
  explicit Environment(std::uint64_t seed = 42);

  net::Network& network() { return network_; }

  // The deployment's event loop: daemons, clients and lease coordinators
  // all multiplex onto this one reactor's worker pools, which is what
  // keeps process thread count O(pool) rather than O(connections).
  net::Reactor& reactor() { return reactor_; }

  // Deployment-wide metrics/span registry. The network, secure channels,
  // clients and daemons all record here; any daemon's `metrics;` command
  // returns a snapshot of it.
  obs::MetricsRegistry& metrics() { return metrics_; }
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  crypto::CertificateAuthority& ca() { return ca_; }
  const util::Bytes& ca_key() const { return ca_.verification_key(); }

  keynote::KeyStore& keys() { return keys_; }
  const keynote::KeyStore& keys() const { return keys_; }

  // Root POLICY assertions trusted by every daemon that enforces
  // authorization. Install before starting daemons.
  void add_policy(keynote::Assertion policy);
  const std::vector<keynote::Assertion>& policies() const { return policies_; }

  // Registers a principal (user or service) with both the KeyNote key
  // store and, implicitly, anything needing its signing secret.
  // Returns the secret so tests can sign credentials with it.
  util::Bytes register_principal(const std::string& key_id);

  // Counts add_policy() and register_principal() calls. A daemon's cached
  // KeyNote verdict is only used under the epoch it was computed in.
  std::uint64_t trust_epoch() const { return trust_epoch_.load(); }

  crypto::ChannelOptions& channel_options() { return channel_options_; }
  const crypto::ChannelOptions& channel_options() const {
    return channel_options_;
  }

  // Issues an identity certificate for a daemon or client.
  crypto::Identity issue_identity(const std::string& subject) {
    return ca_.issue(subject);
  }

  // Well-known infrastructure addresses. Empty host = not deployed.
  net::Address asd_address;
  net::Address room_db_address;
  net::Address net_logger_address;
  net::Address auth_db_address;

  std::chrono::milliseconds default_timeout{2000};

  std::uint64_t next_seed() { return seed_rng_.next(); }

 private:
  obs::MetricsRegistry metrics_;  // must outlive (so precede) network_
  net::Network network_;
  // Declared after network_ so it is destroyed first: reactor stop() joins
  // the workers while the queues they pump still exist.
  net::Reactor reactor_{&metrics_};
  crypto::CertificateAuthority ca_;
  keynote::KeyStore keys_;
  std::vector<keynote::Assertion> policies_;
  std::atomic<std::uint64_t> trust_epoch_{0};
  crypto::ChannelOptions channel_options_;
  util::Rng seed_rng_;
};

}  // namespace ace::daemon
