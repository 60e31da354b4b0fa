// Secure channel over a net::Connection — the simulation's SSL (paper §3.1).
//
// Handshake (Noise-KK-like): each side sends {nonce, ephemeral DH public,
// certificate}; both verify the peer certificate against the CA key, then
// exchange authenticators HMAC'd under the *static* DH shared secret over the
// handshake transcript. Session keys are HKDF-derived from the ephemeral and
// static shared secrets. Records are ChaCha20-encrypted and HMAC-tagged,
// with per-direction sequence numbers (replay/reorder detection).
//
// A plaintext mode exists solely for the E5 security-overhead ablation.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include <functional>

#include "crypto/certificate.hpp"
#include "crypto/chacha20.hpp"
#include "net/network.hpp"
#include "net/reactor.hpp"
#include "obs/metrics.hpp"
#include "util/result.hpp"

namespace ace::crypto {

namespace detail {
struct HandshakeCore;
struct AsyncHandshake;
}  // namespace detail

struct ChannelOptions {
  bool encrypt = true;     // false = plaintext passthrough (ablation only)
  std::uint64_t seed = 0;  // 0 = derive from a process-wide counter
  // Handshake outcomes and latency land here under `crypto.*` names
  // (daemon::Environment wires its registry in automatically).
  obs::MetricsRegistry* metrics = nullptr;
};

class SecureChannel {
 public:
  SecureChannel() = default;

  // Client side of the handshake. Consumes the connection. Blocks the
  // calling thread across the round trips.
  static util::Result<SecureChannel> connect(net::Connection conn,
                                             const Identity& self,
                                             const util::Bytes& ca_key,
                                             net::Duration timeout,
                                             ChannelOptions options = {});

  // Server side of the handshake.
  static util::Result<SecureChannel> accept(net::Connection conn,
                                            const Identity& self,
                                            const util::Bytes& ca_key,
                                            net::Duration timeout,
                                            ChannelOptions options = {});

  // Non-blocking handshakes: the same DH/certificate exchange driven as a
  // reactor state machine — each peer frame advances it on a core worker;
  // `timeout` arms a reactor timer that aborts (and closes the connection)
  // if the peer stalls. `done` is invoked exactly once, on a reactor
  // worker or (on an immediate failure / plaintext channel) on the calling
  // thread. This is what lets a daemon run thousands of concurrent
  // handshakes on O(pool) threads.
  using HandshakeCallback = std::function<void(util::Result<SecureChannel>)>;
  static void async_connect(net::Reactor& reactor, net::Connection conn,
                            const Identity& self, const util::Bytes& ca_key,
                            net::Duration timeout, ChannelOptions options,
                            HandshakeCallback done);
  static void async_accept(net::Reactor& reactor, net::Connection conn,
                           const Identity& self, const util::Bytes& ca_key,
                           net::Duration timeout, ChannelOptions options,
                           HandshakeCallback done);

  bool valid() const { return state_ != nullptr; }

  util::Status send(net::Frame frame);
  std::optional<net::Frame> recv(net::Duration timeout);

  // Async surface: decrypted plaintext frames delivered in order on a
  // reactor worker; handler(std::nullopt) once when the channel dies.
  // Stricter than the blocking shim on tampering: a record that fails MAC,
  // sequence or framing checks closes the channel (the blocking recv just
  // drops it), because a callback consumer has no per-call deadline with
  // which to notice a poisoned stream.
  net::Subscription on_frame(
      net::Reactor& reactor,
      std::function<void(std::optional<net::Frame>)> handler,
      net::AttachOptions options = {});

  void close();
  bool closed() const;

  // Authenticated peer principal name (from its certificate); empty in
  // plaintext mode.
  const std::string& peer_name() const;

 private:
  struct DirectionKeys {
    ChaChaKey cipher_key{};
    std::uint32_t nonce_salt = 0;
    util::Bytes mac_key;
    std::uint64_t sequence = 0;
  };

  struct State {
    net::Connection conn;
    bool encrypt = true;
    std::string peer;
    DirectionKeys send_keys;
    DirectionKeys recv_keys;
    std::mutex send_mu;
    std::mutex recv_mu;
  };

  // Shared handshake logic (crypto + transcript) lives in
  // detail::HandshakeCore; the blocking path loops recv/feed over it and
  // the async path feeds it from a reactor pump.
  friend struct detail::HandshakeCore;
  friend struct detail::AsyncHandshake;

  static util::Result<SecureChannel> handshake(net::Connection conn,
                                               const Identity& self,
                                               const util::Bytes& ca_key,
                                               net::Duration timeout,
                                               ChannelOptions options,
                                               bool is_client);

  // Verifies and decrypts one record in place (see recv). nullopt = forged
  // or replayed. Caller coordinates recv_mu.
  static std::optional<net::Frame> decrypt_record(State& state,
                                                  net::Frame record);

  std::shared_ptr<State> state_;
};

}  // namespace ace::crypto
