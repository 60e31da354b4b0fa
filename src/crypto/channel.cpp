#include "crypto/channel.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

namespace ace::crypto {

namespace {

constexpr std::size_t kMacTagLen = 16;

std::uint64_t next_channel_seed() {
  static std::atomic<std::uint64_t> counter{0x5eedface};
  return counter.fetch_add(0x9e3779b97f4a7c15ULL);
}

util::Bytes u64_bytes(std::uint64_t v) {
  util::ByteWriter w;
  w.u64(v);
  return w.take();
}

struct Hello {
  util::Bytes nonce;  // 16 bytes
  std::uint64_t ephemeral_public = 0;
  Certificate certificate;

  util::Bytes serialize() const {
    util::ByteWriter w;
    w.blob(nonce);
    w.u64(ephemeral_public);
    w.blob(certificate.serialize());
    return w.take();
  }

  static std::optional<Hello> parse(const util::Bytes& data) {
    util::ByteReader r(data);
    Hello h;
    auto nonce = r.blob();
    auto eph = r.u64();
    auto cert_blob = r.blob();
    if (!nonce || !eph || !cert_blob) return std::nullopt;
    auto cert = Certificate::parse(*cert_blob);
    if (!cert) return std::nullopt;
    h.nonce = std::move(*nonce);
    h.ephemeral_public = *eph;
    h.certificate = std::move(*cert);
    return h;
  }
};

}  // namespace

util::Result<SecureChannel> SecureChannel::connect(net::Connection conn,
                                                   const Identity& self,
                                                   const util::Bytes& ca_key,
                                                   net::Duration timeout,
                                                   ChannelOptions options) {
  if (!options.metrics)
    return handshake(std::move(conn), self, ca_key, timeout, options,
                     /*is_client=*/true);
  obs::Span span(*options.metrics, "crypto", "handshake");
  auto r = handshake(std::move(conn), self, ca_key, timeout, options,
                     /*is_client=*/true);
  span.set_ok(r.ok());
  options.metrics
      ->counter(r.ok() ? "crypto.handshakes" : "crypto.handshake_failures")
      .inc();
  return r;
}

util::Result<SecureChannel> SecureChannel::accept(net::Connection conn,
                                                  const Identity& self,
                                                  const util::Bytes& ca_key,
                                                  net::Duration timeout,
                                                  ChannelOptions options) {
  if (!options.metrics)
    return handshake(std::move(conn), self, ca_key, timeout, options,
                     /*is_client=*/false);
  obs::Span span(*options.metrics, "crypto", "handshake");
  auto r = handshake(std::move(conn), self, ca_key, timeout, options,
                     /*is_client=*/false);
  span.set_ok(r.ok());
  options.metrics
      ->counter(r.ok() ? "crypto.handshakes" : "crypto.handshake_failures")
      .inc();
  return r;
}

namespace detail {

// The transport-independent half of the handshake: crypto, transcript and
// message sequencing. init() produces the local hello; each peer frame is
// fed to on_frame(), which appends any frames that must be sent in reply;
// once done, finish() wraps the connection. The blocking handshake() loops
// recv/feed over this; the async path feeds it from a reactor pump. Both
// speak the identical wire exchange:
//   client -> hello; server -> [hello, auth]; client -> auth.
// (The legacy lock-step code sent the server hello before the server auth
// too, so the bytes on the wire are unchanged.)
struct HandshakeCore {
  bool is_client = false;
  Identity self;
  util::Bytes ca_key;

  util::Bytes my_hello;
  DhKeyPair ephemeral{};
  util::Bytes expected_peer_auth;
  std::shared_ptr<SecureChannel::State> state;
  int frames_seen = 0;
  bool done = false;

  void init(bool client, const Identity& identity, const util::Bytes& ca,
            const ChannelOptions& options) {
    is_client = client;
    self = identity;
    ca_key = ca;
    state = std::make_shared<SecureChannel::State>();
    state->encrypt = true;

    util::Rng rng(options.seed ? options.seed : next_channel_seed());
    Hello mine;
    mine.nonce.resize(16);
    for (auto& b : mine.nonce) b = static_cast<std::uint8_t>(rng.next());
    ephemeral = dh_generate(rng);
    mine.ephemeral_public = ephemeral.public_key;
    mine.certificate = self.certificate;
    my_hello = mine.serialize();
  }

  util::Status on_frame(const util::Bytes& frame,
                        std::vector<util::Bytes>& out) {
    if (frames_seen++ == 0) return on_peer_hello(frame, out);

    if (frame != expected_peer_auth)
      return util::Error{util::Errc::auth_error,
                         "handshake: peer authentication failed"};
    done = true;
    return {};
  }

  util::Status on_peer_hello(const util::Bytes& peer_hello_bytes,
                             std::vector<util::Bytes>& out) {
    auto peer_hello = Hello::parse(peer_hello_bytes);
    if (!peer_hello)
      return util::Error{util::Errc::parse_error, "handshake: bad hello"};
    if (!CertificateAuthority::verify(peer_hello->certificate, ca_key))
      return util::Error{util::Errc::auth_error,
                         "handshake: certificate verification failed"};

    // Transcript binds both hellos, client first.
    Sha256 th;
    th.update(is_client ? my_hello : peer_hello_bytes);
    th.update(is_client ? peer_hello_bytes : my_hello);
    Digest transcript = th.finish();
    util::Bytes transcript_bytes(transcript.begin(), transcript.end());

    std::uint64_t ephemeral_shared =
        dh_shared(ephemeral.private_key, peer_hello->ephemeral_public);
    std::uint64_t static_shared =
        dh_shared(self.static_private, peer_hello->certificate.static_public);

    // Mutual authentication: prove possession of the static private key.
    util::Bytes static_shared_bytes = u64_bytes(static_shared);
    auto authenticator = [&](const char* label) {
      util::Bytes msg = transcript_bytes;
      msg.insert(msg.end(), label,
                 label + std::char_traits<char>::length(label));
      Digest d = hmac_sha256(static_shared_bytes, msg);
      return util::Bytes(d.begin(), d.end());
    };
    util::Bytes my_auth = authenticator(is_client ? "client" : "server");
    expected_peer_auth = authenticator(is_client ? "server" : "client");

    // Session keys: 2 x (32B cipher key + 4B nonce salt + 32B mac key).
    util::Bytes ikm = u64_bytes(ephemeral_shared);
    util::Bytes ss = u64_bytes(static_shared);
    ikm.insert(ikm.end(), ss.begin(), ss.end());
    util::Bytes keys = hkdf(transcript_bytes, ikm, "ace-secure-channel", 136);

    auto load_direction = [&](std::size_t offset,
                              SecureChannel::DirectionKeys& dir) {
      std::copy(keys.begin() + offset, keys.begin() + offset + 32,
                dir.cipher_key.begin());
      dir.nonce_salt = static_cast<std::uint32_t>(keys[offset + 32]) |
                       static_cast<std::uint32_t>(keys[offset + 33]) << 8 |
                       static_cast<std::uint32_t>(keys[offset + 34]) << 16 |
                       static_cast<std::uint32_t>(keys[offset + 35]) << 24;
      dir.mac_key.assign(keys.begin() + offset + 36,
                         keys.begin() + offset + 68);
    };
    SecureChannel::DirectionKeys client_to_server, server_to_client;
    load_direction(0, client_to_server);
    load_direction(68, server_to_client);

    state->peer = peer_hello->certificate.subject;
    state->send_keys = is_client ? client_to_server : server_to_client;
    state->recv_keys = is_client ? server_to_client : client_to_server;

    if (!is_client) out.push_back(my_hello);
    out.push_back(std::move(my_auth));
    return {};
  }

  SecureChannel finish(net::Connection conn) {
    state->conn = std::move(conn);
    SecureChannel ch;
    ch.state_ = std::move(state);
    return ch;
  }
};

}  // namespace detail

util::Result<SecureChannel> SecureChannel::handshake(
    net::Connection conn, const Identity& self, const util::Bytes& ca_key,
    net::Duration timeout, ChannelOptions options, bool is_client) {
  if (!options.encrypt) {
    // Plaintext ablation mode: no handshake, raw frames pass through.
    auto state = std::make_shared<State>();
    state->encrypt = false;
    state->conn = std::move(conn);
    SecureChannel ch;
    ch.state_ = std::move(state);
    return ch;
  }

  detail::HandshakeCore core;
  core.init(is_client, self, ca_key, options);
  if (is_client) {
    if (auto s = conn.send(core.my_hello); !s.ok()) return s.error();
  }
  while (!core.done) {
    auto f = conn.recv(timeout);
    if (!f) {
      const char* what = core.frames_seen > 0 ? "handshake: no authenticator"
                         : is_client          ? "handshake: no server hello"
                                              : "handshake: no client hello";
      return util::Error{util::Errc::timeout, what};
    }
    std::vector<util::Bytes> out;
    if (auto s = core.on_frame(*f, out); !s.ok()) return s.error();
    for (auto& frame : out)
      if (auto s = conn.send(std::move(frame)); !s.ok()) return s.error();
  }
  return core.finish(std::move(conn));
}

namespace detail {

// One in-flight async handshake. Owns the connection until completion; the
// reactor pump and the timeout timer both hold a shared_ptr to the op, and
// whichever finishes first wins under mu/finished. complete() stops the
// pump, cancels the timer, closes the connection on failure and invokes
// `done` exactly once with no locks held.
struct AsyncHandshake {
  net::Reactor* reactor = nullptr;
  net::Connection conn;
  HandshakeCore core;
  SecureChannel::HandshakeCallback done;
  net::Subscription sub;
  net::Reactor::TimerId timer = 0;
  std::mutex mu;
  bool finished = false;
  obs::MetricsRegistry* metrics = nullptr;
  std::unique_ptr<obs::Span> span;

  static void start(net::Reactor& reactor, net::Connection conn,
                    const Identity& self, const util::Bytes& ca_key,
                    net::Duration timeout, ChannelOptions options,
                    bool is_client, SecureChannel::HandshakeCallback done) {
    if (!options.encrypt) {
      // Plaintext ablation: nothing to exchange — complete synchronously
      // (documented: `done` may run on the calling thread).
      auto state = std::make_shared<SecureChannel::State>();
      state->encrypt = false;
      state->conn = std::move(conn);
      SecureChannel ch;
      ch.state_ = std::move(state);
      done(std::move(ch));
      return;
    }

    auto op = std::make_shared<AsyncHandshake>();
    op->reactor = &reactor;
    op->conn = std::move(conn);
    op->core.init(is_client, self, ca_key, options);
    op->done = std::move(done);
    op->metrics = options.metrics;
    if (options.metrics)
      op->span =
          std::make_unique<obs::Span>(*options.metrics, "crypto", "handshake");

    std::unique_lock lk(op->mu);
    if (is_client) {
      if (auto s = op->conn.send(op->core.my_hello); !s.ok()) {
        complete(op, std::move(lk), s.error());
        return;
      }
    }
    op->timer = reactor.post_after(
        timeout, [op] { on_timeout(op); });
    if (op->timer == 0) {  // reactor already stopping
      complete(op, std::move(lk),
               util::Error{util::Errc::unavailable, "handshake: reactor stopped"});
      return;
    }
    // Attach while holding op->mu: the pump's first handler invocation
    // blocks on the mutex until op->sub is assigned, so a completion from
    // inside the handler always sees (and can stop) the real subscription.
    op->sub = op->conn.on_frame(reactor, [op](std::optional<net::Frame> f) {
      on_peer_frame(op, std::move(f));
    });
  }

  static void on_peer_frame(const std::shared_ptr<AsyncHandshake>& op,
                            std::optional<net::Frame> frame) {
    std::unique_lock lk(op->mu);
    if (op->finished) return;
    if (!frame) {
      complete(op, std::move(lk),
               util::Error{util::Errc::closed, "handshake: connection closed"});
      return;
    }
    std::vector<util::Bytes> out;
    if (auto s = op->core.on_frame(*frame, out); !s.ok()) {
      complete(op, std::move(lk), s.error());
      return;
    }
    for (auto& reply : out) {
      if (auto s = op->conn.send(std::move(reply)); !s.ok()) {
        complete(op, std::move(lk), s.error());
        return;
      }
    }
    if (op->core.done)
      complete(op, std::move(lk), op->core.finish(std::move(op->conn)));
  }

  static void on_timeout(const std::shared_ptr<AsyncHandshake>& op) {
    std::unique_lock lk(op->mu);
    if (op->finished) return;
    op->timer = 0;  // we are the timer; nothing to cancel
    const char* what = op->core.frames_seen > 0 ? "handshake: no authenticator"
                       : op->core.is_client     ? "handshake: no server hello"
                                                : "handshake: no client hello";
    complete(op, std::move(lk), util::Error{util::Errc::timeout, what});
  }

  static void complete(const std::shared_ptr<AsyncHandshake>& op,
                       std::unique_lock<std::mutex> lk,
                       util::Result<SecureChannel> result) {
    op->finished = true;
    auto timer = std::exchange(op->timer, 0);
    lk.unlock();
    // Stop the pump with no locks held: a concurrent handler blocked on
    // op->mu must be able to run (it will observe `finished` and bail);
    // from inside the handler stop() detects the self-call and skips the
    // wait.
    if (timer) op->reactor->cancel(timer);
    op->sub.stop();
    if (!result.ok()) op->conn.close();
    if (op->span) {
      op->span->set_ok(result.ok());
      op->span.reset();
    }
    if (op->metrics)
      op->metrics
          ->counter(result.ok() ? "crypto.handshakes"
                                : "crypto.handshake_failures")
          .inc();
    auto done = std::move(op->done);
    op->done = nullptr;
    done(std::move(result));
  }
};

}  // namespace detail

void SecureChannel::async_connect(net::Reactor& reactor, net::Connection conn,
                                  const Identity& self,
                                  const util::Bytes& ca_key,
                                  net::Duration timeout, ChannelOptions options,
                                  HandshakeCallback done) {
  detail::AsyncHandshake::start(reactor, std::move(conn), self, ca_key, timeout,
                                options, /*is_client=*/true, std::move(done));
}

void SecureChannel::async_accept(net::Reactor& reactor, net::Connection conn,
                                 const Identity& self, const util::Bytes& ca_key,
                                 net::Duration timeout, ChannelOptions options,
                                 HandshakeCallback done) {
  detail::AsyncHandshake::start(reactor, std::move(conn), self, ca_key, timeout,
                                options, /*is_client=*/false, std::move(done));
}

util::Status SecureChannel::send(net::Frame frame) {
  if (!state_) return {util::Errc::invalid, "unconnected channel"};
  if (!state_->encrypt) return state_->conn.send(std::move(frame));

  std::scoped_lock lock(state_->send_mu);
  DirectionKeys& keys = state_->send_keys;
  std::uint64_t seq = keys.sequence++;
  chacha20_xor(keys.cipher_key, nonce_from_sequence(seq, keys.nonce_salt), 1,
               frame);
  util::ByteWriter record;
  record.u64(seq);
  record.raw(frame);
  Digest mac = hmac_sha256(keys.mac_key, record.bytes());
  record.raw(mac.data(), kMacTagLen);
  return state_->conn.send(record.take());
}

std::optional<net::Frame> SecureChannel::recv(net::Duration timeout) {
  if (!state_) return std::nullopt;
  if (!state_->encrypt) return state_->conn.recv(timeout);

  auto record = state_->conn.recv(timeout);
  if (!record) return std::nullopt;
  return decrypt_record(*state_, std::move(*record));
}

std::optional<net::Frame> SecureChannel::decrypt_record(State& state,
                                                        net::Frame record) {
  std::scoped_lock lock(state.recv_mu);
  DirectionKeys& keys = state.recv_keys;
  if (record.size() < 8 + kMacTagLen) return std::nullopt;

  // Verify and decrypt in place: the MAC runs over the record prefix and
  // the payload is decrypted where it lies, so the only data movement is
  // one memmove dropping the 8-byte header (no body/payload copies).
  std::size_t body_len = record.size() - kMacTagLen;
  Digest mac = hmac_sha256(keys.mac_key, record.data(), body_len);
  for (std::size_t i = 0; i < kMacTagLen; ++i)
    if (record[body_len + i] != mac[i]) return std::nullopt;  // forged

  util::ByteReader r(record.data(), 8);
  auto seq = r.u64();
  if (!seq || *seq != keys.sequence) return std::nullopt;  // replay/reorder
  keys.sequence++;

  chacha20_xor(keys.cipher_key, nonce_from_sequence(*seq, keys.nonce_salt), 1,
               record.data() + 8, body_len - 8);
  record.erase(record.begin(), record.begin() + 8);
  record.resize(body_len - 8);
  return record;
}

net::Subscription SecureChannel::on_frame(
    net::Reactor& reactor, std::function<void(std::optional<net::Frame>)> handler,
    net::AttachOptions options) {
  if (!state_) return {};
  auto st = state_;
  return st->conn.on_frame(
      reactor,
      [st, handler = std::move(handler)](std::optional<net::Frame> record) {
        if (!record) {
          handler(std::nullopt);
          return;
        }
        if (!st->encrypt) {
          handler(std::move(record));
          return;
        }
        auto plain = decrypt_record(*st, std::move(*record));
        if (!plain) {
          // A record that fails MAC/sequence/framing checks poisons the
          // stream for a callback consumer (no per-call deadline to notice
          // silence): kill the channel. The pump's final handler(nullopt)
          // fires via the closed connection.
          st->conn.close();
          return;
        }
        handler(std::move(plain));
      },
      options);
}

void SecureChannel::close() {
  if (state_) state_->conn.close();
}

bool SecureChannel::closed() const {
  return !state_ || state_->conn.closed();
}

const std::string& SecureChannel::peer_name() const {
  static const std::string kEmpty;
  return state_ ? state_->peer : kEmpty;
}

}  // namespace ace::crypto
